//! Bench-regression gating: compare freshly generated bench artifacts
//! (`results/BENCH_runtime.json`, `results/BENCH_serve.json`,
//! `results/BENCH_net.json`) against a committed baseline copy, with
//! per-metric tolerance bands and a machine-readable verdict.
//!
//! All gated metrics are higher-is-better (throughputs, speedup ratios,
//! hit rates), so a check passes when
//! `current >= baseline * (1 - band)`. Bands are deliberately loose by
//! default ([`DEFAULT_BAND`]): CI machines are noisy, and the gate
//! exists to catch collapses (a backend silently falling back to the
//! interpreter, a cache that stopped hitting), not 3% jitter. Metrics
//! that are ratios of like measurements on the same machine
//! (`warm_over_cold`, `hit_rate_warm`, `digest_match`) get much tighter
//! bands because machine speed divides out of them.
//!
//! The JSON the bench binaries emit is hand-rolled and read back with
//! the workspace's one reader, [`sp_trace::json`].

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Default fractional regression band for raw-throughput metrics.
pub const DEFAULT_BAND: f64 = 0.5;
/// Band for machine-speed-independent ratio metrics.
pub const RATIO_BAND: f64 = 0.05;

pub use sp_trace::json::Json;

// ---------------------------------------------------------------------
// Metric extraction.

/// The gated metrics of one artifact set, flattened to dotted names.
pub fn extract_metrics(
    runtime: Option<&Json>,
    serve: Option<&Json>,
    net: Option<&Json>,
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    if let Some(doc) = runtime {
        for k in doc
            .get("kernels")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let name = k.get("kernel").and_then(Json::as_str).unwrap_or("kernel");
            // The last row is the deepest timestep count — the steady
            // state the paper's tables report.
            let Some(last) = k
                .get("rows")
                .and_then(Json::as_arr)
                .and_then(<[Json]>::last)
            else {
                continue;
            };
            for col in ["pooled", "compiled", "simd"] {
                if let Some(v) = last
                    .get(col)
                    .and_then(|r| r.get("iters_per_sec"))
                    .and_then(Json::as_f64)
                {
                    out.push((
                        format!("runtime.{name}.{col}.iters_per_sec"),
                        v,
                        DEFAULT_BAND,
                    ));
                }
            }
        }
    }
    if let Some(doc) = serve {
        let metric = |path: &[&str]| -> Option<f64> {
            let mut v = doc;
            for key in path {
                v = v.get(key)?;
            }
            v.as_f64()
        };
        for (name, path, band) in [
            (
                "serve.warm.jobs_per_sec",
                &["warm", "jobs_per_sec"][..],
                DEFAULT_BAND,
            ),
            ("serve.warm_over_cold", &["warm_over_cold"][..], RATIO_BAND),
            ("serve.hit_rate_warm", &["hit_rate_warm"][..], RATIO_BAND),
            // digest_match is 0/1: any band < 1 forces current == 1
            // whenever the baseline was 1.
            ("serve.digest_match", &["digest_match"][..], 0.0),
        ] {
            if let Some(v) = metric(path) {
                out.push((name.to_string(), v, band));
            }
        }
    }
    if let Some(doc) = net {
        if let Some(v) = doc
            .get("net")
            .and_then(|n| n.get("jobs_per_sec"))
            .and_then(Json::as_f64)
        {
            out.push(("net.jobs_per_sec".to_string(), v, DEFAULT_BAND));
        }
        // The pipelined column: losing it (the bench silently dropping
        // the phase) is a missing-metric failure, same as any other.
        if let Some(v) = doc
            .get("pipelined")
            .and_then(|n| n.get("jobs_per_sec"))
            .and_then(Json::as_f64)
        {
            out.push(("net.pipelined.jobs_per_sec".to_string(), v, DEFAULT_BAND));
        }
        // digest_match is 0/1 and a hard guarantee of the wire tier:
        // current must be 1 whenever the baseline was.
        if let Some(v) = doc.get("digest_match").and_then(Json::as_f64) {
            out.push(("net.digest_match".to_string(), v, 0.0));
        }
    }
    out
}

// ---------------------------------------------------------------------
// The check itself.

/// One gated metric's comparison.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Dotted metric name (e.g. `runtime.jacobi.simd.iters_per_sec`).
    pub name: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
    /// Fractional regression allowed before failing.
    pub band: f64,
    /// `current >= baseline * (1 - band)`?
    pub ok: bool,
}

/// The whole gate's verdict.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Per-metric comparisons, baseline order.
    pub checks: Vec<MetricCheck>,
    /// Baseline metrics the current artifacts no longer report — always
    /// a failure (a silently vanished metric is the worst regression).
    pub missing: Vec<String>,
    /// Artifact files that could not be read or parsed.
    pub errors: Vec<String>,
}

impl CheckReport {
    /// True when every metric passed and nothing was missing or broken.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.missing.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Failing metric count (not counting missing/errors).
    pub fn regressions(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// Human-readable verdict table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{} {:<40} baseline {:>14.3}  current {:>14.3}  band {:>4.0}%",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.baseline,
                c.current,
                c.band * 100.0
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "FAIL {m:<40} missing from current artifacts");
        }
        for e in &self.errors {
            let _ = writeln!(out, "FAIL {e}");
        }
        let _ = writeln!(
            out,
            "bench check: {} ({} metrics, {} regressed, {} missing)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.len(),
            self.regressions(),
            self.missing.len()
        );
        out
    }

    /// Machine-readable verdict (consumed by CI and `--json-out`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"passed\":{},\"metrics\":{},\"regressed\":{},\"checks\":[",
            self.passed(),
            self.checks.len(),
            self.regressions()
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"baseline\":{},\"current\":{},\"band\":{},\"ok\":{}}}",
                c.name, c.baseline, c.current, c.band, c.ok
            );
        }
        s.push_str("],\"missing\":[");
        for (i, m) in self.missing.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{m}\"");
        }
        s.push_str("],\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", e.replace('"', "'"));
        }
        s.push_str("]}");
        s
    }
}

/// Compares already-extracted metric sets. `tolerance` overrides the
/// default band on raw-throughput metrics; ratio metrics keep their
/// tight bands regardless.
pub fn compare(
    baseline: &[(String, f64, f64)],
    current: &[(String, f64, f64)],
    tolerance: Option<f64>,
) -> CheckReport {
    let mut report = CheckReport::default();
    for (name, base, band) in baseline {
        let band = if (*band - DEFAULT_BAND).abs() < f64::EPSILON {
            tolerance.unwrap_or(*band)
        } else {
            *band
        };
        match current.iter().find(|(n, _, _)| n == name) {
            Some((_, cur, _)) => {
                let ok = cur.is_finite() && *cur >= base * (1.0 - band);
                report.checks.push(MetricCheck {
                    name: name.clone(),
                    baseline: *base,
                    current: *cur,
                    band,
                    ok,
                });
            }
            None => report.missing.push(name.clone()),
        }
    }
    report
}

fn load(dir: &Path, file: &str, errors: &mut Vec<String>) -> Option<Json> {
    let path = dir.join(file);
    if !path.exists() {
        return None;
    }
    match fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text) {
            Some(doc) => Some(doc),
            None => {
                errors.push(format!("{}: unparseable JSON", path.display()));
                None
            }
        },
        Err(e) => {
            errors.push(format!("{}: {e}", path.display()));
            None
        }
    }
}

/// Runs the gate over two artifact directories, each expected to hold
/// some of `BENCH_runtime.json`, `BENCH_serve.json`, and
/// `BENCH_net.json`. A baseline file that does not exist contributes no
/// checks (nothing committed to gate against); a baseline file the
/// current side lacks fails every one of its metrics as missing.
pub fn check_dirs(baseline_dir: &Path, current_dir: &Path, tolerance: Option<f64>) -> CheckReport {
    let mut errors = Vec::new();
    let base_runtime = load(baseline_dir, "BENCH_runtime.json", &mut errors);
    let base_serve = load(baseline_dir, "BENCH_serve.json", &mut errors);
    let base_net = load(baseline_dir, "BENCH_net.json", &mut errors);
    let cur_runtime = load(current_dir, "BENCH_runtime.json", &mut errors);
    let cur_serve = load(current_dir, "BENCH_serve.json", &mut errors);
    let cur_net = load(current_dir, "BENCH_net.json", &mut errors);
    let baseline = extract_metrics(
        base_runtime.as_ref(),
        base_serve.as_ref(),
        base_net.as_ref(),
    );
    let current = extract_metrics(cur_runtime.as_ref(), cur_serve.as_ref(), cur_net.as_ref());
    if baseline.is_empty() {
        errors.push(format!(
            "{}: no gated metrics found in baseline",
            baseline_dir.display()
        ));
    }
    let mut report = compare(&baseline, &current, tolerance);
    report.errors = errors;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE: &str = r#"{"workers":4,"jobs_per_phase":36,
        "cold":{"seconds":0.03,"jobs":36,"jobs_per_sec":1100.0,"hits":0,"misses":36,"hit_rate":0.0},
        "warm":{"seconds":0.025,"jobs":36,"jobs_per_sec":1400.0,"hits":36,"misses":0,"hit_rate":1.0},
        "warm_over_cold":1.29,"hit_rate_warm":1.0,"digest_match":true}"#;

    const RUNTIME: &str = r#"{"kernels":[{"kernel":"jacobi","rows":[
        {"steps":1,"pooled":{"iters_per_sec":10.0},"compiled":{"iters_per_sec":20.0}},
        {"steps":4,"pooled":{"iters_per_sec":100.0},"compiled":{"iters_per_sec":200.0},
         "simd":{"iters_per_sec":400.0}}],"miss_parity":true}],"skewed":{}}"#;

    const NET: &str = r#"{"clients":4,"rounds":4,"jobs":96,
        "net":{"seconds":0.04,"jobs_per_sec":2400.0,"p50_rt_ms":1.1,"p99_rt_ms":2.1},
        "pipelined":{"window":4,"seconds":0.03,"jobs_per_sec":3200.0,"speedup_over_serial":1.33},
        "inproc_jobs_per_sec":3400.0,"net_over_inproc":0.7,
        "warm_hits":90,"cold_misses":6,"digest_match":true}"#;

    fn metrics(runtime: &str, serve: &str) -> Vec<(String, f64, f64)> {
        metrics3(runtime, serve, NET)
    }

    fn metrics3(runtime: &str, serve: &str, net: &str) -> Vec<(String, f64, f64)> {
        extract_metrics(
            Some(&Json::parse(runtime).unwrap()),
            Some(&Json::parse(serve).unwrap()),
            Some(&Json::parse(net).unwrap()),
        )
    }

    #[test]
    fn parser_handles_the_real_artifact_shapes() {
        let doc = Json::parse(SERVE).unwrap();
        assert_eq!(
            doc.get("warm").unwrap().get("jobs_per_sec").unwrap(),
            &Json::Num(1400.0)
        );
        assert_eq!(doc.get("digest_match").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn extraction_gates_the_last_row_and_the_serve_ratios() {
        let m = metrics(RUNTIME, SERVE);
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "runtime.jacobi.pooled.iters_per_sec",
                "runtime.jacobi.compiled.iters_per_sec",
                "runtime.jacobi.simd.iters_per_sec",
                "serve.warm.jobs_per_sec",
                "serve.warm_over_cold",
                "serve.hit_rate_warm",
                "serve.digest_match",
                "net.jobs_per_sec",
                "net.pipelined.jobs_per_sec",
                "net.digest_match",
            ]
        );
        // Last row, not first: 100, not 10.
        assert_eq!(m[0].1, 100.0);
        assert_eq!(m[6].1, 1.0);
        // net.jobs_per_sec and the pipelined column come from their
        // nested objects, with the default throughput band;
        // net.digest_match is exact.
        assert_eq!(m[7], ("net.jobs_per_sec".to_string(), 2400.0, DEFAULT_BAND));
        assert_eq!(
            m[8],
            (
                "net.pipelined.jobs_per_sec".to_string(),
                3200.0,
                DEFAULT_BAND
            )
        );
        assert_eq!(m[9], ("net.digest_match".to_string(), 1.0, 0.0));
    }

    #[test]
    fn a_broken_wire_digest_fails_even_under_loose_tolerance() {
        let base = metrics(RUNTIME, SERVE);
        let broken = NET.replace("\"digest_match\":true", "\"digest_match\":false");
        let report = compare(&base, &metrics3(RUNTIME, SERVE, &broken), Some(0.9));
        assert_eq!(report.regressions(), 1);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "net.digest_match" && !c.ok));
        // A net artifact the current run lost entirely is a failure, not
        // a skip.
        let without = extract_metrics(
            Some(&Json::parse(RUNTIME).unwrap()),
            Some(&Json::parse(SERVE).unwrap()),
            None,
        );
        let report = compare(&base, &without, None);
        assert!(!report.passed());
        assert!(report.missing.contains(&"net.jobs_per_sec".to_string()));
    }

    #[test]
    fn identical_artifacts_pass_and_regressions_fail() {
        let base = metrics(RUNTIME, SERVE);
        assert!(compare(&base, &base, None).passed());

        // Inject a collapse: simd throughput drops 90%.
        let regressed = RUNTIME.replace(
            "\"simd\":{\"iters_per_sec\":400.0}",
            "\"simd\":{\"iters_per_sec\":40.0}",
        );
        let report = compare(&base, &metrics(&regressed, SERVE), None);
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        let failing = report.checks.iter().find(|c| !c.ok).unwrap();
        assert_eq!(failing.name, "runtime.jacobi.simd.iters_per_sec");
        assert!(report.render_text().contains("FAIL"));
        assert!(report.to_json().contains("\"passed\":false"));

        // Within the default band: a 30% dip passes.
        let dipped = RUNTIME.replace(
            "\"simd\":{\"iters_per_sec\":400.0}",
            "\"simd\":{\"iters_per_sec\":280.0}",
        );
        assert!(compare(&base, &metrics(&dipped, SERVE), None).passed());
        // ...but a tightened tolerance catches it.
        assert!(!compare(&base, &metrics(&dipped, SERVE), Some(0.1)).passed());
    }

    #[test]
    fn ratio_metrics_keep_tight_bands_under_loose_tolerance() {
        let base = metrics(RUNTIME, SERVE);
        let broken = SERVE
            .replace("\"hit_rate_warm\":1.0", "\"hit_rate_warm\":0.5")
            .replace("\"digest_match\":true", "\"digest_match\":false");
        let report = compare(&base, &metrics(RUNTIME, &broken), Some(0.9));
        assert_eq!(report.regressions(), 2);
        let names: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["serve.hit_rate_warm", "serve.digest_match"]);
    }

    #[test]
    fn missing_metrics_fail_the_gate() {
        let base = metrics(RUNTIME, SERVE);
        // Current run lost the simd column entirely.
        let truncated = RUNTIME.replace(",\n         \"simd\":{\"iters_per_sec\":400.0}", "");
        let report = compare(&base, &metrics(&truncated, SERVE), None);
        assert!(!report.passed());
        assert_eq!(report.missing, ["runtime.jacobi.simd.iters_per_sec"]);
    }

    #[test]
    fn check_dirs_round_trips_through_the_filesystem() {
        let root = std::env::temp_dir().join(format!("sp-bench-reg-{}", std::process::id()));
        let (bdir, cdir) = (root.join("base"), root.join("cur"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&bdir).unwrap();
        fs::create_dir_all(&cdir).unwrap();
        for dir in [&bdir, &cdir] {
            fs::write(dir.join("BENCH_runtime.json"), RUNTIME).unwrap();
            fs::write(dir.join("BENCH_serve.json"), SERVE).unwrap();
            fs::write(dir.join("BENCH_net.json"), NET).unwrap();
        }
        assert!(check_dirs(&bdir, &cdir, None).passed());

        // Corrupt the current serve artifact's ratio: gate fails.
        fs::write(
            cdir.join("BENCH_serve.json"),
            SERVE.replace("\"warm_over_cold\":1.29", "\"warm_over_cold\":0.01"),
        )
        .unwrap();
        let report = check_dirs(&bdir, &cdir, None);
        assert!(!report.passed());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "serve.warm_over_cold" && !c.ok));

        // An empty baseline is an error, not a silent pass.
        let empty = root.join("empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(!check_dirs(&empty, &cdir, None).passed());
        let _ = fs::remove_dir_all(&root);
    }
}

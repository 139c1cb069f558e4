//! Bench-regression gating: compare a freshly generated
//! `results/BENCH_runtime.json` against a committed baseline copy, with
//! a tolerance band and a machine-readable verdict.
//!
//! All gated metrics are throughputs (higher is better): iterations a
//! second per kernel and backend, and front-end texts a second
//! (`runtime.compile.texts_per_sec`). A check passes when
//! `current >= baseline * (1 - band)`. The band is
//! deliberately loose by default ([`DEFAULT_BAND`]): CI machines are
//! noisy, and the gate exists to catch collapses (a backend silently
//! falling back to the interpreter), not 3% jitter.
//!
//! One check reads the current artifact alone: where it reports a wide
//! seeding kernel, that kernel must run in at most [`SEED_WIDE_CEILING`]
//! of the scalar one's time ([`seed_floor`]).
//!
//! The JSON the bench binary emits is hand-rolled and read back with
//! the workspace's one reader, [`sp_trace::json`].

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Default fractional regression band.
pub const DEFAULT_BAND: f64 = 0.5;

pub use sp_trace::json::Json;

// ---------------------------------------------------------------------
// Metric extraction.

/// The gated metrics of a `BENCH_runtime.json` document, flattened to
/// dotted names.
pub fn extract_metrics(runtime: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for k in runtime
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
                out.push((format!("runtime.{name}.{col}.iters_per_sec"), v));
            }
        }
    }
    if let Some(v) = runtime
        .get("compile")
        .and_then(|c| c.get("texts_per_sec"))
        .and_then(Json::as_f64)
    {
        out.push(("runtime.compile.texts_per_sec".into(), v));
    }
    out
}

/// The most time the wide seeding kernel may take, as a share of the
/// scalar kernel's.
pub const SEED_WIDE_CEILING: f64 = 0.6;

/// The seeding check of a `BENCH_runtime.json` document, as the speedup
/// `scalar / wide` held to the floor `1 / SEED_WIDE_CEILING` (the check's
/// `baseline`, with no band). `None` when the document reports no wide
/// time: a host without the ISA writes `"wide":null`.
pub fn seed_floor(runtime: &Json) -> Option<MetricCheck> {
    let seed = runtime.get("seed_ns_per_value")?;
    let ns = |isa| seed.get(isa).and_then(Json::as_f64);
    let (scalar, wide) = (ns("scalar")?, ns("wide")?);
    let floor = 1.0 / SEED_WIDE_CEILING;
    let speedup = scalar / wide;
    Some(MetricCheck {
        name: "runtime.seed.wide_speedup".into(),
        baseline: floor,
        current: speedup,
        band: 0.0,
        ok: speedup.is_finite() && speedup >= floor,
    })
}

// ---------------------------------------------------------------------
// The check itself.

/// One gated metric's comparison.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Dotted metric name (e.g. `runtime.jacobi.simd.iters_per_sec`).
    pub name: String,
    /// The committed baseline value ([`seed_floor`]'s floor).
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

/// Compares already-extracted metric sets. `tolerance` overrides
/// [`DEFAULT_BAND`].
pub fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    tolerance: Option<f64>,
) -> CheckReport {
    let band = tolerance.unwrap_or(DEFAULT_BAND);
    let mut report = CheckReport::default();
    for (name, base) in baseline {
        match current.iter().find(|(n, _)| n == name) {
            Some((_, cur)) => {
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

/// `dir/BENCH_runtime.json`: `None` when the file is absent, `None` plus
/// an error when it cannot be read or parsed.
fn load(dir: &Path, errors: &mut Vec<String>) -> Option<Json> {
    let path = dir.join("BENCH_runtime.json");
    if !path.exists() {
        return None;
    }
    match fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text) {
            Some(doc) => return Some(doc),
            None => errors.push(format!("{}: unparseable JSON", path.display())),
        },
        Err(e) => errors.push(format!("{}: {e}", path.display())),
    }
    None
}

/// Runs the gate over two artifact directories, reading
/// `BENCH_runtime.json` from each and nothing else (any other file in
/// either directory is ignored), and adds the current side's
/// [`seed_floor`]. A baseline without gated metrics is an error (nothing
/// committed to gate against is not a pass); a current side without the
/// file fails every baseline metric as missing.
pub fn check_dirs(baseline_dir: &Path, current_dir: &Path, tolerance: Option<f64>) -> CheckReport {
    let mut errors = Vec::new();
    let baseline = load(baseline_dir, &mut errors);
    let current = load(current_dir, &mut errors);
    let metrics = |doc: &Option<Json>| doc.as_ref().map(extract_metrics).unwrap_or_default();
    let base_metrics = metrics(&baseline);
    if base_metrics.is_empty() {
        errors.push(format!(
            "{}: no gated metrics found in baseline",
            baseline_dir.display()
        ));
    }
    let mut report = compare(&base_metrics, &metrics(&current), tolerance);
    report.checks.extend(current.as_ref().and_then(seed_floor));
    report.errors = errors;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNTIME: &str = r#"{"kernels":[{"kernel":"jacobi","rows":[
        {"steps":1,"pooled":{"iters_per_sec":10.0},"compiled":{"iters_per_sec":20.0}},
        {"steps":4,"pooled":{"iters_per_sec":100.0},"compiled":{"iters_per_sec":200.0},
         "simd":{"iters_per_sec":400.0}}],"miss_parity":true}],"skewed":{}}"#;

    fn metrics(runtime: &str) -> Vec<(String, f64)> {
        extract_metrics(&Json::parse(runtime).unwrap())
    }

    #[test]
    fn parser_handles_the_real_artifact_shapes() {
        let doc = Json::parse(RUNTIME).unwrap();
        let kernel = &doc.get("kernels").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(kernel.get("kernel").and_then(Json::as_str), Some("jacobi"));
        assert_eq!(kernel.get("miss_parity").unwrap().as_f64(), Some(1.0));
        let rows = kernel.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[1].get("simd").unwrap().get("iters_per_sec").unwrap(),
            &Json::Num(400.0)
        );
    }

    #[test]
    fn extraction_gates_the_last_row_of_each_kernel() {
        let m = metrics(RUNTIME);
        let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "runtime.jacobi.pooled.iters_per_sec",
                "runtime.jacobi.compiled.iters_per_sec",
                "runtime.jacobi.simd.iters_per_sec",
            ]
        );
        // Last row, not first: 100, not 10.
        assert_eq!(m[0].1, 100.0);
    }

    #[test]
    fn the_front_end_rate_is_gated_where_reported() {
        let with = RUNTIME.replacen(
            '{',
            r#"{"compile":{"texts":23,"texts_per_sec":40000,"us_per_text":{"parse":9.1}},"#,
            1,
        );
        let m = metrics(&with);
        assert_eq!(
            m.last().unwrap(),
            &("runtime.compile.texts_per_sec".to_string(), 40000.0)
        );
        // Half the rate is inside the default band; a third is not.
        let half = with.replace("40000", "20001");
        assert!(compare(&m, &metrics(&half), None).passed());
        let third = with.replace("40000", "13000");
        let report = compare(&m, &metrics(&third), None);
        assert_eq!(report.regressions(), 1);
        // A current artifact without the entry fails it as missing.
        let report = compare(&m, &metrics(RUNTIME), None);
        assert_eq!(report.missing, ["runtime.compile.texts_per_sec"]);
    }

    #[test]
    fn identical_artifacts_pass_and_regressions_fail() {
        let base = metrics(RUNTIME);
        assert!(compare(&base, &base, None).passed());

        // Inject a collapse: simd throughput drops 90%.
        let regressed = RUNTIME.replace(
            "\"simd\":{\"iters_per_sec\":400.0}",
            "\"simd\":{\"iters_per_sec\":40.0}",
        );
        let report = compare(&base, &metrics(&regressed), None);
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
        assert!(compare(&base, &metrics(&dipped), None).passed());
        // ...but a tightened tolerance catches it.
        assert!(!compare(&base, &metrics(&dipped), Some(0.1)).passed());
    }

    #[test]
    fn missing_metrics_fail_the_gate() {
        let base = metrics(RUNTIME);
        // Current run lost the simd column entirely.
        let truncated = RUNTIME.replace(",\n         \"simd\":{\"iters_per_sec\":400.0}", "");
        let report = compare(&base, &metrics(&truncated), None);
        assert!(!report.passed());
        assert_eq!(report.missing, ["runtime.jacobi.simd.iters_per_sec"]);
    }

    #[test]
    fn seed_floor_holds_the_wide_kernel_where_the_artifact_reports_one() {
        let seed = |scalar: &str, wide: &str| {
            let doc = format!(r#"{{"seed_ns_per_value":{{"scalar":{scalar},"wide":{wide}}}}}"#);
            seed_floor(&Json::parse(&doc).unwrap())
        };
        let fast = seed("1.0", "0.4").unwrap();
        assert!(fast.ok && (fast.current - 2.5).abs() < 1e-9, "{fast:?}");
        // 0.6 of the scalar time is the ceiling; above it the gate fails.
        assert!(seed("1.0", "0.59").unwrap().ok);
        assert!(!seed("1.0", "0.7").unwrap().ok);
        // No wide kernel on the host, or no seeding column: nothing gated.
        assert!(seed("1.0", "null").is_none());
        assert!(seed_floor(&Json::parse(RUNTIME).unwrap()).is_none());
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
        }
        assert!(check_dirs(&bdir, &cdir, None).passed());

        // Corrupt the current artifact's simd column: gate fails.
        fs::write(
            cdir.join("BENCH_runtime.json"),
            RUNTIME.replace("400.0", "4.0"),
        )
        .unwrap();
        let report = check_dirs(&bdir, &cdir, None);
        assert!(!report.passed());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "runtime.jacobi.simd.iters_per_sec" && !c.ok));

        // A current side that lost the artifact fails every metric as
        // missing; an empty baseline is an error, not a silent pass.
        let empty = root.join("empty");
        fs::create_dir_all(&empty).unwrap();
        assert_eq!(check_dirs(&bdir, &empty, None).missing.len(), 3);
        assert!(!check_dirs(&empty, &cdir, None).passed());

        // A current artifact whose wide seeding kernel is too slow fails
        // against a baseline it otherwise matches.
        let slow_seed =
            RUNTIME.replacen('{', r#"{"seed_ns_per_value":{"scalar":1.0,"wide":0.9},"#, 1);
        fs::write(cdir.join("BENCH_runtime.json"), &slow_seed).unwrap();
        let report = check_dirs(&bdir, &cdir, None);
        assert_eq!(report.regressions(), 1);
        assert_eq!(
            report.checks.last().unwrap().name,
            "runtime.seed.wide_speedup"
        );
        let _ = fs::remove_dir_all(&root);
    }
}

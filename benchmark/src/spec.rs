//! The names this benchmark emits. `BENCHMARK.json` lists the same
//! names; a unit test holds the two together.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One metric: name, unit, direction.
pub type Def = (&'static str, &'static str, Better);

/// The five workloads, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 5] = [
    "stream-jacobi",
    "stream-ll18",
    "steps-small",
    "compile-cold",
    "serve-mixed",
];

/// What a user of the system sees. Every workload reports every one of
/// these from its timed pass.
pub const END_TO_END: [Def; 5] = [
    ("setup_s", "s", Lower),
    ("op_ms", "ms", Lower),
    ("op_ms_slowest", "ms", Lower),
    ("work_per_s", "1/s", Higher),
    ("peak_heap_mb", "MB", Lower),
];

/// The share of the parent's median by which an end-to-end metric may
/// get worse before a change counts as a regression. The timings sit at
/// the widest bound the contract allows: across ten runs of unchanged code
/// on the shared sandbox their quartile distance is 1-8 % of the median
/// even after the correction of [`crate::decks`], and a bound is only
/// usable at about three times that.
pub fn bound(name: &str) -> f64 {
    match name {
        "peak_heap_mb" => 0.10,
        _ => 0.25,
    }
}

/// What single layers do, from the traced pass. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: [Def; 80] = [
    // Front end, per program text.
    ("sp-ir.parse_us", "us", Lower),
    ("sp-ir.render_us", "us", Lower),
    ("sp-ir.nests", "count", Lower),
    ("sp-dep.analyze_us", "us", Lower),
    ("sp-dep.deps", "count", Lower),
    ("sp-core.plan_us", "us", Lower),
    ("sp-core.pass_us.dependence", "us", Lower),
    ("sp-core.pass_us.plan", "us", Lower),
    ("sp-core.pass_us.legality", "us", Lower),
    ("sp-core.pass_us.cost", "us", Lower),
    ("sp-core.fused_nests", "count", Higher),
    ("sp-core.shift_sum", "count", Lower),
    ("sp-core.peel_sum", "count", Lower),
    ("sp-exec.mem_new_us", "us", Lower),
    ("sp-exec.lower_us", "us", Lower),
    ("sp-exec.tape_ops", "count", Lower),
    // The run ladder, same kernel and extents on every rung.
    ("sp-exec.run_ms.simd", "ms", Lower),
    ("sp-exec.run_ms.compiled", "ms", Lower),
    ("sp-exec.run_ms.interp", "ms", Lower),
    ("sp-exec.run_ms_tail", "ms", Lower),
    ("sp-exec.unfused_run_ms", "ms", Lower),
    ("sp-exec.fusion_speedup", "ratio", Higher),
    ("sp-exec.serial_run_ms", "ms", Lower),
    ("sp-exec.par_efficiency", "ratio", Higher),
    ("sp-exec.scoped_run_ms", "ms", Lower),
    ("sp-exec.stealing_run_ms", "ms", Lower),
    ("sp-exec.step_overhead_us", "us", Lower),
    ("sp-exec.barrier_wait_share", "ratio", Lower),
    ("sp-exec.time_imbalance", "ratio", Lower),
    ("sp-exec.run_overhead_us.p1", "us", Lower),
    ("sp-exec.run_overhead_us.p2", "us", Lower),
    ("sp-exec.mem_init_ms", "ms", Lower),
    ("sp-exec.vec_iter_share", "ratio", Higher),
    ("sp-exec.peeled_iter_share", "ratio", Lower),
    ("sp-exec.bytes_per_iter", "B", Lower),
    ("sp-exec.gbytes_per_s", "GB/s", Higher),
    ("sp-kernels.manual_unfused_ms", "ms", Lower),
    ("sp-kernels.manual_fused_ms", "ms", Lower),
    ("sp-kernels.manual_unfused_par_ms", "ms", Lower),
    ("sp-kernels.manual_fused_par_ms", "ms", Lower),
    ("sp-kernels.manual_fusion_speedup", "ratio", Higher),
    ("sp-kernels.manual_gbytes_per_s", "GB/s", Higher),
    ("sp-exec.simd_over_manual", "ratio", Lower),
    ("host.copy_gbytes_per_s", "GB/s", Higher),
    ("sp-cache.layout_bytes", "B", Lower),
    ("sp-cache.partition_run_ms", "ms", Lower),
    ("sp-cache.partition_speedup", "ratio", Higher),
    // The serve and wire tiers.
    ("sp-serve.inproc_job_ms_p50", "ms", Lower),
    ("sp-serve.inproc_jobs_per_s", "1/s", Higher),
    ("sp-serve.queue_wait_us_p50", "us", Lower),
    ("sp-serve.exec_us_p50", "us", Lower),
    ("sp-serve.overhead_us_p50", "us", Lower),
    ("sp-serve.stage_share.queue_wait", "ratio", Lower),
    ("sp-serve.stage_share.cache_lookup", "ratio", Lower),
    ("sp-serve.stage_share.analysis", "ratio", Lower),
    ("sp-serve.stage_share.plan", "ratio", Lower),
    ("sp-serve.stage_share.lower", "ratio", Lower),
    ("sp-serve.stage_share.execute", "ratio", Higher),
    ("sp-serve.stage_share.respond", "ratio", Lower),
    ("sp-serve.digest_ms", "ms", Lower),
    ("sp-serve.cache_key_us", "us", Lower),
    ("sp-serve.hit_rate", "ratio", Higher),
    ("sp-serve.misses", "count", Lower),
    ("sp-serve.analysis_hits", "count", Higher),
    ("sp-serve.rejected", "count", Lower),
    ("sp-serve.hit_job_ms_p50", "ms", Lower),
    ("sp-serve.miss_job_ms_p50", "ms", Lower),
    ("sp-net.job_ms_p50", "ms", Lower),
    ("sp-net.wire_overhead_us_p50", "us", Lower),
    ("sp-net.serial_jobs_per_s", "1/s", Higher),
    ("sp-net.pipelined_jobs_per_s", "1/s", Higher),
    ("sp-net.pipelined_over_serial", "ratio", Higher),
    ("sp-net.encode_us", "us", Lower),
    ("sp-net.decode_us", "us", Lower),
    ("sp-net.bytes_per_job", "B", Lower),
    ("sp-net.dedupe_hits", "count", Lower),
    // Instrument health.
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.op_self_us", "us", Lower),
    ("bench.spans", "count", Lower),
    ("bench.ops", "count", Higher),
];

/// Values for one pass, keyed by the names of one of the tables above.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Metrics {
    /// All-zero values for `defs`.
    pub fn zeroed(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets one value.
    ///
    /// # Panics
    /// Panics on a name the table does not hold: a misspelt metric is a
    /// bug in the harness, not something to emit.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    /// `(name, unit, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, &v)| (d.0, d.1, v))
    }

    /// One value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The `"name": "..."` values of the array under `key` in
    /// `BENCHMARK.json`, in file order.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[at..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_emitted() {
        let json = include_str!("../../BENCHMARK.json");
        let table = |defs: &[Def]| defs.iter().map(|d| d.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names_under(json, "workloads"), WORKLOADS);
        assert_eq!(names_under(json, "end_to_end"), table(&END_TO_END));
        assert_eq!(names_under(json, "per_layer"), table(&PER_LAYER));
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let mut entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                better.name()
            );
            if END_TO_END.iter().any(|d| d.0 == *name) {
                entry.push_str(&format!(", \"bound\": {}}}", bound(name)));
            } else {
                entry.push('}');
            }
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn a_misspelt_metric_is_refused() {
        Metrics::zeroed(&END_TO_END).set("setup_ms", 1.0);
    }
}

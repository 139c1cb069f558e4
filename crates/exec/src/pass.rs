//! The bridge exporting `shift-peel-core`'s planning [`PassTimings`]
//! through the sp-trace metrics registry.

use shift_peel_core::PassTimings;
use sp_trace::MetricsRegistry;

/// Exports per-stage planning time as `spfc_pass_nanos{pass=...}` so
/// `spfc run --metrics-out` and the serve tier expose where planning time
/// goes.
pub fn register_pass_metrics(reg: &mut MetricsRegistry, timings: &PassTimings) {
    for t in &timings.passes {
        reg.labeled_counter(
            "spfc_pass_nanos",
            "Planning time per planner stage",
            ("pass", t.pass),
            t.nanos,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_metrics_render_one_family() {
        let mut timings = PassTimings::default();
        timings.passes.push(shift_peel_core::PassTiming {
            pass: "dependence",
            nanos: 120,
        });
        timings.passes.push(shift_peel_core::PassTiming {
            pass: "plan",
            nanos: 0,
        });
        let mut reg = MetricsRegistry::new(&[]);
        register_pass_metrics(&mut reg, &timings);
        let text = reg.to_prometheus();
        assert!(
            text.contains("spfc_pass_nanos{pass=\"dependence\"} 120\n"),
            "{text}"
        );
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE spfc_pass_nanos "))
            .count();
        assert_eq!(headers, 1, "{text}");
    }
}

//! sp-exec's contribution to the `shift-peel-core` pass pipeline: the
//! bridge exporting [`PassTimings`] through the sp-trace metrics
//! registry.

use shift_peel_core::PassTimings;
use sp_trace::MetricsRegistry;

/// Exports per-pass planning time as `spfc_pass_nanos{pass=...}` (plus
/// `spfc_pass_reused{pass=...}` flagging artifacts served from the
/// store) so `spfc run --metrics-out` and the serve tier expose where
/// planning time goes.
pub fn register_pass_metrics(reg: &mut MetricsRegistry, timings: &PassTimings) {
    for t in &timings.passes {
        reg.labeled_counter(
            "spfc_pass_nanos",
            "Planning time per pipeline pass",
            ("pass", t.pass),
            t.nanos,
        );
        reg.labeled_counter(
            "spfc_pass_reused",
            "1 when the pass artifact was reused from the store",
            ("pass", t.pass),
            u64::from(t.reused),
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
            reused: false,
        });
        timings.passes.push(shift_peel_core::PassTiming {
            pass: "plan",
            nanos: 0,
            reused: true,
        });
        let mut reg = MetricsRegistry::new(&[]);
        register_pass_metrics(&mut reg, &timings);
        let text = reg.to_prometheus();
        assert!(
            text.contains("spfc_pass_nanos{pass=\"dependence\"} 120\n"),
            "{text}"
        );
        assert!(
            text.contains("spfc_pass_reused{pass=\"plan\"} 1\n"),
            "{text}"
        );
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE spfc_pass_nanos "))
            .count();
        assert_eq!(headers, 1, "{text}");
    }
}

//! sp-exec's contributions to the `shift-peel-core` pass pipeline:
//! the lane-safety analysis as a registrable [`Pass`], and the bridge
//! exporting [`PassTimings`] through the sp-trace metrics registry.

use crate::lower::analyze_lane_safety;
use shift_peel_core::{
    AnalysisArtifacts, LegalityError, Pass, PassRequest, PassTimings, PlanObserver,
};
use sp_cache::MemoryLayout;
use sp_trace::MetricsRegistry;
use std::any::Any;
use std::sync::Arc;

/// The name the lane-safety artifact is stored under.
pub const LANE_SAFETY_PASS: &str = "lane-safety";

/// Decides, per nest, whether the SIMD backend's row runner may
/// execute inner iterations a chunk at a time (see
/// [`analyze_lane_safety`]). The artifact is a `Vec<bool>` indexed by
/// nest. Layout-bound: the fingerprint covers the full
/// [`MemoryLayout`], so a padding or placement change invalidates the
/// artifact while leaving the dependence artifact untouched.
#[derive(Clone, Debug)]
pub struct LaneSafetyPass {
    layout: MemoryLayout,
}

impl LaneSafetyPass {
    /// A lane-safety pass bound to `layout`.
    pub fn new(layout: MemoryLayout) -> Self {
        LaneSafetyPass { layout }
    }
}

impl Pass for LaneSafetyPass {
    fn name(&self) -> &'static str {
        LANE_SAFETY_PASS
    }

    fn fingerprint(&self, _req: &PassRequest<'_>) -> String {
        format!("layout={:?}", self.layout)
    }

    fn run(
        &self,
        req: &PassRequest<'_>,
        _store: &AnalysisArtifacts,
        _obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
        Ok(Arc::new(analyze_lane_safety(req.seq, &self.layout)))
    }
}

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
    use crate::tape::ProgramTape;
    use shift_peel_core::{NullObserver, PlanConfig};
    use sp_cache::{LayoutStrategy, MemoryLayout};
    use sp_ir::SeqBuilder;

    fn stencil_seq() -> sp_ir::LoopSequence {
        let mut b = SeqBuilder::new("lane");
        let a = b.array("a", [64]);
        let c = b.array("c", [64]);
        b.nest("L1", [(1, 62)], |x| {
            let s = x.ld(a, [-1]) + x.ld(a, [1]);
            x.assign(c, [0], s);
        });
        b.nest("L2", [(1, 62)], |x| {
            let v = x.ld(c, [0]);
            x.assign(a, [0], v);
        });
        b.finish()
    }

    #[test]
    fn pass_verdicts_match_lowered_tapes() {
        let seq = stencil_seq();
        let layout = MemoryLayout::build(&seq.arrays, 8, LayoutStrategy::Contiguous, 0);
        let tape = ProgramTape::lower(&seq, &layout);
        let from_tape: Vec<bool> = tape.nests.iter().map(|n| n.lane_safe).collect();
        assert_eq!(analyze_lane_safety(&seq, &layout), from_tape);

        let mut store = AnalysisArtifacts::new();
        let req = PassRequest {
            seq: &seq,
            config: &PlanConfig::fused(1),
            profit: None,
        };
        let p = LaneSafetyPass::new(layout);
        let got = p.run(&req, &store, &mut NullObserver).unwrap();
        let got = got.downcast::<Vec<bool>>().unwrap();
        assert_eq!(*got, from_tape);
        store.seed(
            LANE_SAFETY_PASS,
            shift_peel_core::ArtifactKey(1),
            got.clone(),
        );
        assert_eq!(store.get::<Vec<bool>>(LANE_SAFETY_PASS), Some(got));
    }

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

//! Planning: the paper's derivation as two calls in a row.
//!
//! Dependence distances feed Figure 8's shift/peel traversal; the plan
//! is a function of the program and the [`PlanConfig`] alone. Theorem
//! 1's block-size condition needs a processor grid, so it is not checked
//! here: the executor fits every group's blocks to `Nt` and checks them
//! where the grid is known. [`Planner::plan_with`] calls the two stages
//! in order, timing each into [`PassTimings`] under its [`pass`] name. A
//! caller that already holds the dependence analysis (the serve tier's
//! analysis cache) hands it in, and planning starts from the second
//! stage.
//!
//! Every traced and untraced plan goes through one path with a
//! [`PlanObserver`]. The untraced default ([`NullObserver`]) reports
//! that it wants no events, so the planning stage skips event
//! construction entirely and allocates nothing extra, while an
//! [`ExplainTrace`] observer receives the full event stream (pinned by
//! the `spfc explain` golden).

use crate::explain::{ExplainEvent, ExplainTrace};
use crate::legality::LegalityError;
use crate::plan::{fusion_plan_observed, singleton_plan, CodegenMethod, FusionPlan, PlanConfig};
use crate::profit::ProfitabilityModel;
use sp_dep::SequenceDeps;
use sp_ir::LoopSequence;
use std::sync::Arc;
use std::time::Instant;

/// Names of the planning stages, as [`PassTimings`] records them.
pub mod pass {
    /// Dependence analysis of the whole sequence (`sp-dep`).
    pub const DEPENDENCE: &str = "dependence";
    /// Greedy group growth + shift/peel derivation (the fusion plan).
    pub const PLAN: &str = "plan";
    /// A retired stage: nothing records it, so its timing is absent.
    /// Kept because `benchmark/`'s front-end workload names it.
    pub const LEGALITY: &str = "legality";
    /// A retired stage: nothing records it, so its timing is absent.
    /// Kept because `benchmark/`'s front-end workload names it.
    pub const COST: &str = "cost";
}

/// 64-bit FNV-1a, the one hash of text and keys in the workspace (cache
/// keys in `sp-serve`, program digests in `sp-net`,
/// the tape's layout fingerprint; array *values* are hashed by
/// `sp_exec::WordDigest`). Small, dependency-free, and stable across
/// platforms — collision resistance only has to beat accidental aliasing
/// among a handful of programs, not an adversary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] fed piece by piece: the digest of the concatenation of
/// everything written, without the concatenation ever existing.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of the empty string.
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Appends `bytes` to the hashed string.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes text as it is formatted, so a keyed text never has to be
/// assembled just to be hashed. Never fails.
impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Observes a planning run: the structured explain events of the plan
/// stage.
///
/// [`PlanObserver::wants_events`] gates event delivery so the untraced
/// path ([`NullObserver`]) constructs no events at all; an
/// [`ExplainTrace`] observer receives every event.
pub trait PlanObserver {
    /// Whether [`PlanObserver::event`] calls should be made. The plan
    /// stage skips event construction entirely when this is `false` (the
    /// default).
    fn wants_events(&self) -> bool {
        false
    }

    /// One structured planning decision (see [`ExplainEvent`]).
    fn event(&mut self, _e: ExplainEvent) {}
}

/// The no-op observer: wants no events, records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl PlanObserver for NullObserver {}

/// Per-stage wall time of one planning run, in stage order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassTimings {
    /// One entry per stage.
    pub passes: Vec<PassTiming>,
}

/// Wall time of one stage in one planning run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassTiming {
    /// The stage name (one of [`pass`]).
    pub pass: &'static str,
    /// Nanoseconds the stage took (0 for a supplied analysis).
    pub nanos: u64,
}

impl PassTimings {
    /// The timing entry for `pass`, if it ran.
    pub fn timing_of(&self, pass: &str) -> Option<&PassTiming> {
        self.passes.iter().find(|t| t.pass == pass)
    }

    /// Runs `stage`, recording its wall time under `pass`.
    fn time<T>(&mut self, pass: &'static str, stage: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = stage();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.passes.push(PassTiming { pass, nanos });
        out
    }
}

/// The plan stage: greedy fusion with shift/peel derivation when
/// `config.fuse` is on (reporting every decision to `obs`), the singleton
/// baseline otherwise. [`Planner`] and `sp-exec`'s `Program` both derive
/// their plans here.
pub fn plan_stage(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    config: &PlanConfig,
    profit: Option<&ProfitabilityModel>,
    obs: &mut dyn PlanObserver,
) -> Result<FusionPlan, LegalityError> {
    if config.fuse {
        fusion_plan_observed(seq, deps, config.levels, config.method, profit, obs)
    } else {
        singleton_plan(seq, deps, config.levels)
    }
}

/// The one planning entry point: a builder over [`PlanConfig`] (mirroring
/// `sp-exec`'s `RunConfig` style) that runs the two stages and returns
/// what they derive.
///
/// ```
/// # use shift_peel_core::pipeline::Planner;
/// # use sp_ir::SeqBuilder;
/// # let mut b = SeqBuilder::new("ex");
/// # let a = b.array("a", [16]);
/// # let c = b.array("c", [16]);
/// # b.nest("L1", [(1, 14)], |x| { let r = x.ld(a, [0]); x.assign(c, [0], r); });
/// # b.nest("L2", [(1, 14)], |x| { let r = x.ld(c, [1]); x.assign(a, [0], r); });
/// # let seq = b.finish();
/// let planned = Planner::fused(1).plan(&seq).unwrap();
/// assert_eq!(planned.plan.fused_group_count(), 1);
/// ```
#[derive(Debug)]
pub struct Planner {
    config: PlanConfig,
    profit: Option<ProfitabilityModel>,
}

/// Everything one planning run derives, shared-ownership so callers and
/// caches alike can hold it without cloning the data.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The dependence analysis.
    pub deps: Arc<SequenceDeps>,
    /// The fusion plan.
    pub plan: Arc<FusionPlan>,
    /// Per-stage wall time of this run.
    pub timings: PassTimings,
}

impl Planner {
    /// A planner over an explicit configuration.
    pub fn new(config: PlanConfig) -> Self {
        Planner {
            config,
            profit: None,
        }
    }

    /// Greedy fusion of the first `levels` dimensions (the default
    /// method).
    pub fn fused(levels: usize) -> Self {
        Planner::new(PlanConfig::fused(levels))
    }

    /// The unfused singleton baseline over `levels` dimensions.
    pub fn unfused(levels: usize) -> Self {
        Planner::new(PlanConfig::unfused(levels))
    }

    /// Replaces the codegen method.
    pub fn method(mut self, method: CodegenMethod) -> Self {
        self.config = self.config.method(method);
        self
    }

    /// Limits group growth with a profitability model (Section 6).
    pub fn profit(mut self, model: ProfitabilityModel) -> Self {
        self.profit = Some(model);
        self
    }

    /// Analyses and plans `seq`, untraced.
    pub fn plan(&self, seq: &LoopSequence) -> Result<Planned, LegalityError> {
        self.plan_with(seq, None, &mut NullObserver)
    }

    /// Plans `seq` with an explicit observer. Supplied `deps` are taken
    /// as they are — the caller vouches that they describe `seq` — and
    /// recorded as a `dependence` stage of 0 ns; without them the stage
    /// analyses `seq`.
    pub fn plan_with(
        &self,
        seq: &LoopSequence,
        deps: Option<Arc<SequenceDeps>>,
        obs: &mut dyn PlanObserver,
    ) -> Result<Planned, LegalityError> {
        let mut timings = PassTimings::default();
        let deps = match deps {
            Some(deps) => {
                timings.passes.push(PassTiming {
                    pass: pass::DEPENDENCE,
                    nanos: 0,
                });
                deps
            }
            None => Arc::new(
                timings
                    .time(pass::DEPENDENCE, || sp_dep::analyze_sequence(seq))
                    .map_err(|e| {
                        LegalityError::Derive(crate::derive::DeriveError::Analysis(e.to_string()))
                    })?,
            ),
        };
        let plan = Arc::new(timings.time(pass::PLAN, || {
            plan_stage(seq, &deps, &self.config, self.profit.as_ref(), obs)
        })?);
        Ok(Planned {
            deps,
            plan,
            timings,
        })
    }

    /// Plans `seq` with full decision tracing: the returned
    /// [`ExplainTrace`] carries the event stream `spfc explain` renders.
    pub fn explain(&self, seq: &LoopSequence) -> Result<(Planned, ExplainTrace), LegalityError> {
        let mut trace = ExplainTrace::new();
        let planned = self.plan_with(seq, None, &mut trace)?;
        Ok((planned, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn fig9(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("fig9");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(c, [1]) + x.ld(c, [-1]);
            x.assign(d, [0], r);
        });
        b.finish()
    }

    #[test]
    fn planner_matches_free_function_path() {
        let seq = fig9(64);
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let direct =
            crate::plan::fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        let planned = Planner::fused(1).plan(&seq).unwrap();
        assert_eq!(*planned.plan, direct);
        // Both stages ran exactly once, in order.
        let names: Vec<_> = planned.timings.passes.iter().map(|t| t.pass).collect();
        assert_eq!(names, vec![pass::DEPENDENCE, pass::PLAN]);
    }

    #[test]
    fn unfused_planner_matches_singleton_plan() {
        let seq = fig9(64);
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let planned = Planner::unfused(1).plan(&seq).unwrap();
        assert_eq!(*planned.plan, singleton_plan(&seq, &deps, 1).unwrap());
    }

    #[test]
    fn a_supplied_analysis_is_planned_from_as_is() {
        let seq = fig9(64);
        let planner = Planner::fused(1).profit(ProfitabilityModel::new(32 * 1024, 4));
        let supplied = Arc::new(sp_dep::analyze_sequence(&seq).unwrap());
        let planned = planner
            .plan_with(&seq, Some(Arc::clone(&supplied)), &mut NullObserver)
            .unwrap();
        assert!(Arc::ptr_eq(&planned.deps, &supplied), "not re-analysed");
        assert_eq!(
            planned.timings.timing_of(pass::DEPENDENCE).unwrap().nanos,
            0
        );
        let fresh = planner.plan(&seq).unwrap();
        assert_eq!(*planned.plan, *fresh.plan);
    }

    #[test]
    fn explain_observer_receives_plan_events() {
        let seq = fig9(32);
        let (planned, trace) = Planner::fused(1).explain(&seq).unwrap();
        assert_eq!(planned.plan.groups.len(), 1);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, ExplainEvent::Threshold { .. })));
    }
}

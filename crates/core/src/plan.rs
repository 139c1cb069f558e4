//! Fusion planning: partitioning a sequence into fusible groups.
//!
//! Candidate loop nests are treated *collectively* (Section 3.3): the
//! planner walks the sequence in program order and greedily grows a
//! fusible group, closing it when the next nest cannot legally join —
//! because a dependence with a group member is non-uniform in a fused
//! dimension, because the nest is serial in a fused dimension, or because
//! a profitability model (Section 6) vetoes further fusion.

use crate::derive::{derive_dim, derive_dim_observed, Derivation};
use crate::explain::{ExplainEvent, JoinBlocker};
use crate::legality::LegalityError;
use crate::pipeline::{NullObserver, PlanObserver};
use crate::profit::ProfitabilityModel;
use sp_dep::{DepMultigraph, SequenceDeps};
use sp_ir::LoopSequence;

/// How the fused loop body is realized (Section 3.4, Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CodegenMethod {
    /// Strip-mine each nest, fuse the controlling loops (Figure 11(b)).
    /// The paper's preferred method: subscripts unchanged, lower register
    /// pressure, strip size controls cache footprint.
    #[default]
    StripMined,
    /// Combine bodies directly with guards and shifted subscripts
    /// (Figure 11(a)).
    Direct,
}

/// A maximal group of consecutive nests that will be fused together.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedGroup {
    /// Nest indices `[start, end)` within the original sequence.
    pub start: usize,
    /// One past the last member.
    pub end: usize,
    /// Shift/peel amounts for the group's members (indexed relative to
    /// `start`).
    pub derivation: Derivation,
}

impl FusedGroup {
    /// Number of member nests.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for singleton groups (no fusion happens).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member nest indices.
    pub fn members(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A fusion plan for a whole sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct FusionPlan {
    /// Number of fused loop levels.
    pub levels: usize,
    /// The groups, in program order, covering every nest exactly once.
    pub groups: Vec<FusedGroup>,
    /// Code generation method to use.
    pub method: CodegenMethod,
}

impl FusionPlan {
    /// Number of groups with more than one member (actual fusions).
    pub fn fused_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.len() > 1).count()
    }

    /// Length of the longest group (the paper's Table 1 "longest
    /// sequence" column).
    pub fn longest_group(&self) -> usize {
        self.groups.iter().map(|g| g.len()).max().unwrap_or(0)
    }

    /// Largest shift over all groups and dimensions (Table 1).
    pub fn max_shift(&self) -> i64 {
        self.groups
            .iter()
            .map(|g| g.derivation.max_shift())
            .max()
            .unwrap_or(0)
    }

    /// Largest peel over all groups and dimensions (Table 1).
    pub fn max_peel(&self) -> i64 {
        self.groups
            .iter()
            .map(|g| g.derivation.max_peel())
            .max()
            .unwrap_or(0)
    }
}

/// Derives a [`Derivation`] for the subsequence `[start, end)` using
/// per-dimension multigraphs restricted to that window. When the
/// observer wants events, every traversal step is recorded with
/// absolute nest indices.
fn derive_window(
    deps: &SequenceDeps,
    start: usize,
    end: usize,
    levels: usize,
    obs: &mut dyn PlanObserver,
) -> Result<Derivation, LegalityError> {
    let n = end - start;
    let mut dims = Vec::with_capacity(levels);
    for level in 0..levels {
        let g = DepMultigraph::build_window(deps, start, end, level);
        let dim = if obs.wants_events() {
            derive_dim_observed(&g, start, obs)
        } else {
            derive_dim(&g)
        }
        .map_err(LegalityError::Derive)?;
        dims.push(dim);
    }
    Ok(Derivation { n, dims })
}

/// Why nest `k` cannot join the current group `[start, k)` — or `None`
/// when it can: the nest must be parallel in all fused levels and all its
/// dependences with group members must be uniform in those levels.
pub fn join_blocker(
    deps: &SequenceDeps,
    start: usize,
    k: usize,
    levels: usize,
) -> Option<JoinBlocker> {
    if let Some(level) = deps.nests[k].parallel.iter().take(levels).position(|&p| !p) {
        return Some(JoinBlocker::Serial { nest: k, level });
    }
    for d in &deps.inter {
        if d.dst_nest == k && d.src_nest >= start && !d.uniform_in(levels) {
            let level = d
                .dist
                .iter()
                .take(levels)
                .position(|x| x.is_none())
                .unwrap_or(0);
            return Some(JoinBlocker::NonUniform {
                src: d.src_nest,
                dst: k,
                level,
            });
        }
    }
    None
}

/// Builds a fusion plan for the first `levels` loop levels of `seq`.
///
/// `profit` optionally limits group growth: when it reports that fusing
/// more nests stops being profitable (e.g. too many distinct arrays for
/// the cache partitioning to keep conflict-free), the group is closed.
pub fn fusion_plan(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    levels: usize,
    method: CodegenMethod,
    profit: Option<&ProfitabilityModel>,
) -> Result<FusionPlan, LegalityError> {
    fusion_plan_observed(seq, deps, levels, method, profit, &mut NullObserver)
}

/// [`fusion_plan`] with every planning decision reported to `obs` (when
/// it wants events): group opens/closes, accepted and rejected joins
/// (with the precise [`JoinBlocker`]), every derivation traversal step,
/// and Theorem 1's iteration-count-threshold check per fused dimension
/// of each multi-member group. Produces exactly the plan
/// [`fusion_plan`] would; this is the single planning path behind both
/// the untraced API and `spfc explain`.
pub(crate) fn fusion_plan_observed(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    levels: usize,
    method: CodegenMethod,
    profit: Option<&ProfitabilityModel>,
    obs: &mut dyn PlanObserver,
) -> Result<FusionPlan, LegalityError> {
    if levels < 1 || levels > deps.depth {
        return Err(LegalityError::BadLevels {
            levels,
            depth: deps.depth,
        });
    }
    let n = seq.len();
    let mut groups = Vec::new();
    let mut start = 0usize;
    // A nest that is itself serial in a fused level forms a singleton
    // group (it is left unfused and runs as in the original program).
    while start < n {
        if obs.wants_events() {
            obs.event(ExplainEvent::GroupStart { start });
        }
        let mut end = start + 1;
        let first_blocker = join_blocker(deps, start, start, levels);
        match first_blocker {
            Some(blocker) => {
                // The opening nest itself is serial: singleton group.
                if obs.wants_events() {
                    obs.event(ExplainEvent::JoinRejected { blocker });
                }
            }
            None => {
                while end < n {
                    if let Some(blocker) = join_blocker(deps, start, end, levels) {
                        if obs.wants_events() {
                            obs.event(ExplainEvent::JoinRejected { blocker });
                        }
                        break;
                    }
                    if let Some(p) = profit {
                        if !p.profitable_to_grow(seq, start, end + 1) {
                            if obs.wants_events() {
                                obs.event(ExplainEvent::JoinRejected {
                                    blocker: JoinBlocker::Unprofitable { nest: end },
                                });
                            }
                            break;
                        }
                    }
                    if obs.wants_events() {
                        obs.event(ExplainEvent::JoinAccepted { nest: end });
                    }
                    end += 1;
                }
            }
        }
        let derivation = derive_window(deps, start, end, levels, obs)?;
        if obs.wants_events() {
            if end - start > 1 {
                let members: Vec<usize> = (start..end).collect();
                let range = crate::schedule::global_fused_range(seq, &members, levels)?;
                for dim in &derivation.dims {
                    let (lo, hi) = range[dim.level];
                    let trip = hi - lo + 1;
                    let nt = dim.nt();
                    obs.event(ExplainEvent::Threshold {
                        level: dim.level,
                        trip,
                        nt,
                        max_procs: crate::legality::max_procs(trip, nt),
                    });
                }
            }
            obs.event(ExplainEvent::GroupClosed { start, end });
        }
        groups.push(FusedGroup {
            start,
            end,
            derivation,
        });
        start = end;
    }
    Ok(FusionPlan {
        levels,
        groups,
        method,
    })
}

/// Everything that determines *which* [`FusionPlan`] a sequence gets —
/// the planner inputs, separated from the execution-time knobs (grid
/// shape, strip size) that do not change the derived artifact.
///
/// This is the planning half of a content-addressed cache key: two runs
/// with equal sequences and equal `PlanConfig`s derive identical plans,
/// so the plan (and any tape lowered from it) can be reused. The strip
/// size is deliberately *not* part of the config — strip-mining happens
/// at execution time and never alters shifts, peels, or grouping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanConfig {
    /// Number of fused loop levels.
    pub levels: usize,
    /// Fuse greedily (`fusion_plan`) or keep every nest a singleton
    /// (`singleton_plan`, the unfused baseline).
    pub fuse: bool,
    /// Code generation method for fused groups.
    pub method: CodegenMethod,
}

impl PlanConfig {
    /// A fused plan over `levels` dimensions with the default method.
    pub fn fused(levels: usize) -> Self {
        PlanConfig {
            levels,
            fuse: true,
            method: CodegenMethod::default(),
        }
    }

    /// The unfused singleton baseline over `levels` dimensions.
    pub fn unfused(levels: usize) -> Self {
        PlanConfig {
            levels,
            fuse: false,
            method: CodegenMethod::default(),
        }
    }

    /// Replaces the codegen method.
    pub fn method(mut self, method: CodegenMethod) -> Self {
        self.method = method;
        self
    }
}

/// The canonical rendering, for content hashing (keys write it straight
/// into their hasher): every field is spelled out so that adding a field
/// later forces a deliberate decision about cache-key compatibility.
impl std::fmt::Display for PlanConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let method = match self.method {
            CodegenMethod::StripMined => "strip-mined",
            CodegenMethod::Direct => "direct",
        };
        write!(
            f,
            "levels={} fuse={} method={method}",
            self.levels, self.fuse
        )
    }
}

/// A plan with every nest in its own group — the *unfused* original
/// program (each nest blocked across processors with a barrier after it).
/// Used as the baseline in all experiments.
pub fn singleton_plan(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    levels: usize,
) -> Result<FusionPlan, LegalityError> {
    if levels < 1 || levels > deps.depth {
        return Err(LegalityError::BadLevels {
            levels,
            depth: deps.depth,
        });
    }
    let groups = (0..seq.len())
        .map(|k| FusedGroup {
            start: k,
            end: k + 1,
            derivation: Derivation {
                n: 1,
                dims: (0..levels)
                    .map(|level| crate::derive::DimDerivation {
                        level,
                        shifts: vec![0],
                        peels: vec![0],
                    })
                    .collect(),
            },
        })
        .collect();
    Ok(FusionPlan {
        levels,
        groups,
        method: CodegenMethod::StripMined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    #[test]
    fn whole_sequence_fuses_when_uniform() {
        let n = 64usize;
        let mut b = SeqBuilder::new("chain");
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
        let seq = b.finish();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.longest_group(), 3);
        assert_eq!(plan.max_shift(), 2);
        assert_eq!(plan.max_peel(), 2);
    }

    #[test]
    fn serial_nest_becomes_singleton() {
        let n = 64usize;
        let mut b = SeqBuilder::new("mixed");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(c, [0]);
            x.assign(a, [0], r);
        });
        // Serial recurrence in the middle.
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(d, [-1]) + x.ld(a, [0]);
            x.assign(d, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(d, [0]);
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        let sizes: Vec<usize> = plan.groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1]);
        assert_eq!(plan.fused_group_count(), 0);
    }

    #[test]
    fn nonuniform_dependence_breaks_group() {
        use sp_ir::{AffineExpr, ArrayRef};
        let n = 64usize;
        let mut b = SeqBuilder::new("nonuni");
        let a = b.array("a", [2 * n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            let r = x.ld(d, [0]);
            x.assign(a, [0], r);
        });
        // Reads a[2i]: non-uniform against L1's write a[i].
        b.nest("L2", [(0, n as i64 - 1)], |x| {
            let r = x.ld_ref(ArrayRef::new(a, vec![AffineExpr::new(vec![2], 0)]));
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        let sizes: Vec<usize> = plan.groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![1, 1]);
    }

    #[test]
    fn plan_config_selects_planner_and_renders_stably() {
        let n = 64usize;
        let mut b = SeqBuilder::new("cfg");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(a, [0]);
            x.assign(c, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(c, [1]);
            x.assign(d, [0], r);
        });
        let seq = b.finish();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let plan = |cfg: PlanConfig| {
            crate::pipeline::plan_stage(&seq, &deps, &cfg, None, &mut NullObserver).unwrap()
        };
        let fused = plan(PlanConfig::fused(1));
        assert_eq!(fused.fused_group_count(), 1);
        let unfused = plan(PlanConfig::unfused(1));
        assert_eq!(unfused.fused_group_count(), 0);
        assert_eq!(unfused, singleton_plan(&seq, &deps, 1).unwrap());
        // The canonical text distinguishes every field: it is the
        // planning half of a cache key.
        assert_eq!(
            PlanConfig::fused(1).to_string(),
            "levels=1 fuse=true method=strip-mined"
        );
        assert_ne!(
            PlanConfig::fused(1).to_string(),
            PlanConfig::unfused(1).to_string()
        );
        assert_ne!(
            PlanConfig::fused(1).to_string(),
            PlanConfig::fused(2).to_string()
        );
        assert_ne!(
            PlanConfig::fused(1).to_string(),
            PlanConfig::fused(1)
                .method(CodegenMethod::Direct)
                .to_string()
        );
    }

    #[test]
    fn group_derivation_uses_window_indices() {
        // L1 serial; L2, L3 fusible with shift 1 on the second member.
        let n = 64usize;
        let mut b = SeqBuilder::new("window");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(a, [-1]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [0]);
            x.assign(c, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(c, [1]);
            x.assign(d, [0], r);
        });
        let seq = b.finish();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        assert_eq!(plan.groups.len(), 2);
        let g = &plan.groups[1];
        assert_eq!((g.start, g.end), (1, 3));
        assert_eq!(g.derivation.dims[0].shifts, vec![0, 1]);
    }
}

//! Pass-level decision tracing: *why* the derivation and planning passes
//! decided what they did.
//!
//! The numeric passes ([`crate::derive`], [`crate::plan`]) answer *what*
//! — shift/peel amounts, group boundaries. This module records the
//! *reasoning* as structured [`ExplainEvent`]s: every dependence-chain
//! edge visited by the Figure-8 traversal with its contribution, every
//! nest accepted into or rejected from a fusible group with the precise
//! blocker, and Theorem 1's iteration-count-threshold check per fused
//! dimension. [`ExplainTrace::render`] turns the event stream into the
//! text shown by `spfc explain`; tests pin that text as a golden file so
//! any change to the decision logic surfaces as a reviewable diff.
//!
//! Tracing is strictly opt-in: [`ExplainTrace`] implements the
//! pipeline's [`PlanObserver`] and *wants* events, while the untraced
//! [`crate::plan::fusion_plan`] path runs with the event-less
//! [`crate::pipeline::NullObserver`] and records nothing and allocates
//! nothing extra.

use crate::pipeline::PlanObserver;
use sp_dep::DepKind;
use sp_ir::{ArrayId, LoopSequence};
use std::fmt::Write as _;

/// Which half of the derivation an edge visit belongs to: the shift pass
/// (min-reduced graph, negative edges contribute) or the peel pass
/// (max-reduced graph, positive edges contribute).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DerivePass {
    /// Shift derivation (Figure 9).
    Shift,
    /// Peel derivation (Figure 10).
    Peel,
}

impl DerivePass {
    /// Lower-case label used in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            DerivePass::Shift => "shift",
            DerivePass::Peel => "peel",
        }
    }
}

/// Why a nest could not join the fusible group being grown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinBlocker {
    /// The nest carries a dependence in a fused level (not `doall`).
    Serial {
        /// The rejected nest.
        nest: usize,
        /// The offending fused level.
        level: usize,
    },
    /// A dependence from a group member has no uniform distance in a
    /// fused level (Section 3.3 requires uniform distances).
    NonUniform {
        /// The group member the dependence comes from.
        src: usize,
        /// The rejected nest.
        dst: usize,
        /// The offending fused level.
        level: usize,
    },
    /// The profitability model vetoed further growth (Section 6).
    Unprofitable {
        /// The rejected nest.
        nest: usize,
    },
}

impl JoinBlocker {
    /// The nest that failed to join.
    pub fn nest(&self) -> usize {
        match self {
            JoinBlocker::Serial { nest, .. } => *nest,
            JoinBlocker::NonUniform { dst, .. } => *dst,
            JoinBlocker::Unprofitable { nest } => *nest,
        }
    }
}

/// One structured decision event, in pass order.
#[derive(Clone, Debug, PartialEq)]
pub enum ExplainEvent {
    /// The planner opened a new group at `start`.
    GroupStart {
        /// First member nest.
        start: usize,
    },
    /// `nest` joined the open group.
    JoinAccepted {
        /// The admitted nest.
        nest: usize,
    },
    /// A nest could not join (or could not even start a multi-member
    /// group); the group closes before it.
    JoinRejected {
        /// The precise reason.
        blocker: JoinBlocker,
    },
    /// The open group closed as `[start, end)`.
    GroupClosed {
        /// First member.
        start: usize,
        /// One past the last member.
        end: usize,
    },
    /// The Figure-8 traversal visited one reduced edge and updated (or
    /// kept) the sink's vertex weight.
    EdgeVisit {
        /// Shift or peel pass.
        pass: DerivePass,
        /// Fused dimension.
        level: usize,
        /// Source nest (absolute index in the sequence).
        src: usize,
        /// Sink nest (absolute index).
        dst: usize,
        /// Reduced dependence distance along this dimension.
        weight: i64,
        /// Flow / anti / output.
        kind: DepKind,
        /// Array carrying the dependence.
        array: ArrayId,
        /// `w(src) + clamp(weight)`: the value offered to the sink.
        contribution: i64,
        /// The sink's vertex weight after this visit.
        weight_after: i64,
        /// True when the contribution improved (replaced) the sink weight.
        taken: bool,
    },
    /// A group's derivation finished for one fused dimension.
    DimDerived {
        /// Fused dimension.
        level: usize,
        /// First member of the group the amounts index into.
        start: usize,
        /// Final shifts (non-negative).
        shifts: Vec<i64>,
        /// Final peels (non-negative).
        peels: Vec<i64>,
        /// Iteration count threshold `max_k (shift_k + peel_k)`.
        nt: i64,
    },
    /// Theorem 1's block-size check for one fused dimension of a
    /// multi-member group: with `trip` iterations and threshold `nt`,
    /// at most `max_procs` processors keep every block legal.
    Threshold {
        /// Fused dimension.
        level: usize,
        /// Trip count of the group's fused range in this dimension.
        trip: i64,
        /// Iteration count threshold.
        nt: i64,
        /// `floor(trip / nt)` clamped to at least 1 (`usize::MAX` when
        /// `nt = 0`: any processor count works).
        max_procs: usize,
    },
}

/// An ordered stream of [`ExplainEvent`]s from one planning run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplainTrace {
    /// The events, in the order the passes produced them.
    pub events: Vec<ExplainEvent>,
}

impl ExplainTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: ExplainEvent) {
        self.events.push(e);
    }

    /// All rejection blockers, in order.
    pub fn rejections(&self) -> impl Iterator<Item = &JoinBlocker> {
        self.events.iter().filter_map(|e| match e {
            ExplainEvent::JoinRejected { blocker } => Some(blocker),
            _ => None,
        })
    }

    /// Number of edge visits recorded for `pass`.
    pub fn edge_visits(&self, pass: DerivePass) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ExplainEvent::EdgeVisit { pass: p, .. } if *p == pass))
            .count()
    }

    /// Renders the event stream as the indented text `spfc explain`
    /// prints. `seq` supplies nest labels and array names.
    pub fn render(&self, seq: &LoopSequence) -> String {
        let lab = |k: usize| seq.nests[k].label.as_str();
        let arr = |a: ArrayId| seq.arrays[a.index()].name.as_str();
        let mut out = String::new();
        for e in &self.events {
            match e {
                ExplainEvent::GroupStart { start } => {
                    let _ = writeln!(out, "group @ {}:", lab(*start));
                }
                ExplainEvent::JoinAccepted { nest } => {
                    let _ = writeln!(out, "  + {} joins", lab(*nest));
                }
                ExplainEvent::JoinRejected { blocker } => match blocker {
                    JoinBlocker::Serial { nest, level } => {
                        let _ = writeln!(
                            out,
                            "  - {} rejected: serial in fused level {level}",
                            lab(*nest)
                        );
                    }
                    JoinBlocker::NonUniform { src, dst, level } => {
                        let _ = writeln!(
                            out,
                            "  - {} rejected: non-uniform dependence from {} in level {level}",
                            lab(*dst),
                            lab(*src)
                        );
                    }
                    JoinBlocker::Unprofitable { nest } => {
                        let _ = writeln!(out, "  - {} rejected: not profitable", lab(*nest));
                    }
                },
                ExplainEvent::EdgeVisit {
                    pass,
                    level,
                    src,
                    dst,
                    weight,
                    kind,
                    array,
                    contribution,
                    weight_after,
                    taken,
                } => {
                    let _ = writeln!(
                        out,
                        "    {}[{level}] {}->{} {kind} on {} d={weight:+}: \
                         contributes {contribution} -> w({})={weight_after} ({})",
                        pass.name(),
                        lab(*src),
                        lab(*dst),
                        arr(*array),
                        lab(*dst),
                        if *taken { "taken" } else { "kept" },
                    );
                }
                ExplainEvent::DimDerived {
                    level,
                    start,
                    shifts,
                    peels,
                    nt,
                } => {
                    let names: Vec<&str> = (*start..*start + shifts.len()).map(lab).collect();
                    let _ = writeln!(
                        out,
                        "  level {level}: members {names:?} shifts {shifts:?} peels {peels:?} Nt={nt}"
                    );
                }
                ExplainEvent::Threshold {
                    level,
                    trip,
                    nt,
                    max_procs,
                } => {
                    let procs = if *max_procs == usize::MAX {
                        "unbounded".to_string()
                    } else {
                        format!("<= {max_procs}")
                    };
                    let _ = writeln!(
                        out,
                        "  level {level} threshold (Theorem 1): trip {trip} / Nt {nt} -> {procs} procs"
                    );
                }
                ExplainEvent::GroupClosed { start, end } => {
                    let _ = writeln!(
                        out,
                        "  group [{}..{}] closed: {} member(s)",
                        lab(*start),
                        lab(*end - 1),
                        end - start
                    );
                }
            }
        }
        out
    }
}

/// [`ExplainTrace`] observes a planning run by recording every event
/// (`Planner::explain` plans with one).
impl PlanObserver for ExplainTrace {
    fn wants_events(&self) -> bool {
        true
    }

    fn event(&mut self, e: ExplainEvent) {
        self.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Planner;
    use sp_ir::SeqBuilder;

    /// Figure 9's three-loop chain: one group, shifts/peels 0,1,2.
    fn fig9() -> LoopSequence {
        let n = 32usize;
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
    fn fig9_trace_explains_the_fused_group() {
        let seq = fig9();
        let (planned, trace) = Planner::fused(1).explain(&seq).unwrap();
        assert_eq!(planned.plan.groups.len(), 1);
        // Both passes visited the reduced edges (L1->L2, L2->L3).
        assert_eq!(trace.edge_visits(DerivePass::Shift), 2);
        assert_eq!(trace.edge_visits(DerivePass::Peel), 2);
        assert_eq!(trace.rejections().count(), 0);
        let text = trace.render(&seq);
        assert!(text.contains("group @ L1:"), "{text}");
        assert!(text.contains("+ L2 joins"), "{text}");
        assert!(text.contains("shift[0] L1->L2 flow on a d=-1"), "{text}");
        assert!(text.contains("Nt=4"), "{text}");
        assert!(text.contains("threshold (Theorem 1)"), "{text}");
        assert!(
            text.contains("group [L1..L3] closed: 3 member(s)"),
            "{text}"
        );
    }

    #[test]
    fn serial_nest_rejection_is_recorded() {
        let n = 32usize;
        let mut b = SeqBuilder::new("serial");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(1, n as i64 - 2)], |x| {
            let r = x.ld(a, [0]);
            x.assign(c, [0], r);
        });
        // Recurrence: serial in level 0.
        b.nest("L2", [(1, n as i64 - 2)], |x| {
            let r = x.ld(a, [-1]) + x.ld(c, [0]);
            x.assign(a, [0], r);
        });
        let seq = b.finish();
        let (planned, trace) = Planner::fused(1).explain(&seq).unwrap();
        assert_eq!(planned.plan.fused_group_count(), 0);
        // Rejected twice: once joining L1's group, once as the (serial)
        // opener of its own singleton group.
        let rejects: Vec<_> = trace.rejections().collect();
        assert_eq!(
            rejects,
            vec![
                &JoinBlocker::Serial { nest: 1, level: 0 },
                &JoinBlocker::Serial { nest: 1, level: 0 },
            ]
        );
        let text = trace.render(&seq);
        assert!(
            text.contains("- L2 rejected: serial in fused level 0"),
            "{text}"
        );
    }

    #[test]
    fn nonuniform_rejection_names_the_source() {
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
        b.nest("L2", [(0, n as i64 - 1)], |x| {
            let r = x.ld_ref(ArrayRef::new(a, vec![AffineExpr::new(vec![2], 0)]));
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let (_, trace) = Planner::fused(1).explain(&seq).unwrap();
        let rejects: Vec<_> = trace.rejections().collect();
        assert_eq!(
            rejects,
            vec![&JoinBlocker::NonUniform {
                src: 0,
                dst: 1,
                level: 0
            }]
        );
    }

    #[test]
    fn untraced_plan_matches_traced_plan() {
        let seq = fig9();
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let untraced =
            crate::plan::fusion_plan(&seq, &deps, 1, crate::CodegenMethod::StripMined, None)
                .unwrap();
        let (traced, _) = Planner::fused(1).explain(&seq).unwrap();
        assert_eq!(untraced, *traced.plan);
    }
}

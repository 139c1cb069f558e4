//! Dependence extraction over loop sequences.
//!
//! Implements Definitions 3 and 4 of the paper: *interloop dependences*
//! between every ordered pair of nests in a sequence, with exact distance
//! vectors where the references are uniform, plus the intra-nest analysis
//! that establishes which loop levels are parallel (`doall`).

use crate::indep::{test_pair, IndepResult};
use crate::linsolve::{solve, solve_separable, LinSolution};
use sp_ir::{ArrayId, ArrayRef, LoopNest, LoopSequence};
use std::fmt;

/// Classification of a data dependence (Section 2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Source writes, sink reads.
    Flow,
    /// Source reads, sink writes.
    Anti,
    /// Both write.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        };
        f.write_str(s)
    }
}

/// Distance information for one reference pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairDistance {
    /// Provably no dependence.
    Independent,
    /// A dependence with per-level distances; `None` marks a level in
    /// which the distance is not uniform (varies across the solution set
    /// or could not be computed).
    Distance(Vec<Option<i64>>),
}

/// Computes the dependence distance between a source reference (in the
/// earlier nest) and a sink reference (in the later nest), as
/// `~d = ~i_sink - ~i_src` per loop level.
///
/// Both nests must have the same depth. For uniform pairs (identical
/// linear parts) the distance is exact; otherwise the GCD/Banerjee battery
/// either proves independence or the dependence is reported with all
/// levels non-uniform. A uniform pair whose subscripts each name at most
/// one loop level is solved in closed form ([`solve_separable`]) and
/// allocates only the returned distance vector.
pub fn ref_distance(
    src: &ArrayRef,
    src_nest: &LoopNest,
    snk: &ArrayRef,
    snk_nest: &LoopNest,
) -> PairDistance {
    let mut dist = Vec::with_capacity(src_nest.depth());
    if distance_into(src, src_nest, snk, snk_nest, &mut dist) {
        PairDistance::Distance(dist)
    } else {
        PairDistance::Independent
    }
}

/// [`ref_distance`] into a caller's buffer: returns whether the pair
/// depends, and leaves its per-level distance in `dist` if so. Only a
/// coupled subscript (one naming two loop levels) or a non-uniform pair
/// allocates.
fn distance_into(
    src: &ArrayRef,
    src_nest: &LoopNest,
    snk: &ArrayRef,
    snk_nest: &LoopNest,
    dist: &mut Vec<Option<i64>>,
) -> bool {
    debug_assert_eq!(src.array, snk.array);
    debug_assert_eq!(src_nest.depth(), snk_nest.depth());
    dist.clear();
    dist.resize(src_nest.depth(), None);
    if !src.same_linear_part(snk) {
        return test_pair(src, src_nest, snk, snk_nest) == IndepResult::MaybeDependent;
    }
    // h·d = c_src - c_snk, d = i_snk - i_src.
    let rows = src
        .subs
        .iter()
        .zip(&snk.subs)
        .map(|(a, b)| (a.coeffs.as_slice(), a.offset - b.offset));
    let consistent = match solve_separable(rows.clone(), dist) {
        Some(consistent) => consistent,
        None => {
            let coeffs: Vec<Vec<i64>> = rows.clone().map(|(h, _)| h.to_vec()).collect();
            let rhs: Vec<i64> = rows.map(|(_, c)| c).collect();
            match solve(&coeffs, &rhs) {
                LinSolution::Inconsistent => false,
                LinSolution::Solvable { fixed } => {
                    *dist = fixed;
                    true
                }
            }
        }
    };
    consistent && realizable(dist, src_nest, snk_nest)
}

/// Realizability: for each fixed level, some source iteration must have
/// its sink iteration in bounds.
fn realizable(dist: &[Option<i64>], src_nest: &LoopNest, snk_nest: &LoopNest) -> bool {
    dist.iter().enumerate().all(|(l, d)| {
        let Some(d) = *d else { return true };
        let (lo1, hi1) = (src_nest.bounds[l].lo, src_nest.bounds[l].hi);
        let (lo2, hi2) = (snk_nest.bounds[l].lo, snk_nest.bounds[l].hi);
        lo1.max(lo2 - d) <= hi1.min(hi2 - d)
    })
}

/// One interloop dependence (Definition 3) between two nests of a
/// sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterDep {
    /// Index of the source (earlier) nest.
    pub src_nest: usize,
    /// Index of the sink (later) nest.
    pub dst_nest: usize,
    /// The array carrying the dependence.
    pub array: ArrayId,
    /// Flow / anti / output.
    pub kind: DepKind,
    /// Per-level distance; `None` marks non-uniform levels.
    pub dist: Vec<Option<i64>>,
}

impl InterDep {
    /// True when the distance is uniform in every level `< levels`.
    pub fn uniform_in(&self, levels: usize) -> bool {
        self.dist.iter().take(levels).all(|d| d.is_some())
    }
}

/// Per-nest derived information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestInfo {
    /// `parallel[l]` is true when loop level `l` carries no dependence —
    /// iterations along that level may run concurrently (`doall`).
    pub parallel: Vec<bool>,
}

/// Full dependence analysis of a sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct SequenceDeps {
    /// Common nest depth.
    pub depth: usize,
    /// All interloop dependences in (src, dst) program order.
    pub inter: Vec<InterDep>,
    /// Per-nest intra-nest facts.
    pub nests: Vec<NestInfo>,
}

impl SequenceDeps {
    /// Interloop dependences between a specific pair of nests.
    pub fn between(&self, src: usize, dst: usize) -> impl Iterator<Item = &InterDep> {
        self.inter
            .iter()
            .filter(move |d| d.src_nest == src && d.dst_nest == dst)
    }

    /// True when every nest's level-`l` loops are parallel for all
    /// `l < levels`.
    pub fn all_parallel(&self, levels: usize) -> bool {
        self.nests
            .iter()
            .all(|n| n.parallel.iter().take(levels).all(|&p| p))
    }
}

/// Errors preventing dependence analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// Structural validation failed.
    Invalid(String),
    /// Nests have differing depths; fusion analysis requires a common
    /// nesting depth (differing *bounds* are fine).
    MixedDepth { depths: Vec<usize> },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Invalid(m) => write!(f, "invalid sequence: {m}"),
            AnalysisError::MixedDepth { depths } => {
                write!(
                    f,
                    "nests have mixed depths {depths:?}; a common depth is required"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Analyses a sequence: all interloop dependences plus per-nest
/// parallelism.
pub fn analyze_sequence(seq: &LoopSequence) -> Result<SequenceDeps, AnalysisError> {
    if let Err(errs) = seq.validate() {
        let msg: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(AnalysisError::Invalid(msg.join("; ")));
    }
    let depth = seq.nests[0].depth();
    if seq.nests.iter().any(|n| n.depth() != depth) {
        return Err(AnalysisError::MixedDepth {
            depths: seq.nests.iter().map(|n| n.depth()).collect(),
        });
    }

    // Each nest's references, collected once for every pair it is in.
    let refs = NestRefs::collect(seq);
    let mut dist = Vec::with_capacity(depth);
    let mut inter = Vec::new();
    for a in 0..seq.nests.len() {
        for b in (a + 1)..seq.nests.len() {
            collect_inter_deps(seq, &refs, a, b, &mut dist, &mut inter);
        }
    }

    let nests = seq
        .nests
        .iter()
        .enumerate()
        .map(|(k, n)| NestInfo {
            parallel: parallel_levels(n, refs.nest(k), &mut dist),
        })
        .collect();

    Ok(SequenceDeps {
        depth,
        inter,
        nests,
    })
}

/// Every nest's `(reference, is_write)` pairs in one list: per statement
/// the write, then the reads in evaluation order.
struct NestRefs<'s> {
    refs: Vec<(&'s ArrayRef, bool)>,
    /// Nest `k`'s pairs are `refs[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
}

impl<'s> NestRefs<'s> {
    fn collect(seq: &'s LoopSequence) -> Self {
        let mut total = 0;
        seq.for_each_ref(|_, _, _| total += 1);
        let mut refs = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(seq.nests.len() + 1);
        for nest in &seq.nests {
            starts.push(refs.len());
            for stmt in &nest.body {
                refs.push((&stmt.lhs, true));
                stmt.rhs.for_each_read(&mut |r| refs.push((r, false)));
            }
        }
        starts.push(refs.len());
        NestRefs { refs, starts }
    }

    fn nest(&self, k: usize) -> &[(&'s ArrayRef, bool)] {
        &self.refs[self.starts[k]..self.starts[k + 1]]
    }
}

fn collect_inter_deps(
    seq: &LoopSequence,
    refs: &NestRefs,
    a: usize,
    b: usize,
    dist: &mut Vec<Option<i64>>,
    out: &mut Vec<InterDep>,
) {
    let na = &seq.nests[a];
    let nb = &seq.nests[b];
    for &(src, src_w) in refs.nest(a) {
        for &(snk, snk_w) in refs.nest(b) {
            if src.array != snk.array || (!src_w && !snk_w) {
                continue;
            }
            let kind = match (src_w, snk_w) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                (true, true) => DepKind::Output,
                (false, false) => unreachable!(),
            };
            if distance_into(src, na, snk, nb, dist) {
                out.push(InterDep {
                    src_nest: a,
                    dst_nest: b,
                    array: src.array,
                    kind,
                    dist: dist.clone(),
                });
            }
        }
    }
}

/// Determines per-level parallelism of a single nest from its collected
/// `refs`, with `dist` as the pair test's scratch buffer: level `l` is
/// parallel iff every dependence among the nest's own references has a
/// fixed distance of zero at level `l` (no dependence crosses level-`l`
/// iterations).
fn parallel_levels(
    nest: &LoopNest,
    refs: &[(&ArrayRef, bool)],
    dist: &mut Vec<Option<i64>>,
) -> Vec<bool> {
    let mut parallel = vec![true; nest.depth()];
    for (i, &(r1, w1)) in refs.iter().enumerate() {
        for &(r2, w2) in refs.iter().skip(i) {
            if r1.array != r2.array || (!w1 && !w2) {
                continue;
            }
            if distance_into(r1, nest, r2, nest, dist) {
                for (l, d) in dist.iter().enumerate() {
                    if *d != Some(0) {
                        parallel[l] = false;
                    }
                }
            }
        }
    }
    parallel
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    /// Figure 3 of the paper: L1 writes a[i]; L2 reads a[i+1], a[i-1].
    fn fig3() -> LoopSequence {
        let n = 32usize;
        let mut b = SeqBuilder::new("fig3");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.finish()
    }

    #[test]
    fn fig3_has_forward_and_backward_flow_deps() {
        let deps = analyze_sequence(&fig3()).unwrap();
        let dists: Vec<i64> = deps.between(0, 1).map(|d| d.dist[0].unwrap()).collect();
        // a[i] -> a[i+1] read at i-1: distance -1 (backward);
        // a[i] -> a[i-1] read at i+1: distance +1 (forward).
        assert!(dists.contains(&-1), "missing backward dep: {dists:?}");
        assert!(dists.contains(&1), "missing forward dep: {dists:?}");
        assert!(deps.inter.iter().all(|d| d.kind == DepKind::Flow));
        // Both loops are parallel.
        assert!(deps.all_parallel(1));
    }

    /// Figure 4: L1 writes a[i]; L2 reads a[i], a[i-1] — forward only.
    #[test]
    fn fig4_serializing_only() {
        let n = 32usize;
        let mut b = SeqBuilder::new("fig4");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [0]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        let deps = analyze_sequence(&b.finish()).unwrap();
        let dists: Vec<i64> = deps.between(0, 1).map(|d| d.dist[0].unwrap()).collect();
        assert!(dists.contains(&0));
        assert!(dists.contains(&1));
        assert!(!dists.iter().any(|&d| d < 0));
    }

    #[test]
    fn serial_nest_detected() {
        // a[i] = a[i-1]: flow dep distance 1 -> not parallel.
        let n = 16usize;
        let mut b = SeqBuilder::new("serial");
        let a = b.array("a", [n]);
        b.nest("L1", [(1, n as i64 - 1)], |x| {
            let r = x.ld(a, [-1]);
            x.assign(a, [0], r);
        });
        let deps = analyze_sequence(&b.finish()).unwrap();
        assert_eq!(deps.nests[0].parallel, vec![false]);
    }

    #[test]
    fn accumulation_is_parallel() {
        // a[i] = a[i] + b[i]: distance 0 -> parallel.
        let n = 16usize;
        let mut b = SeqBuilder::new("acc");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            let r = x.ld(a, [0]) + x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        let deps = analyze_sequence(&b.finish()).unwrap();
        assert_eq!(deps.nests[0].parallel, vec![true]);
    }

    #[test]
    fn row_write_makes_inner_level_serial() {
        // a[i0, 5] written in a 2-deep nest: output dependence across the
        // inner level -> inner serial, outer parallel.
        let n = 16usize;
        let mut b = SeqBuilder::new("row");
        let a = b.array("a", [n, n]);
        b.nest("L1", [(0, n as i64 - 1), (0, n as i64 - 1)], |x| {
            use sp_ir::{AffineExpr, ArrayRef};
            let lhs = ArrayRef::new(
                a,
                vec![AffineExpr::var(2, 0, 0), AffineExpr::constant(2, 5)],
            );
            x.assign_ref(lhs, 1.0);
        });
        let deps = analyze_sequence(&b.finish()).unwrap();
        assert_eq!(deps.nests[0].parallel, vec![true, false]);
    }

    #[test]
    fn mixed_depth_rejected() {
        let n = 16usize;
        let mut b = SeqBuilder::new("mixed");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(0, 3), (0, 3)], |x| {
            let r = x.ld(a, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        b.nest("L2", [(0, 3)], |x| {
            let r = x.ld(c, [0]);
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        assert!(matches!(
            analyze_sequence(&seq),
            Err(AnalysisError::MixedDepth { .. })
        ));
    }

    #[test]
    fn out_of_range_dependence_dropped() {
        // L1 writes a[i] over [1, 5]; L2 reads a[i-20] over [1, 5]:
        // sink reads a[-19..-15]; bounds-valid but no overlap with writes.
        let mut b = SeqBuilder::new("far");
        let a = b.array("a", [64]);
        let c = b.array("c", [64]);
        b.nest("L1", [(21, 25)], |x| {
            let r = x.ld(c, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(1, 5)], |x| {
            let r = x.ld(a, [0]);
            x.assign(c, [0], r);
        });
        let deps = analyze_sequence(&b.finish()).unwrap();
        assert!(deps.between(0, 1).next().is_none());
    }
}

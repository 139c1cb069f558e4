//! Derivation of shift and peel amounts (Section 3.3 of the paper).
//!
//! For each fused dimension, the dependence chain multigraph is reduced
//! (minimum edge weight per nest pair for shifts, maximum for peels) and
//! the `TraverseDependenceChainGraph` algorithm of Figure 8 propagates
//! amounts along dependence chains in topological (= program) order:
//!
//! * **Shifts**: only *negative* edges (backward dependences) contribute;
//!   every other edge propagates the accumulated amount unchanged. The
//!   final vertex weight `w(v) ≤ 0` means nest `v` must be shifted by
//!   `-w(v)` iterations relative to the first nest to make every backward
//!   dependence loop-independent, enabling legal fusion.
//! * **Peels**: dually, only *positive* edges (forward dependences, which
//!   become cross-processor after fusion) contribute, with maxima
//!   accumulated; the final weight is the number of iterations to peel
//!   from block starts so that statically-blocked parallel execution of
//!   the fused loop needs no cross-processor synchronization.

use crate::explain::{DerivePass, ExplainEvent};
use crate::pipeline::PlanObserver;
use sp_dep::{DepEdge, DepMultigraph, SequenceDeps};
use sp_ir::LoopSequence;
use std::fmt;

/// Shift and peel amounts for one fused dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimDerivation {
    /// The loop level (0 = outermost).
    pub level: usize,
    /// Iterations to shift each nest relative to the first (all `>= 0`).
    pub shifts: Vec<i64>,
    /// Iterations to peel from block starts for each nest (all `>= 0`).
    pub peels: Vec<i64>,
}

impl DimDerivation {
    /// The *iteration count threshold* `Nt` of Definition 6 / Theorem 1:
    /// the minimum number of iterations a processor's block must have in
    /// this dimension for the transformation to be legal. With our
    /// non-negative conventions this is `max_k (shift_k + peel_k)`.
    pub fn nt(&self) -> i64 {
        self.shifts
            .iter()
            .zip(&self.peels)
            .map(|(s, p)| s + p)
            .max()
            .unwrap_or(0)
    }

    /// Largest shift across nests.
    pub fn max_shift(&self) -> i64 {
        self.shifts.iter().copied().max().unwrap_or(0)
    }

    /// Largest peel across nests.
    pub fn max_peel(&self) -> i64 {
        self.peels.iter().copied().max().unwrap_or(0)
    }
}

/// The complete derivation for a (sub)sequence: one [`DimDerivation`] per
/// fused dimension, outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Number of nests covered.
    pub n: usize,
    /// Per-dimension amounts, outermost fused level first.
    pub dims: Vec<DimDerivation>,
}

impl Derivation {
    /// Number of fused dimensions.
    pub fn fused_levels(&self) -> usize {
        self.dims.len()
    }

    /// `(shift, peel)` of nest `k` in fused dimension `d`.
    pub fn amounts(&self, d: usize, k: usize) -> (i64, i64) {
        (self.dims[d].shifts[k], self.dims[d].peels[k])
    }

    /// Largest shift over all nests and dimensions (the paper's Table 1
    /// "maximum shift" column).
    pub fn max_shift(&self) -> i64 {
        self.dims.iter().map(|d| d.max_shift()).max().unwrap_or(0)
    }

    /// Largest peel over all nests and dimensions (Table 1 "maximum peel").
    pub fn max_peel(&self) -> i64 {
        self.dims.iter().map(|d| d.max_peel()).max().unwrap_or(0)
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for dim in &self.dims {
            writeln!(f, "level {}:", dim.level)?;
            for k in 0..self.n {
                writeln!(
                    f,
                    "  L{}: shift {}, peel {}",
                    k + 1,
                    dim.shifts[k],
                    dim.peels[k]
                )?;
            }
        }
        Ok(())
    }
}

/// Why a derivation could not be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeriveError {
    /// Dependence analysis failed (see message).
    Analysis(String),
    /// A dependence between two nests is not uniform in a fused dimension;
    /// shift-and-peel requires uniform distances (Section 3.3).
    NonUniform {
        src: usize,
        dst: usize,
        level: usize,
    },
    /// The requested number of fused levels is zero or exceeds the
    /// sequence depth.
    BadLevels { levels: usize, depth: usize },
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::Analysis(m) => write!(f, "dependence analysis failed: {m}"),
            DeriveError::NonUniform { src, dst, level } => write!(
                f,
                "dependence between nests {src} and {dst} is not uniform in level {level}"
            ),
            DeriveError::BadLevels { levels, depth } => write!(
                f,
                "cannot derive for {levels} levels of a sequence with depth {depth}"
            ),
        }
    }
}

impl std::error::Error for DeriveError {}

/// The traversal of Figure 8, parameterized by reduction sense, with an
/// observer invoked on every edge visit.
///
/// `shift = true` runs the shift variant (min accumulation over negative
/// edges); `shift = false` runs the peel variant (max accumulation over
/// positive edges). `edges` must be the appropriately reduced graph and
/// topologically ordered by construction (`src < dst`). `observe`
/// receives `(edge, contribution, sink weight after, taken)` per visit;
/// the untraced path passes a no-op closure the optimizer removes.
fn traverse_with(
    n: usize,
    edges: &[DepEdge],
    shift: bool,
    mut observe: impl FnMut(&DepEdge, i64, i64, bool),
) -> Vec<i64> {
    let mut weight = vec![0i64; n];
    // Vertices in topological order = program order (all edges src < dst).
    for v in 0..n {
        for e in edges.iter().filter(|e| e.src == v) {
            let contribution = if shift {
                weight[v] + e.weight.min(0)
            } else {
                weight[v] + e.weight.max(0)
            };
            let taken = if shift {
                contribution < weight[e.dst]
            } else {
                contribution > weight[e.dst]
            };
            if taken {
                weight[e.dst] = contribution;
            }
            observe(e, contribution, weight[e.dst], taken);
        }
    }
    weight
}

fn traverse(n: usize, edges: &[DepEdge], shift: bool) -> Vec<i64> {
    traverse_with(n, edges, shift, |_, _, _, _| {})
}

/// Derives shifts and peels for one fused dimension from its multigraph.
///
/// Returns an error if any dependence is non-uniform in that dimension.
pub fn derive_dim(g: &DepMultigraph) -> Result<DimDerivation, DeriveError> {
    if let Some(&(src, dst)) = g.nonuniform.first() {
        return Err(DeriveError::NonUniform {
            src,
            dst,
            level: g.level,
        });
    }
    let min_edges = g.reduce_min();
    let shifts: Vec<i64> = traverse(g.n, &min_edges, true)
        .into_iter()
        .map(|w| -w)
        .collect();
    let max_edges = g.reduce_max();
    let peels = traverse(g.n, &max_edges, false);
    Ok(DimDerivation {
        level: g.level,
        shifts,
        peels,
    })
}

/// [`derive_dim`] with every traversal step reported to `obs` as
/// [`ExplainEvent::EdgeVisit`]s plus a closing
/// [`ExplainEvent::DimDerived`]. `offset` is added to the recorded nest
/// indices so window-relative graphs (see `DepMultigraph::build_window`)
/// report absolute sequence positions.
pub fn derive_dim_observed(
    g: &DepMultigraph,
    offset: usize,
    obs: &mut dyn PlanObserver,
) -> Result<DimDerivation, DeriveError> {
    if let Some(&(src, dst)) = g.nonuniform.first() {
        return Err(DeriveError::NonUniform {
            src: src + offset,
            dst: dst + offset,
            level: g.level,
        });
    }
    let event = |pass: DerivePass, e: &DepEdge, contribution: i64, after: i64, taken: bool| {
        ExplainEvent::EdgeVisit {
            pass,
            level: g.level,
            src: e.src + offset,
            dst: e.dst + offset,
            weight: e.weight,
            kind: e.kind,
            array: e.array,
            contribution,
            weight_after: after,
            taken,
        }
    };
    let min_edges = g.reduce_min();
    let shifts: Vec<i64> = traverse_with(g.n, &min_edges, true, |e, c, after, taken| {
        obs.event(event(DerivePass::Shift, e, c, after, taken));
    })
    .into_iter()
    .map(|w| -w)
    .collect();
    let max_edges = g.reduce_max();
    let peels = traverse_with(g.n, &max_edges, false, |e, c, after, taken| {
        obs.event(event(DerivePass::Peel, e, c, after, taken));
    });
    let dim = DimDerivation {
        level: g.level,
        shifts,
        peels,
    };
    obs.event(ExplainEvent::DimDerived {
        level: dim.level,
        start: offset,
        shifts: dim.shifts.clone(),
        peels: dim.peels.clone(),
        nt: dim.nt(),
    });
    Ok(dim)
}

/// Derives shift-and-peel amounts for the first `levels` dimensions of a
/// sequence, given its dependence analysis.
pub fn derive_levels(
    deps: &SequenceDeps,
    n: usize,
    levels: usize,
) -> Result<Derivation, DeriveError> {
    if levels < 1 || levels > deps.depth {
        return Err(DeriveError::BadLevels {
            levels,
            depth: deps.depth,
        });
    }
    let mut dims = Vec::with_capacity(levels);
    for level in 0..levels {
        let g = DepMultigraph::build(deps, n, level);
        dims.push(derive_dim(&g)?);
    }
    Ok(Derivation { n, dims })
}

/// Analyses `seq` and derives shift-and-peel amounts for **all** loop
/// levels. This is the one-call entry point used by examples and tests;
/// production callers that fuse fewer dimensions should use
/// [`derive_levels`].
pub fn derive_shift_peel(seq: &LoopSequence) -> Result<Derivation, DeriveError> {
    let deps = sp_dep::analyze_sequence(seq).map_err(|e| DeriveError::Analysis(e.to_string()))?;
    derive_levels(&deps, seq.len(), deps.depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn fig9() -> sp_ir::LoopSequence {
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
    fn fig9_shifts_and_fig10_peels() {
        let d = derive_shift_peel(&fig9()).unwrap();
        // Figure 9(d): shifts 0, 1, 2 (paper shows vertex weights 0,-1,-2).
        assert_eq!(d.dims[0].shifts, vec![0, 1, 2]);
        // Figure 10(c): peels 0, 1, 2.
        assert_eq!(d.dims[0].peels, vec![0, 1, 2]);
        assert_eq!(d.dims[0].nt(), 4);
        assert_eq!(d.max_shift(), 2);
        assert_eq!(d.max_peel(), 2);
    }

    #[test]
    fn fig13_swap_kernel() {
        // L1: a[i] = b[i-1]; L2: b[i] = a[i-1].
        // Anti dep on b: L1 reads b[i-1], L2 writes b[i] -> distance -1.
        // Flow dep on a: L1 writes a[i], L2 reads a[i-1] -> distance +1.
        let n = 32usize;
        let mut b = SeqBuilder::new("fig13");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        b.nest("L1", [(1, n as i64 - 1)], |x| {
            let r = x.ld(bb, [-1]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(1, n as i64 - 1)], |x| {
            let r = x.ld(a, [-1]);
            x.assign(bb, [0], r);
        });
        let d = derive_shift_peel(&b.finish()).unwrap();
        assert_eq!(d.dims[0].shifts, vec![0, 1]);
        assert_eq!(d.dims[0].peels, vec![0, 1]);
        assert_eq!(d.dims[0].nt(), 2);
    }

    #[test]
    fn jacobi_two_dims() {
        // Figure 15: compute + copy; shift 1 peel 1 in both dimensions.
        let n = 32usize;
        let mut b = SeqBuilder::new("jacobi");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        let d = derive_shift_peel(&b.finish()).unwrap();
        assert_eq!(d.fused_levels(), 2);
        for dim in &d.dims {
            assert_eq!(dim.shifts, vec![0, 1], "level {}", dim.level);
            assert_eq!(dim.peels, vec![0, 1], "level {}", dim.level);
        }
    }

    #[test]
    fn independent_loops_need_nothing() {
        let n = 16usize;
        let mut b = SeqBuilder::new("indep");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(0, n as i64 - 1)], |x| {
            let r = x.ld(d, [0]);
            x.assign(c, [0], r);
        });
        let dv = derive_shift_peel(&b.finish()).unwrap();
        assert_eq!(dv.dims[0].shifts, vec![0, 0]);
        assert_eq!(dv.dims[0].peels, vec![0, 0]);
        assert_eq!(dv.dims[0].nt(), 0);
    }

    #[test]
    fn shifts_accumulate_along_chain_with_gap() {
        // L1 -> L3 direct backward dep of -1, L1 -> L2 -> L3 chain with
        // -2 total: the chain dominates.
        let n = 64usize;
        let mut b = SeqBuilder::new("chain");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (2, n as i64 - 3);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(d, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [2]); // backward -2
            x.assign(bb, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]) + x.ld(a, [1]); // chain 0 after L2; direct -1
            x.assign(c, [0], r);
        });
        let dv = derive_shift_peel(&b.finish()).unwrap();
        assert_eq!(dv.dims[0].shifts, vec![0, 2, 2]);
    }

    #[test]
    fn non_uniform_dependence_rejected() {
        use sp_ir::{AffineExpr, ArrayRef};
        // L2 reads a[2*i]: different linear part from the write a[i].
        let n = 64usize;
        let mut b = SeqBuilder::new("nonuni");
        let a = b.array("a", [2 * n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            let r = x.ld(c, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(0, n as i64 - 1)], |x| {
            let r = x.ld_ref(ArrayRef::new(a, vec![AffineExpr::new(vec![2], 0)]));
            x.assign(c, [0], r);
        });
        let err = derive_shift_peel(&b.finish()).unwrap_err();
        assert!(matches!(
            err,
            DeriveError::NonUniform {
                src: 0,
                dst: 1,
                level: 0
            }
        ));
    }
}

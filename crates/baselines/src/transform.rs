//! Resolution of alignment conflicts by replication (Figure 14).
//!
//! Two replication mechanisms, matching the techniques of Callahan and
//! Appelbe & Smith the paper compares against:
//!
//! * **Data replication** for conflicting *anti* dependences: the read
//!   array is copied into a fresh replica by a new loop that runs (in
//!   parallel) before the fused loop, and the earlier nests' reads are
//!   redirected to the replica — the anti dependence disappears. This is
//!   exactly the `b0` of Figure 14(b).
//! * **Computation replication** for conflicting *flow* dependences: the
//!   conflicting reads are replaced by an inlined copy of the defining
//!   statement's right-hand side, translated to the source iteration —
//!   the reading loop recomputes the value instead of consuming it.
//!   Where the source iteration falls outside the defining loop's
//!   iteration space (the read consumes boundary data), the reading nest
//!   is *split* so the boundary slice keeps the original read — the
//!   guards a real implementation would emit.
//!
//! Both mechanisms add work (extra loads/stores, extra arithmetic, extra
//! memory) — the overhead the paper's Figure 26 measures against
//! shift-and-peel.
//!
//! [`AlignedProgram::plan`] lowers the result to a [`FusionPlan`], which
//! every runtime, backend and schedule of the one executor runs.

use crate::conflict::{derive_alignment, AlignmentResult, Conflict};
use shift_peel_core::{
    analysis::derive_dim, singleton_plan, CodegenMethod, Derivation, FusedGroup, FusionPlan,
};
use sp_dep::{analyze_sequence, DepKind, DepMultigraph};
use sp_ir::{AffineExpr, ArrayDecl, ArrayId, ArrayRef, Expr, LoopNest, LoopSequence, Statement};
use std::collections::HashMap;
use std::fmt;

/// Why alignment + replication could not be applied.
#[derive(Clone, Debug, PartialEq)]
pub enum AlignError {
    /// Dependence analysis failed.
    Analysis(String),
    /// A dependence is not uniform in the alignment dimension.
    NonUniform { src: usize, dst: usize },
    /// A nest is serial in the alignment dimension.
    Serial { nest: usize },
    /// A conflict could not be resolved by the implemented replication
    /// mechanisms.
    Unresolvable(String),
    /// The resolve loop did not converge.
    TooManyRounds,
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::Analysis(m) => write!(f, "analysis failed: {m}"),
            AlignError::NonUniform { src, dst } => {
                write!(f, "non-uniform dependence between nests {src} and {dst}")
            }
            AlignError::Serial { nest } => write!(f, "nest {nest} is serial"),
            AlignError::Unresolvable(m) => write!(f, "unresolvable conflict: {m}"),
            AlignError::TooManyRounds => write!(f, "conflict resolution did not converge"),
        }
    }
}

impl std::error::Error for AlignError {}

/// The transformed program: replica-copy loops followed by the aligned
/// originals.
#[derive(Clone, Debug)]
pub struct AlignedProgram {
    /// Copy nests first (`n_copies` of them), then the transformed
    /// original nests.
    pub seq: LoopSequence,
    /// Number of leading copy nests.
    pub n_copies: usize,
    /// Alignment offset per original nest (index `n_copies + k` in
    /// `seq`); may be negative.
    pub align: Vec<i64>,
    /// The alignment dimension (loop level).
    pub level: usize,
    /// Replica arrays created by data replication.
    pub replicated: Vec<ArrayId>,
    /// Number of reads replaced by inlined computation.
    pub inlined_reads: usize,
}

impl AlignedProgram {
    /// Extra memory the replicas consume, in elements.
    pub fn replica_elements(&self) -> usize {
        self.replicated
            .iter()
            .map(|&r| self.seq.array(r).len())
            .sum()
    }

    /// The fusion plan that runs this program (inject it with
    /// `RunConfig::prederived`): each copy nest a singleton group, then
    /// the originals as one group under the direct method — a guard per
    /// fused point and nest, as in Figure 14(c). The originals' shifts
    /// and peels come from the planner's Theorem-1 derivation, not from
    /// the alignment: with shifts of offset − smallest offset and no
    /// peels, a consumer can read across a block boundary before its
    /// producer writes. LL18's derived amounts are all zero, its
    /// alignment exactly; the swap kernel of Figure 13 peels one.
    pub fn plan(&self) -> Result<FusionPlan, AlignError> {
        let deps = analyze_sequence(&self.seq).map_err(|e| AlignError::Analysis(e.to_string()))?;
        let window = DepMultigraph::build_window(&deps, self.n_copies, self.seq.len(), self.level);
        let dim = derive_dim(&window).map_err(|e| AlignError::Analysis(e.to_string()))?;
        // Every nest a singleton with zero amounts; the copies stay so.
        let mut plan =
            singleton_plan(&self.seq, &deps, 1).map_err(|e| AlignError::Analysis(e.to_string()))?;
        plan.groups.truncate(self.n_copies);
        plan.groups.push(FusedGroup {
            start: self.n_copies,
            end: self.seq.len(),
            derivation: Derivation {
                n: self.seq.len() - self.n_copies,
                dims: vec![dim],
            },
        });
        plan.method = CodegenMethod::Direct;
        Ok(plan)
    }
}

/// True when every subscript of `r` is `i_d + c` (dimension `d`
/// subscripted by loop level `d`).
fn is_aligned_ref(r: &ArrayRef, depth: usize) -> bool {
    r.subs.len() == depth
        && r.subs.iter().enumerate().all(|(d, s)| {
            s.depth() == depth
                && s.coeffs
                    .iter()
                    .enumerate()
                    .all(|(l, &c)| c == i64::from(l == d))
        })
}

/// Applies alignment with replication to `seq` in loop dimension `level`
/// (only `level == 0`, the paper's 1-D case, is supported).
pub fn align_with_replication(
    seq: &LoopSequence,
    level: usize,
) -> Result<AlignedProgram, AlignError> {
    assert_eq!(
        level, 0,
        "only outermost-dimension alignment is implemented"
    );
    let depth = seq.nests.first().map(|n| n.depth()).unwrap_or(0);
    let mut arrays = seq.arrays.clone();
    let mut originals: Vec<LoopNest> = seq.nests.clone();
    let mut copies: Vec<LoopNest> = Vec::new();
    let mut replicas: HashMap<u32, ArrayId> = HashMap::new();
    let mut inlined_reads = 0usize;

    for _round in 0..64 {
        let cur = LoopSequence::new(
            format!("{}-aligned", seq.name),
            arrays.clone(),
            copies.iter().chain(originals.iter()).cloned().collect(),
        );
        let deps = analyze_sequence(&cur).map_err(|e| AlignError::Analysis(e.to_string()))?;
        let n_copies = copies.len();
        for (k, info) in deps.nests.iter().enumerate().skip(n_copies) {
            if !info.parallel[level] {
                return Err(AlignError::Serial { nest: k - n_copies });
            }
        }
        let g = DepMultigraph::build_window(&deps, n_copies, cur.len(), level);
        if let Some(&(s, d)) = g.nonuniform.first() {
            return Err(AlignError::NonUniform { src: s, dst: d });
        }
        match derive_alignment(&g) {
            AlignmentResult::Aligned(align) => {
                return Ok(AlignedProgram {
                    seq: cur,
                    n_copies,
                    align,
                    level,
                    replicated: replicas.values().copied().collect(),
                    inlined_reads,
                });
            }
            AlignmentResult::Conflicts(cs) => {
                let c = &cs[0];
                match c.kind {
                    DepKind::Anti => resolve_anti(
                        &mut arrays,
                        &mut originals,
                        &mut copies,
                        &mut replicas,
                        c,
                        depth,
                    )?,
                    DepKind::Flow => {
                        inlined_reads += resolve_flow(&mut originals, c, level, depth)?;
                    }
                    DepKind::Output => {
                        return Err(AlignError::Unresolvable(
                            "output-dependence conflicts require statement reordering".to_string(),
                        ))
                    }
                }
            }
        }
    }
    Err(AlignError::TooManyRounds)
}

/// Data replication: copy the conflicting array before the sequence and
/// redirect all reads in nests preceding the writer.
fn resolve_anti(
    arrays: &mut Vec<ArrayDecl>,
    originals: &mut [LoopNest],
    copies: &mut Vec<LoopNest>,
    replicas: &mut HashMap<u32, ArrayId>,
    c: &Conflict,
    depth: usize,
) -> Result<(), AlignError> {
    let x = c.array;
    let decl = arrays[x.index()].clone();
    if decl.rank() != depth {
        return Err(AlignError::Unresolvable(format!(
            "cannot replicate array {} of rank {} in a depth-{} sequence",
            decl.name,
            decl.rank(),
            depth
        )));
    }
    // The writer must be the first writer of x among the originals.
    for (k, nest) in originals.iter().enumerate().take(c.dst) {
        if nest.body.iter().any(|s| s.lhs.array == x) {
            return Err(AlignError::Unresolvable(format!(
                "array {} is written by nest {} before the conflicting writer {}",
                decl.name, k, c.dst
            )));
        }
    }
    let replica = *replicas.entry(x.0).or_insert_with(|| {
        let id = ArrayId(arrays.len() as u32);
        arrays.push(ArrayDecl::new(
            format!("{}_rep", decl.name),
            decl.dims.clone(),
        ));
        // Copy nest: replica[i] = x[i] over the full array.
        let subs: Vec<AffineExpr> = (0..depth).map(|d| AffineExpr::var(depth, d, 0)).collect();
        let body = vec![Statement::new(
            ArrayRef::new(id, subs.clone()),
            Expr::Load(ArrayRef::new(x, subs)),
        )];
        copies.push(LoopNest::new(
            format!("copy_{}", decl.name),
            decl.dims
                .iter()
                .map(|&d| sp_ir::LoopBounds::new(0, d as i64 - 1))
                .collect::<Vec<_>>(),
            body,
        ));
        id
    });
    // Redirect reads of x in every original nest before the writer.
    for nest in originals.iter_mut().take(c.dst) {
        for stmt in &mut nest.body {
            stmt.rhs = redirect_reads(&stmt.rhs, x, replica);
        }
    }
    Ok(())
}

fn redirect_reads(e: &Expr, from: ArrayId, to: ArrayId) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Load(r) if r.array == from => Expr::Load(ArrayRef::new(to, r.subs.clone())),
        Expr::Load(r) => Expr::Load(r.clone()),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(redirect_reads(inner, from, to))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(redirect_reads(a, from, to)),
            Box::new(redirect_reads(b, from, to)),
        ),
    }
}

/// Computation replication: inline the defining statement into the
/// conflicting reads, splitting off boundary slices where the source
/// iteration would fall outside the defining loop. Returns the number of
/// reads inlined.
#[allow(clippy::needless_range_loop)] // dimension indexing mirrors the math
fn resolve_flow(
    originals: &mut Vec<LoopNest>,
    c: &Conflict,
    level: usize,
    depth: usize,
) -> Result<usize, AlignError> {
    let x = c.array;
    // Unique defining statement in the source nest, aligned form.
    let src_nest = originals[c.src].clone();
    let defs: Vec<&Statement> = src_nest.body.iter().filter(|s| s.lhs.array == x).collect();
    let [def] = defs.as_slice() else {
        return Err(AlignError::Unresolvable(format!(
            "array {:?} has {} defining statements in nest {}",
            x,
            defs.len(),
            c.src
        )));
    };
    if !is_aligned_ref(&def.lhs, depth) {
        return Err(AlignError::Unresolvable(
            "defining statement is not in aligned form".to_string(),
        ));
    }
    let c0 = def.lhs.offsets();
    let dst_nest = originals[c.dst].clone();

    // Find the conflicting reads (demand != have) and the level range
    // where inlining is valid in every dimension.
    let mut deltas: Vec<Vec<i64>> = Vec::new();
    for stmt in &dst_nest.body {
        for r in stmt.rhs.reads() {
            if r.array != x {
                continue;
            }
            if !is_aligned_ref(r, depth) {
                return Err(AlignError::Unresolvable(
                    "conflicting read is not in aligned form".to_string(),
                ));
            }
            let cr = r.offsets();
            let d_level = c0[level] - cr[level];
            if c.a_src - d_level != c.have {
                deltas.push((0..depth).map(|d| cr[d] - c0[d]).collect());
            }
        }
    }
    if deltas.is_empty() {
        return Err(AlignError::Unresolvable(
            "flow conflict with no identifiable conflicting read".to_string(),
        ));
    }

    // Validity range in the split level; containment required elsewhere.
    let mut vlo = dst_nest.bounds[level].lo;
    let mut vhi = dst_nest.bounds[level].hi;
    for delta in &deltas {
        for d in 0..depth {
            let (slo, shi) = (src_nest.bounds[d].lo, src_nest.bounds[d].hi);
            let (dlo, dhi) = (dst_nest.bounds[d].lo, dst_nest.bounds[d].hi);
            if d == level {
                vlo = vlo.max(slo - delta[d]);
                vhi = vhi.min(shi - delta[d]);
            } else if dlo + delta[d] < slo || dhi + delta[d] > shi {
                return Err(AlignError::Unresolvable(format!(
                    "inlined read escapes the defining loop in dimension {d}"
                )));
            }
        }
    }
    if vlo > vhi {
        return Err(AlignError::Unresolvable(
            "no iterations where inlining is valid".to_string(),
        ));
    }

    // Interior body: conflicting reads inlined.
    let mut inlined = 0usize;
    let interior_body: Vec<Statement> = dst_nest
        .body
        .iter()
        .map(|stmt| Statement {
            lhs: stmt.lhs.clone(),
            rhs: inline_reads(
                &stmt.rhs,
                x,
                &c0,
                c.a_src,
                c.have,
                level,
                &def.rhs,
                &mut inlined,
            ),
        })
        .collect();

    // Replace the dst nest by (low boundary, interior, high boundary).
    let mut pieces: Vec<LoopNest> = Vec::new();
    let (dlo, dhi) = (dst_nest.bounds[level].lo, dst_nest.bounds[level].hi);
    let mk = |lo: i64, hi: i64, body: Vec<Statement>, tag: &str| {
        let mut bounds = dst_nest.bounds.clone();
        bounds[level] = sp_ir::LoopBounds::new(lo, hi);
        LoopNest::new(format!("{}_{tag}", dst_nest.label), bounds, body)
    };
    if dlo < vlo {
        pieces.push(mk(dlo, vlo - 1, dst_nest.body.clone(), "lo"));
    }
    pieces.push(mk(vlo, vhi, interior_body, "in"));
    if vhi < dhi {
        pieces.push(mk(vhi + 1, dhi, dst_nest.body.clone(), "hi"));
    }
    originals.splice(c.dst..=c.dst, pieces);
    Ok(inlined)
}

#[allow(clippy::too_many_arguments)]
fn inline_reads(
    e: &Expr,
    x: ArrayId,
    c0: &[i64],
    a_src: i64,
    have: i64,
    level: usize,
    def_rhs: &Expr,
    inlined: &mut usize,
) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Load(r) if r.array == x => {
            let cr = r.offsets();
            let d_level = c0[level] - cr[level];
            if a_src - d_level != have {
                *inlined += 1;
                let delta: Vec<i64> = (0..c0.len()).map(|d| cr[d] - c0[d]).collect();
                def_rhs.translated(&delta)
            } else {
                Expr::Load(r.clone())
            }
        }
        Expr::Load(r) => Expr::Load(r.clone()),
        Expr::Unary(op, inner) => Expr::Unary(
            *op,
            Box::new(inline_reads(
                inner, x, c0, a_src, have, level, def_rhs, inlined,
            )),
        ),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(inline_reads(a, x, c0, a_src, have, level, def_rhs, inlined)),
            Box::new(inline_reads(b, x, c0, a_src, have, level, def_rhs, inlined)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    /// Figure 13/14's swap kernel: conflict resolved by replicating b.
    #[test]
    fn swap_kernel_replicates_b() {
        let n = 32usize;
        let mut b = SeqBuilder::new("swap");
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
        let seq = b.finish();
        let prog = align_with_replication(&seq, 0).unwrap();
        assert_eq!(prog.n_copies, 1);
        assert_eq!(prog.replicated.len(), 1);
        // Alignment: flow on a (+1) demands a_2 = -1.
        assert_eq!(prog.align, vec![0, -1]);
        assert_eq!(prog.replica_elements(), n);
        // L1 now reads b_rep.
        let l1 = &prog.seq.nests[1];
        let reads = l1.body[0].rhs.reads();
        assert_eq!(reads[0].array, prog.replicated[0]);
    }

    /// A stencil consumer conflicts through two flow distances; the -1
    /// distance read is inlined and the boundary slice split off.
    #[test]
    fn stencil_flow_conflict_inlines_and_splits() {
        let n = 32usize;
        let mut b = SeqBuilder::new("sten");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(1, n as i64 - 2)], |x| {
            let r = x.ld(bb, [0]) * 2.0;
            x.assign(a, [0], r);
        });
        b.nest("L2", [(1, n as i64 - 2)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let prog = align_with_replication(&seq, 0).unwrap();
        assert!(prog.inlined_reads >= 1);
        assert_eq!(prog.n_copies, 0);
        // L2 split into interior + one boundary piece.
        assert_eq!(prog.seq.nests.len(), 3);
        assert!(prog.seq.validate().is_ok());
    }

    #[test]
    fn ll18_needs_replicated_arrays_and_inlined_statements() {
        let seq = sp_kernels::ll18::sequence(48);
        let prog = align_with_replication(&seq, 0).unwrap();
        // The paper: "it was necessary to replicate two arrays and two
        // statements" for LL18 (our mechanisms: two replica arrays, and
        // the zb statement inlined at its two conflicting reads).
        assert_eq!(prog.replicated.len(), 2, "replicated arrays");
        assert_eq!(prog.inlined_reads, 2, "inlined reads");
        assert!(prog.seq.validate().is_ok());
        // Everything aligns at offset zero once replication is done.
        assert!(prog.align.iter().all(|&a| a == 0));
    }
}

//! The lowering pass: `Expr` trees + a memory layout → [`ProgramTape`].
//!
//! Lowering runs once per executor run (it is layout-bound) and does the
//! work the interpreter would otherwise repeat every iteration. One
//! recursive walk per statement does all of it:
//!
//! * **Address precomputation** — every array reference collapses to an
//!   [`AccessPat`]: one base slot/byte-address plus a combined stride
//!   coefficient per loop level (`Σ_d coeff_d(l) · stride_d`), with
//!   identical references within a nest deduplicated. References into
//!   contracted arrays keep their dimension-0 subscript as a
//!   per-access modulo term.
//! * **Constant folding** — an operator whose operands are all constants
//!   is applied at lower time, with the same `f64` operator
//!   implementations the interpreter applies, so folded values are
//!   bit-identical.
//! * **Row programs** — every operator left is one three-address
//!   [`RowOp`] of the statement's [`RowStmt`], the one lowered form both
//!   runner widths execute; the loads are noted in evaluation order for
//!   the sink, and each nest gets its row width.
//!
//! Work counters stay interpreter-exact because each statement's `flops`
//! and load count are those of the *original* tree.

use crate::exec::ExecError;
use crate::tape::{
    AccessPat, NestTape, Operand, ProgramTape, RowOp, RowStmt, StmtTape, WrapPat, MIN_ROW, ROW,
};
use shift_peel_core::pipeline::Fnv1a64;
use shift_peel_core::LoweringFootprint;
use sp_cache::MemoryLayout;
use sp_ir::{ArrayRef, Expr, LoopSequence};
use std::time::Instant;

impl ProgramTape {
    /// Lowers every nest of `seq` against `layout`.
    pub fn lower(seq: &LoopSequence, layout: &MemoryLayout) -> ProgramTape {
        ProgramTape::lower_with(seq, layout, &LoweringFootprint::of_sequence(seq))
    }

    /// Lowers with a precomputed [`LoweringFootprint`] (from the plan
    /// being executed) sizing the tape allocations up front.
    pub fn lower_with(
        seq: &LoopSequence,
        layout: &MemoryLayout,
        footprint: &LoweringFootprint,
    ) -> ProgramTape {
        let t0 = Instant::now();
        let mut rows = RowBuilder {
            ops: Vec::with_capacity(footprint.max_rhs_nodes),
            loads: Vec::with_capacity(footprint.max_rhs_nodes),
            live: Vec::new(),
        };
        let mut nests = Vec::with_capacity(footprint.nests);
        for nest in &seq.nests {
            let depth = nest.depth();
            let mut pats = PatTable {
                layout,
                depth,
                refs: Vec::new(),
                pats: Vec::new(),
            };
            let mut stmts = Vec::with_capacity(nest.body.len());
            for stmt in &nest.body {
                let result = rows.emit(&stmt.rhs, &mut pats);
                stmts.push(StmtTape {
                    // Kept as long as the tape: sized exactly.
                    row: RowStmt::new(rows.ops.to_vec(), result),
                    loads: rows.loads.to_vec(),
                    store: pats.intern(&stmt.lhs),
                    // Charged from the original tree so counters match
                    // the interpreter despite folding.
                    flops: stmt.rhs.op_count() as u64,
                });
                rows.reset();
            }
            nests.push(NestTape {
                depth,
                elem_bytes: layout.elem_bytes as i64,
                row_width: row_width(&pats.pats, &stmts, depth),
                pats: pats.pats,
                stmts,
            });
        }
        ProgramTape {
            nests,
            layout_fp: layout_fingerprint(layout),
            lower_nanos: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Checks that this tape was lowered for `seq` under `layout`, as far
    /// as a tape records it: the nest count, each nest's depth, and a
    /// fingerprint of every placement's base, strides and wrap window.
    /// An executor handed a tape from outside
    /// ([`crate::RunConfig::with_tape`]) runs this first: the runner
    /// indexes `nests` by nest and trusts the baked-in slots, whose bounds
    /// checks are debug-only.
    pub(crate) fn check_lowered_for(
        &self,
        seq: &LoopSequence,
        layout: &MemoryLayout,
    ) -> Result<(), ExecError> {
        let lowered = self.nests.iter().map(|n| n.depth);
        let wanted = seq.nests.iter().map(|n| n.depth());
        if !lowered.clone().eq(wanted.clone()) {
            return Err(ExecError::Config(format!(
                "injected tape was lowered for nests of depths {:?} but the program's are {:?}",
                lowered.collect::<Vec<_>>(),
                wanted.collect::<Vec<_>>()
            )));
        }
        if self.layout_fp != layout_fingerprint(layout) {
            return Err(ExecError::Config(
                "injected tape was lowered against a different memory layout".into(),
            ));
        }
        Ok(())
    }
}

/// What of a layout a tape bakes in, hashed: element size, extent, and
/// each array's base, strides and contraction window.
fn layout_fingerprint(layout: &MemoryLayout) -> u64 {
    let mut h = Fnv1a64::new();
    let mut word = |w: u64| h.write(&w.to_le_bytes());
    word(layout.elem_bytes as u64);
    word(layout.total_bytes);
    for p in &layout.placements {
        word(p.start);
        word(p.wrap.map_or(0, |w| w as u64));
        for &s in &p.strides {
            word(s as u64);
        }
    }
    h.finish()
}

/// Decides [`NestTape::row_width`] for one lowered nest, by the four
/// conditions on the field's docs: no `wrap` reference, unit inner
/// stride, one shared coefficient vector, and every store-to-pattern
/// distance `Δ` either 0 or at least [`MIN_ROW`]. The width is the
/// smallest non-zero `|Δ|`, capped at [`ROW`]: no dependence at a distance
/// shorter than a chunk can land inside one.
fn row_width(pats: &[AccessPat], stmts: &[StmtTape], depth: usize) -> usize {
    let Some(first) = pats.first() else { return 0 };
    if pats
        .iter()
        .any(|p| p.wrap.is_some() || p.coeffs[depth - 1] != 1 || p.coeffs != first.coeffs)
    {
        return 0;
    }
    let mut width = ROW as u64;
    for st in stmts {
        let store = &pats[st.store as usize];
        for p in pats {
            match (store.slot_base - p.slot_base).unsigned_abs() {
                0 => {}
                d if d < MIN_ROW as u64 => return 0,
                d => width = width.min(d),
            }
        }
    }
    width as usize
}

/// Builds statements' row programs (see [`RowStmt`]) straight from their
/// `Expr` trees; one builder serves a whole lowering so its working
/// vectors are allocated once. A temporary is free again once the op
/// consuming it has been emitted, and a destination is picked before its
/// operands are freed, so no op writes a row it reads.
struct RowBuilder {
    ops: Vec<RowOp>,
    /// Pattern index of every load met, in the order met.
    loads: Vec<u32>,
    /// `live[i]`: temporary `i` holds a value not yet consumed.
    live: Vec<bool>,
}

impl RowBuilder {
    /// Emits the ops computing `e` and says where its value is. The walk
    /// is the interpreter's — left operand, right operand, operator — so
    /// patterns are interned and loads noted in evaluation order.
    /// Constants fold on the way up with the interpreter's own operator
    /// implementations.
    fn emit(&mut self, e: &Expr, pats: &mut PatTable<'_>) -> Operand {
        match e {
            Expr::Const(c) => Operand::Const(*c),
            Expr::Load(r) => {
                let j = pats.intern(r);
                self.loads.push(j);
                Operand::Row(j)
            }
            Expr::Unary(op, a) => match self.emit(a, pats) {
                Operand::Const(c) => Operand::Const(op.apply(c)),
                a => {
                    let dst = self.dst();
                    self.ops.push(RowOp::Unary { op: *op, a, dst });
                    self.free(a);
                    Operand::Temp(dst)
                }
            },
            Expr::Binary(op, a, b) => match (self.emit(a, pats), self.emit(b, pats)) {
                (Operand::Const(x), Operand::Const(y)) => Operand::Const(op.apply(x, y)),
                (a, b) => {
                    let dst = self.dst();
                    self.ops.push(RowOp::Binary { op: *op, a, b, dst });
                    self.free(a);
                    self.free(b);
                    Operand::Temp(dst)
                }
            },
        }
    }

    /// Ready for the next statement.
    fn reset(&mut self) {
        self.ops.clear();
        self.loads.clear();
        self.live.clear();
    }

    fn dst(&mut self) -> u32 {
        let i = self.live.iter().position(|l| !l).unwrap_or_else(|| {
            self.live.push(false);
            self.live.len() - 1
        });
        self.live[i] = true;
        i as u32
    }

    fn free(&mut self, o: Operand) {
        if let Operand::Temp(i) = o {
            self.live[i as usize] = false;
        }
    }
}

/// Interns deduplicated access patterns for one nest.
struct PatTable<'a> {
    layout: &'a MemoryLayout,
    depth: usize,
    refs: Vec<ArrayRef>,
    pats: Vec<AccessPat>,
}

impl PatTable<'_> {
    fn intern(&mut self, r: &ArrayRef) -> u32 {
        if let Some(i) = self.refs.iter().position(|q| q == r) {
            return i as u32;
        }
        self.refs.push(r.clone());
        self.pats.push(lower_ref(r, self.layout, self.depth));
        (self.refs.len() - 1) as u32
    }
}

/// Collapses one reference to its affine access pattern.
fn lower_ref(r: &ArrayRef, layout: &MemoryLayout, depth: usize) -> AccessPat {
    let p = &layout.placements[r.array.index()];
    let eb = layout.elem_bytes as i64;
    let mut coeffs = vec![0i64; depth];
    let mut const_elems = 0i64;
    let mut wrap = None;
    for (d, sub) in r.subs.iter().enumerate() {
        let stride = p.strides[d] as i64;
        if d == 0 {
            if let Some(w) = p.wrap {
                // Contracted plane subscript: reduced modulo the window
                // per access, outside the linear part.
                wrap = Some(WrapPat {
                    wrap: w as i64,
                    stride0: stride,
                    sub: sub.clone(),
                });
                continue;
            }
        }
        for (l, c) in coeffs.iter_mut().enumerate() {
            *c += sub.coeff(l) * stride;
        }
        const_elems += sub.offset * stride;
    }
    AccessPat {
        slot_base: (p.start / layout.elem_bytes as u64) as i64 + const_elems,
        addr_base: p.start as i64 + const_elems * eb,
        coeffs,
        wrap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_original;
    use crate::memory::Memory;
    use crate::sink::{NullSink, RecordingSink};
    use crate::tape::Engine;
    use sp_cache::LayoutStrategy;
    use sp_ir::builder::NestCtx;
    use sp_ir::{AffineExpr, ArrayId, BinOp, SeqBuilder};

    fn stencil_seq() -> LoopSequence {
        let n = 10usize;
        let mut b = SeqBuilder::new("lower");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n, n]);
        b.nest("L1", [(1, 8), (1, 8)], |x| {
            // Exercises folding (2.0 + 1.0), both multiply-add shapes,
            // and unary ops.
            let r = x.ld(a, [0, 1]) * (Expr::Const(2.0) + Expr::Const(1.0))
                + (x.ld(a, [0, -1]) + x.ld(a, [1, 0]) * x.ld(a, [-1, 0]));
            x.assign(c, [0, 0], -r);
        });
        b.finish()
    }

    /// Constant subtrees fold away at lower time — wholly (a fill has no
    /// ops at all) or down to one constant operand — while the counters
    /// still charge the original tree.
    #[test]
    fn folding_collapses_constant_subtrees() {
        let mut b = SeqBuilder::new("fold");
        let a = b.array("a", [8usize]);
        let c = b.array("c", [8usize]);
        b.nest("L1", [(0, 7)], |x| {
            let k = Expr::Const(3.0) * (Expr::Const(1.0) + Expr::Const(0.5));
            x.assign(c, [0], k.clone());
            x.assign(c, [0], x.ld(a, [0]) * -k);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        let stmts = &tape.nests[0].stmts;
        assert_eq!(stmts[0].row.ops(), []);
        assert_eq!(stmts[0].row.result(), Operand::Const(4.5));
        // The first statement's store took pattern 0.
        assert_eq!(
            stmts[1].row.ops(),
            [RowOp::Binary {
                op: BinOp::Mul,
                a: Operand::Row(1),
                b: Operand::Const(-4.5),
                dst: 0,
            }]
        );
        assert_eq!((stmts[0].flops, stmts[1].flops), (2, 4));
    }

    #[test]
    fn patterns_deduplicate_repeated_references() {
        let n = 8usize;
        let mut b = SeqBuilder::new("dedupe");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(1, 6)], |x| {
            let r = x.ld(a, [0]) + x.ld(a, [0]) + x.ld(a, [1]);
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        // a[0] twice dedupes; a[1] and the c[0] store are distinct.
        assert_eq!(tape.nests[0].pats.len(), 3);
        assert_eq!(tape.nests[0].stmts[0].loads, [0, 0, 1]);
        // Two adds and the store.
        assert_eq!(tape.total_ops(), 3);
        assert_eq!(tape.pattern_count(), 3);
    }

    /// The core contract: identical access trace (addresses, kinds,
    /// order), results, and counters versus the interpreter — across
    /// layouts, including padding.
    #[test]
    fn tape_trace_matches_interpreter_exactly() {
        let seq = stencil_seq();
        for layout in [LayoutStrategy::Contiguous, LayoutStrategy::InnerPad(3)] {
            let mut m1 = Memory::new(&seq, layout);
            m1.init_deterministic(&seq, 11);
            let mut m2 = m1.clone();
            let mut s1 = RecordingSink::default();
            let c1 = run_original(&seq, &mut m1, &mut s1);
            let tape = ProgramTape::lower(&seq, &m2.layout);
            let mut s2 = RecordingSink::default();
            let c2 = Engine::Tape {
                tape: &tape,
                rows: false,
            }
            .run_original(&seq, &mut m2, &mut s2);
            assert_eq!(s1.trace, s2.trace, "{layout:?}");
            assert_eq!(m1.snapshot_all(&seq), m2.snapshot_all(&seq), "{layout:?}");
            assert_eq!(c1, c2, "{layout:?}");
            assert_eq!(c1.flops, c2.flops, "{layout:?}");
            assert_eq!(c1.loads, c2.loads, "{layout:?}");
        }
    }

    /// The four ways a nest loses its row width, and a control that
    /// keeps it. Every case's RHS is shaped `p + q * r` over three
    /// distinct references, so the row program reads `q` and `r` first
    /// while the sink must still hear `p, q, r`; under both runner widths
    /// the results, the access trace and the counters are the
    /// interpreter's, and a nest without a row width runs a column at a
    /// time under `rows` too.
    #[test]
    fn row_width_verdicts_and_both_widths_match_the_interpreter() {
        /// One nest `dst = p + q * r` over arrays `a`, `c`, `d` of the
        /// given extents; `refs` names `[p, q, r, dst]`.
        fn case(
            dims: [&[usize]; 3],
            bounds: &[(i64, i64)],
            refs: impl Fn(&NestCtx, [ArrayId; 3]) -> [ArrayRef; 4],
        ) -> LoopSequence {
            let mut b = SeqBuilder::new("case");
            let ids = std::array::from_fn(|i| b.array(["a", "c", "d"][i], dims[i].to_vec()));
            b.nest("L1", bounds.to_vec(), |x| {
                let [p, q, r, dst] = refs(x, ids);
                x.assign_ref(dst, x.ld_ref(p) + x.ld_ref(q) * x.ld_ref(r));
            });
            b.finish()
        }
        const N: usize = 16;
        let sq: &[usize] = &[N, N];
        let rows = [(1, N as i64 - 2); 2];
        let stencil = |x: &NestCtx, [a, c, d]: [ArrayId; 3]| {
            [
                x.at(a, [0, -1]),
                x.at(a, [0, 1]),
                x.at(c, [0, 0]),
                x.at(d, [0, 0]),
            ]
        };
        let even = |arr, off| ArrayRef::new(arr, vec![AffineExpr::new(vec![2], off)]);
        // (what, sequence, planes array `a` is contracted to, row width).
        let cases = [
            (
                "control: unit stride, one coefficient vector, far stores",
                case([sq, sq, sq], &rows, stencil),
                None,
                ROW,
            ),
            (
                "wrap: a contracted array's modulo term",
                case([sq, sq, sq], &rows, stencil),
                Some(3),
                0,
            ),
            (
                "inner stride 2",
                case([&[2 * N]; 3], &[(0, N as i64 - 1)], |_, [a, c, d]| {
                    [even(a, 0), even(a, 1), even(c, 0), even(d, 0)]
                }),
                None,
                0,
            ),
            (
                "mixed coefficient vectors: rows of N and of 2N",
                case([sq, &[N, 2 * N], sq], &rows, stencil),
                None,
                0,
            ),
            (
                "Δ = 1: the store feeds the next iteration's load",
                case([&[N]; 3], &rows[..1], |x, [a, c, _]| {
                    [x.at(c, [0]), x.at(a, [-1]), x.at(c, [1]), x.at(a, [0])]
                }),
                None,
                0,
            ),
        ];
        for (what, seq, contract, width) in cases {
            let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
            if let Some(planes) = contract {
                m0.layout.contract(ArrayId(0), planes);
            }
            m0.init_deterministic(&seq, 5);
            let tape = ProgramTape::lower(&seq, &m0.layout);
            assert_eq!(tape.nests[0].row_width, width, "{what}");
            assert_eq!(tape.lane_safe_nests(), usize::from(width > 0), "{what}");
            // Evaluation order for the sink, product first for the rows.
            let stmt = &tape.nests[0].stmts[0];
            assert_eq!(stmt.loads, [0, 1, 2], "{what}");
            let mul = RowOp::Binary {
                op: BinOp::Mul,
                a: Operand::Row(1),
                b: Operand::Row(2),
                dst: 0,
            };
            assert_eq!(stmt.row.ops()[0], mul, "{what}");
            let mut mi = m0.clone();
            let mut si = RecordingSink::default();
            let ci = run_original(&seq, &mut mi, &mut si);
            assert!(!si.trace.is_empty(), "{what}");
            for rows in [false, true] {
                let what = format!("{what}, rows {rows}");
                let mut mt = m0.clone();
                let mut st = RecordingSink::default();
                let ct = Engine::Tape { tape: &tape, rows }.run_original(&seq, &mut mt, &mut st);
                assert_eq!(mi.snapshot_all(&seq), mt.snapshot_all(&seq), "{what}");
                assert_eq!(si.trace, st.trace, "{what}");
                assert_eq!(ci, ct, "{what}");
                let in_rows = if rows && width > 0 { ct.iters } else { 0 };
                assert_eq!(ct.vec_iters, in_rows, "{what}");
            }
        }
    }

    /// The three-address form of the two multiply-add shapes and of a
    /// pure copy: `Mul` then `Add` with the product as the operand the
    /// source had it as, rows read in place, and no instruction at all
    /// for a copy.
    #[test]
    fn row_programs_are_three_address_and_read_rows_in_place() {
        let mut b = SeqBuilder::new("rows");
        let [a, c, d, e] = ["a", "c", "d", "e"].map(|name| b.array(name, [8usize, 8]));
        b.nest("L1", [(1, 6), (1, 6)], |x| {
            // Patterns intern in evaluation order: a[0,0]=0, a[0,1]=1,
            // c[0,0]=2, then the store d[0,0]=3.
            let r = x.ld(a, [0, 0]) * x.ld(a, [0, 1]) + x.ld(c, [0, 0]);
            x.assign(d, [0, 0], r);
            let r = x.ld(c, [0, 0]) + x.ld(a, [0, 0]) * x.ld(a, [0, 1]);
            x.assign(d, [0, 0], r);
            let r = x.ld(a, [0, 0]);
            x.assign(e, [0, 0], r);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        let stmts = &tape.nests[0].stmts;
        let mul = RowOp::Binary {
            op: BinOp::Mul,
            a: Operand::Row(0),
            b: Operand::Row(1),
            dst: 0,
        };
        assert_eq!(
            stmts[0].row.ops(),
            [
                mul,
                RowOp::Binary {
                    op: BinOp::Add,
                    a: Operand::Temp(0),
                    b: Operand::Row(2),
                    dst: 1,
                },
            ]
        );
        assert_eq!(stmts[0].row.result(), Operand::Temp(1));
        assert_eq!(
            stmts[1].row.ops(),
            [
                mul,
                RowOp::Binary {
                    op: BinOp::Add,
                    a: Operand::Row(2),
                    b: Operand::Temp(0),
                    dst: 1,
                },
            ]
        );
        assert_eq!(stmts[1].row.result(), Operand::Temp(1));
        assert_eq!(stmts[2].row.ops(), []);
        assert_eq!(stmts[2].row.result(), Operand::Row(0));
    }

    /// A dependence at distance `MIN_ROW <= Δ < ROW` narrows the chunk to
    /// `Δ`: carried by the outer loop over rows of 12 and of 40 (one
    /// chunk per row, so `Δ` is also the widest chunk ever asked for),
    /// and carried by the inner loop itself at the same distances, where
    /// a trip of many `Δ`s would go wrong with any wider chunk.
    #[test]
    fn row_width_is_bounded_by_the_dependence_distance() {
        for delta in [12usize, 40] {
            let mut b = SeqBuilder::new("delta");
            let a = b.array("a", [6, delta]);
            let c = b.array("c", [6, delta]);
            let v = b.array("v", [10 * delta + 5]);
            b.nest("outer", [(1, 5), (0, delta as i64 - 1)], |x| {
                let r = x.ld(a, [-1, 0]) * 0.5 + x.ld(c, [0, 0]);
                x.assign(a, [0, 0], r);
            });
            b.nest("inner", [(delta as i64, 10 * delta as i64 + 4)], |x| {
                let r = x.ld(v, [-(delta as i64)]) * 0.5 + 1.0;
                x.assign(v, [0], r);
            });
            let seq = b.finish();
            let mut m1 = Memory::new(&seq, LayoutStrategy::Contiguous);
            m1.init_deterministic(&seq, 3);
            let mut m2 = m1.clone();
            let tape = ProgramTape::lower(&seq, &m2.layout);
            for nest in &tape.nests {
                assert_eq!(nest.row_width, delta);
            }
            let c1 = run_original(&seq, &mut m1, &mut NullSink);
            let c2 = Engine::Tape {
                tape: &tape,
                rows: true,
            }
            .run_original(&seq, &mut m2, &mut NullSink);
            assert_eq!(m1.snapshot_all(&seq), m2.snapshot_all(&seq), "Δ = {delta}");
            assert_eq!(c1, c2);
            assert_eq!(c2.vec_iters, c2.iters);
        }
    }

    /// Contracted (wrapped) arrays take the modulo slow path and must
    /// still match the interpreter bit for bit.
    #[test]
    fn tape_matches_interpreter_on_contracted_arrays() {
        let n = 12usize;
        let mut b = SeqBuilder::new("wrap");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n, n]);
        b.nest("L1", [(1, 10), (1, 10)], |x| {
            let r = x.ld(a, [-1, 0]) + x.ld(a, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        let seq = b.finish();
        let mut m1 = Memory::new(&seq, LayoutStrategy::Contiguous);
        m1.layout.contract(sp_ir::ArrayId(0), 3);
        m1.init_deterministic(&seq, 5);
        let mut m2 = m1.clone();
        let mut s1 = RecordingSink::default();
        run_original(&seq, &mut m1, &mut s1);
        let tape = ProgramTape::lower(&seq, &m2.layout);
        let mut s2 = RecordingSink::default();
        Engine::Tape {
            tape: &tape,
            rows: false,
        }
        .run_original(&seq, &mut m2, &mut s2);
        assert_eq!(s1.trace, s2.trace);
        assert_eq!(m1.snapshot_all(&seq), m2.snapshot_all(&seq));
    }
}

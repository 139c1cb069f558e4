//! The lowering pass: `Expr` trees + a memory layout → [`ProgramTape`].
//!
//! Lowering runs once per executor run (it is layout-bound) and does the
//! work the interpreter would otherwise repeat every iteration:
//!
//! * **Address precomputation** — every array reference collapses to an
//!   [`AccessPat`]: one base slot/byte-address plus a combined stride
//!   coefficient per loop level (`Σ_d coeff_d(l) · stride_d`), with
//!   identical references within a nest deduplicated. References into
//!   contracted arrays keep their dimension-0 subscript as a
//!   per-access modulo term.
//! * **Constant folding** — subtrees with constant operands fold at
//!   lower time, using the same `f64` operator implementations the
//!   interpreter applies so folded values are bit-identical.
//! * **Fused multiply-add recognition** — `Add(Mul(a, b), c)` and
//!   `Add(c, Mul(a, b))` become single three-operand micro-ops
//!   ([`MicroOp::MulAdd`]/[`MicroOp::AddMul`]); see the rounding and
//!   ordering invariants documented in [`crate::tape`].
//! * **Row programs** — each statement's postfix tape is also turned
//!   into the three-address [`RowStmt`] the row runner executes, and
//!   each nest gets its lane-safety verdict and row width.
//!
//! Work counters stay interpreter-exact because each statement carries
//! bulk `flops`/`loads` charges taken from the *original* tree.

use crate::tape::{
    AccessPat, MicroOp, NestTape, Operand, ProgramTape, RowOp, RowStmt, StmtTape, WrapPat, MIN_ROW,
    ROW,
};
use shift_peel_core::LoweringFootprint;
use sp_cache::MemoryLayout;
use sp_ir::{ArrayRef, BinOp, Expr, LoopSequence, UnaryOp};
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
        let mut rows = RowBuilder::default();
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
            let mut max_stack = 1usize;
            for stmt in &nest.body {
                let folded = fold(&stmt.rhs);
                let mut e = Emitter {
                    ops: Vec::with_capacity(footprint.max_rhs_nodes),
                    sp: 0,
                    max_sp: 0,
                };
                e.emit(&folded, &mut pats);
                debug_assert_eq!(e.sp, 1, "RHS tape must leave exactly one value");
                max_stack = max_stack.max(e.max_sp);
                stmts.push(StmtTape {
                    row: rows.build(&e.ops),
                    ops: e.ops,
                    store: pats.intern(&stmt.lhs),
                    // Charged from the original tree so counters match
                    // the interpreter despite folding.
                    flops: stmt.rhs.op_count() as u64,
                    loads: stmt.rhs.reads().len() as u64,
                });
            }
            let stores: Vec<u32> = stmts.iter().map(|st| st.store).collect();
            let width = row_width(&pats.pats, &stores, depth);
            nests.push(NestTape {
                depth,
                elem_bytes: layout.elem_bytes as i64,
                pats: pats.pats,
                stmts,
                max_stack,
                lane_safe: width.is_some(),
                row_width: width.unwrap_or(0),
            });
        }
        ProgramTape {
            nests,
            lower_nanos: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// Decides [`NestTape::lane_safe`] and [`NestTape::row_width`] for one
/// lowered nest: `Some(width)` when the row runner may execute it in
/// chunks of `width` consecutive inner iterations and still reproduce
/// the scalar backends bit for bit. The conditions (each documented on
/// [`NestTape`]):
///
/// 1. no contracted-array (`wrap`) references;
/// 2. every pattern's innermost coefficient is exactly 1 (unit stride);
/// 3. all patterns share one coefficient vector, making every
///    pattern-to-pattern slot distance a compile-time constant;
/// 4. for every store pattern `s` and every pattern `p`, the distance
///    `Δ = s.slot_base - p.slot_base` is `0` or `|Δ| >= MIN_ROW`.
///
/// The width is the smallest such non-zero `|Δ|`, capped at [`ROW`]: no
/// dependence at a distance shorter than a chunk can land inside one.
fn row_width(pats: &[AccessPat], stores: &[u32], depth: usize) -> Option<usize> {
    let first = pats.first()?;
    if pats.iter().any(|p| p.wrap.is_some()) {
        return None;
    }
    if pats.iter().any(|p| p.coeffs[depth - 1] != 1) {
        return None;
    }
    if pats.iter().any(|p| p.coeffs != first.coeffs) {
        return None;
    }
    let mut width = ROW as u64;
    for &idx in stores {
        let store = &pats[idx as usize];
        for p in pats {
            match (store.slot_base - p.slot_base).unsigned_abs() {
                0 => {}
                d if d < MIN_ROW as u64 => return None,
                d => width = width.min(d),
            }
        }
    }
    Some(width as usize)
}

/// Builds statements' row programs from their postfix tapes (see
/// [`RowStmt`]); one builder serves a whole lowering so its working
/// vectors are allocated once. A temporary is free again once the op
/// consuming it has been emitted, and a destination is picked before its
/// operands are freed, so no op writes a row it reads.
#[derive(Default)]
struct RowBuilder {
    stack: Vec<Operand>,
    out: Vec<RowOp>,
    /// `live[i]`: temporary `i` holds a value still on the stack.
    live: Vec<bool>,
}

impl RowBuilder {
    fn build(&mut self, ops: &[MicroOp]) -> RowStmt {
        self.live.clear();
        // The program is kept as long as the tape: size it exactly.
        self.out.reserve_exact(
            ops.iter()
                .map(|op| match op {
                    MicroOp::Const(_) | MicroOp::Load(_) => 0,
                    MicroOp::MulAdd | MicroOp::AddMul => 2,
                    _ => 1,
                })
                .sum(),
        );
        for op in ops {
            match *op {
                MicroOp::Const(c) => self.stack.push(Operand::Const(c)),
                MicroOp::Load(j) => self.stack.push(Operand::Row(j)),
                MicroOp::Add => self.binary_top(BinOp::Add),
                MicroOp::Sub => self.binary_top(BinOp::Sub),
                MicroOp::Mul => self.binary_top(BinOp::Mul),
                MicroOp::Div => self.binary_top(BinOp::Div),
                MicroOp::Min => self.binary_top(BinOp::Min),
                MicroOp::Max => self.binary_top(BinOp::Max),
                MicroOp::Neg => self.unary(UnaryOp::Neg),
                MicroOp::Abs => self.unary(UnaryOp::Abs),
                MicroOp::Sqrt => self.unary(UnaryOp::Sqrt),
                MicroOp::MulAdd => {
                    let (z, y, x) = (self.pop(), self.pop(), self.pop());
                    let t = self.binary(BinOp::Mul, x, y);
                    let r = self.binary(BinOp::Add, t, z);
                    self.stack.push(r);
                }
                MicroOp::AddMul => {
                    let (z, y, x) = (self.pop(), self.pop(), self.pop());
                    let t = self.binary(BinOp::Mul, y, z);
                    let r = self.binary(BinOp::Add, x, t);
                    self.stack.push(r);
                }
            }
        }
        let result = self.pop();
        debug_assert!(
            self.stack.is_empty(),
            "RHS tape must leave exactly one value"
        );
        RowStmt::new(std::mem::take(&mut self.out), result)
    }

    fn pop(&mut self) -> Operand {
        self.stack.pop().expect("postfix tape underflow")
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

    fn unary(&mut self, op: UnaryOp) {
        let a = self.pop();
        let dst = self.dst();
        self.out.push(RowOp::Unary { op, a, dst });
        self.free(a);
        self.stack.push(Operand::Temp(dst));
    }

    fn binary(&mut self, op: BinOp, a: Operand, b: Operand) -> Operand {
        let dst = self.dst();
        self.out.push(RowOp::Binary { op, a, b, dst });
        self.free(a);
        self.free(b);
        Operand::Temp(dst)
    }

    fn binary_top(&mut self, op: BinOp) {
        let b = self.pop();
        let a = self.pop();
        let r = self.binary(op, a, b);
        self.stack.push(r);
    }
}

/// Per-nest lane safety without lowering statement bodies: the decision
/// depends only on the interned access-pattern set and which patterns
/// are stored to, both of which are available straight from the IR.
/// This is the analysis behind [`crate::LaneSafetyPass`]; lowering
/// reaches the same verdicts because it interns the same references
/// against the same layout (constant folding never removes an array
/// reference, so the pattern sets coincide).
pub fn analyze_lane_safety(seq: &LoopSequence, layout: &MemoryLayout) -> Vec<bool> {
    seq.nests
        .iter()
        .map(|nest| {
            let depth = nest.depth();
            let mut pats = PatTable {
                layout,
                depth,
                refs: Vec::new(),
                pats: Vec::new(),
            };
            let mut stores = Vec::with_capacity(nest.body.len());
            for stmt in &nest.body {
                for r in stmt.rhs.reads() {
                    pats.intern(r);
                }
                stores.push(pats.intern(&stmt.lhs));
            }
            row_width(&pats.pats, &stores, depth).is_some()
        })
        .collect()
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

/// Folds constant subtrees with the interpreter's own operator
/// implementations (bit-identical results).
fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Load(_) => e.clone(),
        Expr::Unary(op, a) => match fold(a) {
            Expr::Const(c) => Expr::Const(op.apply(c)),
            fa => Expr::Unary(*op, Box::new(fa)),
        },
        Expr::Binary(op, a, b) => match (fold(a), fold(b)) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(op.apply(x, y)),
            (fa, fb) => Expr::Binary(*op, Box::new(fa), Box::new(fb)),
        },
    }
}

struct Emitter {
    ops: Vec<MicroOp>,
    sp: usize,
    max_sp: usize,
}

impl Emitter {
    fn push(&mut self, op: MicroOp, net: isize) {
        self.ops.push(op);
        self.sp = (self.sp as isize + net) as usize;
        self.max_sp = self.max_sp.max(self.sp);
    }

    /// Emits `e` in the interpreter's left-to-right evaluation order
    /// (operand order is load order is trace order).
    fn emit(&mut self, e: &Expr, pats: &mut PatTable<'_>) {
        match e {
            Expr::Const(c) => self.push(MicroOp::Const(*c), 1),
            Expr::Load(r) => {
                let i = pats.intern(r);
                self.push(MicroOp::Load(i), 1);
            }
            Expr::Unary(op, a) => {
                self.emit(a, pats);
                self.push(
                    match op {
                        UnaryOp::Neg => MicroOp::Neg,
                        UnaryOp::Abs => MicroOp::Abs,
                        UnaryOp::Sqrt => MicroOp::Sqrt,
                    },
                    0,
                );
            }
            Expr::Binary(BinOp::Add, a, b) => {
                // Multiply-add recognition; the left-multiply form wins
                // when both operands are products (identical rounding
                // either way, but operand order must follow evaluation
                // order).
                if let Expr::Binary(BinOp::Mul, x, y) = &**a {
                    self.emit(x, pats);
                    self.emit(y, pats);
                    self.emit(b, pats);
                    self.push(MicroOp::MulAdd, -2);
                } else if let Expr::Binary(BinOp::Mul, x, y) = &**b {
                    self.emit(a, pats);
                    self.emit(x, pats);
                    self.emit(y, pats);
                    self.push(MicroOp::AddMul, -2);
                } else {
                    self.emit(a, pats);
                    self.emit(b, pats);
                    self.push(MicroOp::Add, -1);
                }
            }
            Expr::Binary(op, a, b) => {
                self.emit(a, pats);
                self.emit(b, pats);
                self.push(
                    match op {
                        BinOp::Add => MicroOp::Add,
                        BinOp::Sub => MicroOp::Sub,
                        BinOp::Mul => MicroOp::Mul,
                        BinOp::Div => MicroOp::Div,
                        BinOp::Min => MicroOp::Min,
                        BinOp::Max => MicroOp::Max,
                    },
                    -1,
                );
            }
        }
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
    use sp_ir::SeqBuilder;

    fn stencil_seq() -> LoopSequence {
        let n = 10usize;
        let mut b = SeqBuilder::new("lower");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n, n]);
        b.nest("L1", [(1, 8), (1, 8)], |x| {
            // Exercises folding (2.0 + 1.0), FMA shapes, and unary ops.
            let r = x.ld(a, [0, 1]) * (Expr::Const(2.0) + Expr::Const(1.0))
                + (x.ld(a, [0, -1]) + x.ld(a, [1, 0]) * x.ld(a, [-1, 0]));
            x.assign(c, [0, 0], -r);
        });
        b.finish()
    }

    #[test]
    fn folding_collapses_constant_subtrees() {
        let e = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Const(3.0)),
            Box::new(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Const(1.0)),
                Box::new(Expr::Const(0.5)),
            )),
        );
        assert_eq!(fold(&e), Expr::Const(4.5));
    }

    #[test]
    fn mul_add_shapes_become_three_operand_ops() {
        let seq = stencil_seq();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        let ops = &tape.nests[0].stmts[0].ops;
        assert!(ops.contains(&MicroOp::MulAdd), "left-product add: {ops:?}");
        assert!(ops.contains(&MicroOp::AddMul), "right-product add: {ops:?}");
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
        assert!(tape.total_ops() > 0);
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
            let c2 = Engine::Compiled(&tape).run_original(&seq, &mut m2, &mut s2);
            assert_eq!(s1.trace, s2.trace, "{layout:?}");
            assert_eq!(m1.snapshot_all(&seq), m2.snapshot_all(&seq), "{layout:?}");
            assert_eq!(c1, c2, "{layout:?}");
            assert_eq!(c1.flops, c2.flops, "{layout:?}");
            assert_eq!(c1.loads, c2.loads, "{layout:?}");
        }
    }

    /// The lane-safety classifier: stencils over distinct arrays and
    /// outer-carried recurrences run in rows; inner serial recurrences
    /// and contracted arrays fall back to the scalar runner.
    #[test]
    fn lane_safety_classifies_nests() {
        let n = 16usize;
        let mut b = SeqBuilder::new("lanes");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n, n]);
        let v = b.array("v", [n]);
        // Distinct source/destination arrays: slot distance is the whole
        // inter-array gap (>= MIN_ROW), safe.
        b.nest("stencil", [(1, 14), (1, 14)], |x| {
            let r = x.ld(a, [0, -1]) + x.ld(a, [0, 1]);
            x.assign(c, [0, 0], r);
        });
        // Outer-carried recurrence: store a[i][j], load a[i-1][j] — the
        // slot distance is one row (n >= MIN_ROW), safe.
        b.nest("outer", [(1, 14), (1, 14)], |x| {
            let r = x.ld(a, [-1, 0]) + x.ld(c, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        // Inner serial recurrence: store v[i], load v[i-1] — distance 1
        // is below MIN_ROW, unsafe.
        b.nest("serial", [(1, 14)], |x| {
            let r = x.ld(v, [-1]) + Expr::Const(1.0);
            x.assign(v, [0], r);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        assert!(tape.nests[0].lane_safe, "distinct-array stencil");
        assert!(tape.nests[1].lane_safe, "outer-carried recurrence");
        assert!(!tape.nests[2].lane_safe, "inner serial recurrence");
        assert_eq!(tape.lane_safe_nests(), 2);
        // Contracting an array adds a wrap pattern, which disqualifies
        // every nest referencing it.
        let mut wrapped = Memory::new(&seq, LayoutStrategy::Contiguous);
        wrapped.layout.contract(sp_ir::ArrayId(0), 3);
        let tape = ProgramTape::lower(&seq, &wrapped.layout);
        assert!(!tape.nests[0].lane_safe, "wrap pattern disqualifies");
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
        assert_eq!(stmts[0].ops.last(), Some(&MicroOp::MulAdd));
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
        assert_eq!(stmts[1].ops.last(), Some(&MicroOp::AddMul));
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
                assert!(nest.lane_safe, "Δ = {delta} >= MIN_ROW");
                assert_eq!(nest.row_width, delta);
            }
            let c1 = run_original(&seq, &mut m1, &mut NullSink);
            let c2 = Engine::Simd(&tape).run_original(&seq, &mut m2, &mut NullSink);
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
        Engine::Compiled(&tape).run_original(&seq, &mut m2, &mut s2);
        assert_eq!(s1.trace, s2.trace);
        assert_eq!(m1.snapshot_all(&seq), m2.snapshot_all(&seq));
    }
}

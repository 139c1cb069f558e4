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
//! * **Row programs** — the operators left become the three-address
//!   [`RowOp`]s of the statement's [`RowStmt`], the one lowered form both
//!   runner widths execute; the loads are noted in evaluation order for
//!   the sink, and each nest gets its row width.
//! * **Division by a power of two** — `x / c` with `c = ±2^k` and `1 / c`
//!   a normal power of two becomes `x * (1 / c)`: the same correctly
//!   rounded real number, so the same bits for every `x`
//!   (see `pow2_reciprocal`).
//! * **Chains** — a peephole on the op just emitted: when an arithmetic
//!   operator's operand is the result of the arithmetic op emitted
//!   immediately before it, the two become one [`RowOp::Chain`], so
//!   `(p + q) / 4` and `r + t * u` are one pass over their rows instead of
//!   two. The shape comes from the tree, not from a catalogue of kernels;
//!   both roundings and the operand order stay, so the value cannot change.
//! * **Folds** — a pass over each statement's finished row program: a
//!   chain followed by the `Add` or `Sub` consuming its result become one
//!   [`RowOp::Fold`] where the three operators make `d ± c * (a ± b)` or
//!   `((a ± b) ± c) ± d`, so LL18's `zu + s * (…)` and `p + q - r - t`
//!   are one pass each. It merges only ops that would otherwise be a pass
//!   of their own, so a statement with no such pair lowers as before; all
//!   three roundings stay, in the source's order.
//!
//! Work counters stay interpreter-exact because each statement's `flops`
//! and load count are those of the *original* tree.

use crate::exec::ExecError;
use crate::tape::{
    chains, folds, AccessPat, NestTape, Operand, ProgramTape, RowOp, RowStmt, StmtTape, WrapPat,
    MIN_ROW,
};
use shift_peel_core::pipeline::Fnv1a64;
use sp_cache::MemoryLayout;
use sp_ir::{ArrayRef, BinOp, Expr, LoopSequence};
use std::time::Instant;

impl ProgramTape {
    /// Lowers every nest of `seq` against `layout`.
    pub fn lower(seq: &LoopSequence, layout: &MemoryLayout) -> ProgramTape {
        ProgramTape::lower_within(seq, layout, L1_BYTES)
    }

    /// [`ProgramTape::lower`] sizing row widths for an L1 data cache of
    /// `l1_bytes` instead of [`L1_BYTES`].
    pub(crate) fn lower_within(
        seq: &LoopSequence,
        layout: &MemoryLayout,
        l1_bytes: usize,
    ) -> ProgramTape {
        let t0 = Instant::now();
        // The largest RHS node count bounds both a statement's row-op
        // count and its load count, so the scratch rows never regrow.
        let max_rhs_nodes = seq
            .nests
            .iter()
            .flat_map(|n| &n.body)
            .map(|s| expr_nodes(&s.rhs))
            .max()
            .unwrap_or(0);
        let mut rows = RowBuilder {
            ops: Vec::with_capacity(max_rhs_nodes),
            loads: Vec::with_capacity(max_rhs_nodes),
            live: Vec::new(),
            consts: Vec::new(),
        };
        let mut nests = Vec::with_capacity(seq.len());
        for nest in &seq.nests {
            let depth = nest.depth();
            let mut pats = PatTable {
                layout,
                depth,
                refs: Vec::new(),
                pats: Vec::new(),
                store_slot: 0,
            };
            let mut stmts = Vec::with_capacity(nest.body.len());
            for stmt in &nest.body {
                // The destination first: the chain peephole asks which
                // rows are it.
                let store = pats.intern(&stmt.lhs);
                pats.store_slot = pats.pats[store as usize].slot_base;
                let result = rows.emit(&stmt.rhs, &mut pats);
                let result = rows.operand(result);
                let result = rows.fold(result, &pats);
                stmts.push(StmtTape {
                    // Kept as long as the tape: sized exactly.
                    row: RowStmt::new(rows.ops.to_vec(), result),
                    loads: rows.loads.to_vec(),
                    store,
                    // Charged from the original tree so counters match
                    // the interpreter despite folding.
                    flops: stmt.rhs.op_count() as u64,
                });
                rows.reset();
            }
            let mut tape = NestTape {
                depth,
                elem_bytes: layout.elem_bytes as i64,
                row_width: 0,
                pats: pats.pats,
                stmts,
                consts: std::mem::take(&mut rows.consts),
            };
            let inner = &nest.bounds[depth - 1];
            let trip = (inner.hi - inner.lo + 1).max(0) as usize;
            tape.row_width = row_width(&tape, trip, l1_bytes);
            nests.push(tape);
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

/// Nodes of `e`'s tree: an upper bound on both the row ops and the loads
/// a statement lowers to.
fn expr_nodes(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Load(_) => 1,
        Expr::Unary(_, a) => 1 + expr_nodes(a),
        Expr::Binary(_, a, b) => 1 + expr_nodes(a) + expr_nodes(b),
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

/// The L1 data cache a chunk's footprint is sized for: 32 KiB, what most
/// x86-64 and AArch64 cores have. Budgets from 24 to 192 KiB ran Jacobi
/// equally fast (EXPERIMENTS.md, "A row as wide as its nest's working
/// set"), so no host is asked for its own.
const L1_BYTES: usize = 32 << 10;

/// The widest chunk of a nest of more than one statement. A chunk runs
/// its statements one after another, each streaming its own rows, so the
/// wider it is the longer one statement's rows stream while the others'
/// wait. On LL18's two-statement position nest, 512 columns ran 8 %
/// slower than 128 in one binary although both fit L1; 128 is the width
/// every nest ran at before widths were sized per nest.
const MULTI_STMT_WIDTH: usize = 128;

/// Decides [`NestTape::row_width`] for one lowered nest whose inner loop
/// runs `trip` iterations, by the four conditions on the field's docs: no
/// `wrap` reference, unit inner stride, one shared coefficient vector, and
/// every store-to-pattern distance `Δ` either 0 or at least [`MIN_ROW`].
///
/// The width is then the largest that satisfies all of:
/// * at most the smallest non-zero `|Δ|`: no dependence at a distance
///   shorter than a chunk can land inside one;
/// * at most `trip`: no scratch row longer than a region can use;
/// * at most [`MULTI_STMT_WIDTH`] if the nest has several statements;
/// * a chunk's footprint fits `l1_bytes`, so every row an op writes is
///   still in L1 when a later op reads it. The footprint is the columns
///   the chunk's array rows cover — rows of patterns closer together than
///   the width overlap, so `a(i,j-1)`, `a(i,j)` and `a(i,j+1)` are one row
///   and two columns — plus one scratch row per temporary a chunk writes
///   and per broadcast constant, at the element size a column. This
///   bound alone never cuts the width below [`MIN_ROW`].
fn row_width(nest: &NestTape, trip: usize, l1_bytes: usize) -> usize {
    let pats = &nest.pats;
    let Some(first) = pats.first() else { return 0 };
    if pats
        .iter()
        .any(|p| p.wrap.is_some() || p.coeffs[nest.depth - 1] != 1 || p.coeffs != first.coeffs)
    {
        return 0;
    }
    let mut cap = trip;
    for st in &nest.stmts {
        let store = &pats[st.store as usize];
        for p in pats {
            match (store.slot_base - p.slot_base).unsigned_abs() {
                0 => {}
                d if d < MIN_ROW as u64 => return 0,
                d => cap = cap.min(d as usize),
            }
        }
    }
    if nest.stmts.len() > 1 {
        cap = cap.min(MULTI_STMT_WIDTH);
    }
    // Every pattern's row starts at its base plus the same offset.
    let mut bases: Vec<i64> = pats.iter().map(|p| p.slot_base).collect();
    bases.sort_unstable();
    bases.dedup();
    let rows = 1 + nest.chunk_temps() + nest.consts.len();
    let fits = |w: usize| {
        let overlapped: usize = bases
            .windows(2)
            .map(|b| w.min((b[1] - b[0]) as usize))
            .sum();
        (rows * w + overlapped) * nest.elem_bytes as usize <= l1_bytes
    };
    // The footprint grows with the width: bisect for the widest that fits.
    let (mut lo, mut hi) = (MIN_ROW.min(cap), cap);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
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
    /// Distinct constant operands of the nest's ops so far
    /// ([`NestTape::consts`]).
    consts: Vec<f64>,
}

/// A subtree's value while its statement is lowered: a constant, still
/// open to folding, or where an op finds it.
#[derive(Clone, Copy)]
enum Val {
    Const(f64),
    At(Operand),
}

impl RowBuilder {
    /// Emits the ops computing `e` and says where its value is. The walk
    /// is the interpreter's — left operand, right operand, operator — so
    /// patterns are interned and loads noted in evaluation order.
    /// Constants fold on the way up with the interpreter's own operator
    /// implementations.
    fn emit(&mut self, e: &Expr, pats: &mut PatTable<'_>) -> Val {
        match e {
            Expr::Const(c) => Val::Const(*c),
            Expr::Load(r) => {
                let j = pats.intern(r);
                self.loads.push(j);
                Val::At(Operand::Row(j))
            }
            Expr::Unary(op, a) => match self.emit(a, pats) {
                Val::Const(c) => Val::Const(op.apply(c)),
                Val::At(a) => {
                    let dst = self.dst();
                    self.ops.push(RowOp::Unary { op: *op, a, dst });
                    self.free(a);
                    Val::At(Operand::Temp(dst))
                }
            },
            Expr::Binary(op, a, b) => match (self.emit(a, pats), self.emit(b, pats)) {
                (Val::Const(x), Val::Const(y)) => Val::Const(op.apply(x, y)),
                (a, b) => {
                    let (op, b) = match (*op, b) {
                        (BinOp::Div, Val::Const(c)) => match pow2_reciprocal(c) {
                            Some(r) => (BinOp::Mul, Val::Const(r)),
                            None => (BinOp::Div, b),
                        },
                        other => other,
                    };
                    let (a, b) = (self.operand(a), self.operand(b));
                    let dst = self.chain(op, a, b, pats).unwrap_or_else(|| {
                        let dst = self.dst();
                        self.ops.push(RowOp::Binary { op, a, b, dst });
                        self.free(a);
                        self.free(b);
                        dst
                    });
                    Val::At(Operand::Temp(dst))
                }
            },
        }
    }

    /// Where an op finds `v`: a constant is looked up in the nest's
    /// constants by bit pattern, and added the first time it is met.
    fn operand(&mut self, v: Val) -> Operand {
        match v {
            Val::At(o) => o,
            Val::Const(c) => {
                let k = self.consts.iter().position(|k| k.to_bits() == c.to_bits());
                Operand::Const(k.unwrap_or_else(|| {
                    self.consts.push(c);
                    self.consts.len() - 1
                }) as u32)
            }
        }
    }

    /// The fold pass over the statement's row program, `result` being
    /// where its value is: every [`RowOp::Chain`] directly followed by the
    /// op consuming its result becomes one [`RowOp::Fold`] where
    /// [`fold_pair`] allows, and the temporaries are then picked again as
    /// emission would have picked them for the shorter program (the
    /// consumer's temporary may be one the chain reads, the chain's may be
    /// reused before the consumer's value is). Returns where the value is
    /// now.
    fn fold(&mut self, result: Operand, pats: &PatTable<'_>) -> Operand {
        let mut folded = false;
        let mut i = 0;
        while i + 1 < self.ops.len() {
            if let Some(op) = fold_pair(self.ops[i], self.ops[i + 1], pats) {
                self.ops[i] = op;
                self.ops.remove(i + 1);
                folded = true;
            }
            i += 1;
        }
        if !folded {
            return result;
        }
        // Each temporary is written once and read once after, so a read
        // of old name `t` means the value the last op writing `t` made.
        let mut names = vec![0u32; self.live.len()];
        self.live.clear();
        for k in 0..self.ops.len() {
            let mut op = self.ops[k];
            let (dst, srcs) = op.parts_mut();
            let srcs = srcs.map(|o| {
                let o = o?;
                if let Operand::Temp(t) = o {
                    *t = names[*t as usize];
                }
                Some(*o)
            });
            let old = *dst as usize;
            *dst = self.dst();
            names[old] = *dst;
            srcs.into_iter().flatten().for_each(|o| self.free(o));
            self.ops[k] = op;
        }
        match result {
            Operand::Temp(t) => Operand::Temp(names[t as usize]),
            o => o,
        }
    }

    /// The chain peephole: `outer(x, y)` where `x` or `y` is the result of
    /// the binary op just emitted, and both operators are arithmetic,
    /// rewrites that op into the [`RowOp::Chain`] computing both and says
    /// which temporary holds the value.
    ///
    /// The chain keeps the inner op's destination: that one was picked
    /// while the inner operands were live, whereas the free list could
    /// now hand out a temporary the inner op reads. And it is refused
    /// when an inner operand is the statement's destination row: should
    /// this chain end the statement, the row loops could read that row
    /// through the destination only as `c`.
    fn chain(&mut self, outer: BinOp, x: Operand, y: Operand, pats: &PatTable<'_>) -> Option<u32> {
        let last = self.ops.last_mut()?;
        let RowOp::Binary {
            op: inner,
            a,
            b,
            dst,
        } = *last
        else {
            return None;
        };
        // A live temporary is written by one op only, so the last op
        // writing `x`'s means `y` emitted nothing: a leaf.
        let (c, inner_right) = if x == Operand::Temp(dst) {
            (y, false)
        } else if y == Operand::Temp(dst) {
            (x, true)
        } else {
            return None;
        };
        if !(chains(inner) && chains(outer)) || pats.is_store(a) || pats.is_store(b) {
            return None;
        }
        *last = RowOp::Chain {
            inner,
            outer,
            a,
            b,
            c,
            inner_right,
            dst,
        };
        self.free(c);
        Some(dst)
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

/// `first` and `second` as one [`RowOp::Fold`], when `first` is a chain,
/// `second` an `Add` or `Sub` reading its result, and together they make
/// one of the fold's shapes with the chain's operands not the statement's
/// destination row:
///
/// * `d ± c * (a ± b)`: the chain's outer operator is `Mul`, either way
///   round; the consumer's `Add` either way round, its `Sub` with the
///   product on the right;
/// * `((a ± b) ± c) ± d`: the chain's outer `Add` either way round, its
///   `Sub` with the inner result on the left; the consumer's `Add` either
///   way round, its `Sub` with the chain's result on the left.
///
/// Taking an `Add` or a `Mul` either way round keeps the loops at one
/// orientation a triple and changes no value: IEEE addition and
/// multiplication commute (but for which NaN payload wins where two
/// different NaNs meet, which no backend promises).
fn fold_pair(first: RowOp, second: RowOp, pats: &PatTable<'_>) -> Option<RowOp> {
    let RowOp::Chain {
        inner,
        outer: mid,
        a,
        b,
        c,
        inner_right,
        dst,
    } = first
    else {
        return None;
    };
    let RowOp::Binary {
        op: outer,
        a: x,
        b: y,
        dst: last,
    } = second
    else {
        return None;
    };
    let t = Operand::Temp(dst);
    let (d, d_left) = match (x == t, y == t) {
        (true, false) => (y, false),
        (false, true) => (x, true),
        _ => return None,
    };
    // A `Sub` keeps its operand order: `c - (a ± b)`, and a consumer
    // whose `d` stands where the shape does not have it, stay two ops.
    if !folds(inner, mid, outer)
        || (mid == BinOp::Sub && inner_right)
        || (outer == BinOp::Sub && d_left != (mid == BinOp::Mul))
        || [a, b, c].into_iter().any(|o| pats.is_store(o))
    {
        return None;
    }
    Some(RowOp::Fold {
        inner,
        mid,
        outer,
        a,
        b,
        c,
        d,
        dst: last,
    })
}

/// `1 / c` when dividing by `c` can be lowered to multiplying by it: `c`
/// is a power of two (either sign) and so is its reciprocal, both normal.
/// Then `r` is exactly `1 / c`, so `x / c` and `x * r` are the correctly
/// rounded value of one and the same real number, and IEEE 754 leaves a
/// correctly rounded result no freedom: the bits are equal for every `x` —
/// zeros and subnormals, quotients that round into or out of the
/// subnormal range or overflow, infinities — and a NaN `x` comes out of
/// either operation as it went in. A vector division is several times a
/// multiplication's cost, and `/ 4.0` is how a stencil averages.
///
/// Anything else keeps its division: `3.0` has no exact reciprocal, that
/// of `2^1023` is subnormal, and zero, infinities and NaN are not powers
/// of two.
fn pow2_reciprocal(c: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let pow2 = |v: f64| v.is_normal() && v.to_bits() & MANTISSA == 0;
    let r = 1.0 / c;
    (pow2(c) && pow2(r)).then_some(r)
}

/// Interns deduplicated access patterns for one nest.
struct PatTable<'a> {
    layout: &'a MemoryLayout,
    depth: usize,
    refs: Vec<ArrayRef>,
    pats: Vec<AccessPat>,
    /// Base slot of the statement's store pattern.
    store_slot: i64,
}

impl PatTable<'_> {
    /// Whether `o` may be the row the statement stores to: a row-safe
    /// nest's patterns share one coefficient vector, so equal bases are
    /// equal rows (and elsewhere the answer only costs a chain).
    fn is_store(&self, o: Operand) -> bool {
        matches!(o, Operand::Row(j) if self.pats[j as usize].slot_base == self.store_slot)
    }

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
    /// still charge the original tree; and the fill runs as the
    /// interpreter's at both widths.
    #[test]
    fn folding_collapses_constant_subtrees() {
        let mut b = SeqBuilder::new("fold");
        let [a, c, f] = ["a", "c", "f"].map(|name| b.array(name, [8usize]));
        b.nest("L1", [(0, 7)], |x| {
            let k = Expr::Const(3.0) * (Expr::Const(1.0) + Expr::Const(0.5));
            x.assign(f, [0], k.clone());
            x.assign(c, [0], x.ld(a, [0]) * -k);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        let stmts = &tape.nests[0].stmts;
        assert_eq!(stmts[0].row.ops(), []);
        assert_eq!(stmts[0].row.result(), Operand::Const(0));
        // The statements' stores took patterns 0 and 1.
        assert_eq!(
            stmts[1].row.ops(),
            [RowOp::Binary {
                op: BinOp::Mul,
                a: Operand::Row(2),
                b: Operand::Const(1),
                dst: 0,
            }]
        );
        assert_eq!(tape.nests[0].consts, [4.5, -4.5]);
        assert_eq!((stmts[0].flops, stmts[1].flops), (2, 4));
        assert!(tape.nests[0].row_width > 0);
        let mut m0 = mem.clone();
        m0.init_deterministic(&seq, 3);
        assert_runs_match_the_interpreter(&seq, &tape, &m0, "fill");
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
        // The c[0] store is interned first; a[0] twice dedupes; a[1] is
        // distinct.
        assert_eq!(tape.nests[0].pats.len(), 3);
        assert_eq!(tape.nests[0].stmts[0].store, 0);
        assert_eq!(tape.nests[0].stmts[0].loads, [1, 1, 2]);
        // The two adds as one chain, and the store.
        assert_eq!(
            tape.nests[0].stmts[0].row.ops(),
            [RowOp::Chain {
                inner: BinOp::Add,
                outer: BinOp::Add,
                a: Operand::Row(1),
                b: Operand::Row(1),
                c: Operand::Row(2),
                inner_right: false,
                dst: 0,
            }]
        );
        assert_eq!(tape.total_ops(), 2);
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
            let c1 = Engine::Interp.run_original(&seq, &mut m1, &mut s1);
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
    /// distinct references, so the row program multiplies `q` and `r`
    /// before it reads `p` while the sink must still hear `p, q, r`; under
    /// both runner widths
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
                N - 2,
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
            // Evaluation order for the sink (the store took pattern 0),
            // product first for the rows: one chain, the sum outermost
            // with the product on its right.
            let stmt = &tape.nests[0].stmts[0];
            assert_eq!(stmt.loads, [1, 2, 3], "{what}");
            let mul_add = RowOp::Chain {
                inner: BinOp::Mul,
                outer: BinOp::Add,
                a: Operand::Row(2),
                b: Operand::Row(3),
                c: Operand::Row(1),
                inner_right: true,
                dst: 0,
            };
            assert_eq!(stmt.row.ops(), [mul_add], "{what}");
            let mut mi = m0.clone();
            let mut si = RecordingSink::default();
            let ci = Engine::Interp.run_original(&seq, &mut mi, &mut si);
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

    /// The row programs of the two multiply-add shapes, of in-place
    /// updates, of a chain `min` breaks, and of a pure copy: a chain where
    /// an arithmetic op consumes the arithmetic op just emitted — operand
    /// order kept, the inner op's temporary kept — rows read in place, the
    /// destination admitted to a chain as `c` only, and no instruction at
    /// all for a copy.
    #[test]
    fn row_programs_are_three_address_and_read_rows_in_place() {
        let mut b = SeqBuilder::new("rows");
        let [a, c, d, e] = ["a", "c", "d", "e"].map(|name| b.array(name, [8usize, 8]));
        b.nest("L1", [(1, 6), (1, 6)], |x| {
            // The store is interned first, then loads in evaluation
            // order: d[0,0]=0, a[0,0]=1, a[0,1]=2, c[0,0]=3.
            let r = x.ld(a, [0, 0]) * x.ld(a, [0, 1]) + x.ld(c, [0, 0]);
            x.assign(d, [0, 0], r);
            let r = x.ld(c, [0, 0]) + x.ld(a, [0, 0]) * x.ld(a, [0, 1]);
            x.assign(d, [0, 0], r);
            // In place: the destination as the outer operand chains, as
            // an inner operand it does not.
            let r = x.ld(d, [0, 0]) - 0.5 * x.ld(a, [0, 0]);
            x.assign(d, [0, 0], r);
            let r = x.ld(d, [0, 0]) * 0.5 - x.ld(a, [0, 0]);
            x.assign(d, [0, 0], r);
            // `min` is no half of a chain, and ends the one before it;
            // the chain after it takes a temporary as `c`.
            let m = Expr::Binary(
                BinOp::Min,
                Box::new(x.ld(a, [0, 0]) + x.ld(a, [0, 1])),
                Box::new(x.ld(c, [0, 0])),
            );
            x.assign(d, [0, 0], m / (x.ld(a, [0, 0]) - x.ld(c, [0, 0])));
            // e[0,0]=4.
            let r = x.ld(a, [0, 0]);
            x.assign(e, [0, 0], r);
        });
        let seq = b.finish();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = ProgramTape::lower(&seq, &mem.layout);
        let stmts = &tape.nests[0].stmts;
        let (d00, a00, a01, c00) = (
            Operand::Row(0),
            Operand::Row(1),
            Operand::Row(2),
            Operand::Row(3),
        );
        let mul_add = |inner_right| RowOp::Chain {
            inner: BinOp::Mul,
            outer: BinOp::Add,
            a: a00,
            b: a01,
            c: c00,
            inner_right,
            dst: 0,
        };
        assert_eq!(stmts[0].row.ops(), [mul_add(false)]);
        assert_eq!(stmts[1].row.ops(), [mul_add(true)]);
        assert_eq!(
            stmts[2].row.ops(),
            [RowOp::Chain {
                inner: BinOp::Mul,
                outer: BinOp::Sub,
                a: Operand::Const(0),
                b: a00,
                c: d00,
                inner_right: true,
                dst: 0,
            }]
        );
        assert_eq!(
            stmts[3].row.ops(),
            [
                RowOp::Binary {
                    op: BinOp::Mul,
                    a: d00,
                    b: Operand::Const(0),
                    dst: 0,
                },
                RowOp::Binary {
                    op: BinOp::Sub,
                    a: Operand::Temp(0),
                    b: a00,
                    dst: 1,
                },
            ]
        );
        assert_eq!(
            stmts[4].row.ops(),
            [
                RowOp::Binary {
                    op: BinOp::Add,
                    a: a00,
                    b: a01,
                    dst: 0,
                },
                RowOp::Binary {
                    op: BinOp::Min,
                    a: Operand::Temp(0),
                    b: c00,
                    dst: 1,
                },
                RowOp::Chain {
                    inner: BinOp::Sub,
                    outer: BinOp::Div,
                    a: a00,
                    b: c00,
                    c: Operand::Temp(1),
                    inner_right: true,
                    dst: 0,
                },
            ]
        );
        for st in &stmts[..5] {
            let (dst, _) = st.row.ops().last().unwrap().parts();
            assert_eq!(st.row.result(), Operand::Temp(dst));
        }
        assert_eq!(stmts[5].row.ops(), []);
        assert_eq!(stmts[5].row.result(), a00);
        assert_eq!(tape.nests[0].consts, [0.5]);
        assert_eq!((tape.chain_count(), tape.direct_store_count()), (4, 5));
    }

    const ARITH: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

    /// The row width the chunk-boundary tests below pin: their trips are
    /// a full chunk of it and a ragged one.
    const CHUNK: usize = 128;

    /// Lowers `seq` and sets its first nest, which must be row-safe with
    /// no store distance under `width`, `width` columns wide: the tables
    /// below hold more constants than any kernel, so the width rule alone
    /// would not give them the chunk the boundary cases need.
    fn lower_at(seq: &LoopSequence, layout: &MemoryLayout, width: usize) -> ProgramTape {
        let mut tape = ProgramTape::lower(seq, layout);
        let nest = &mut tape.nests[0];
        assert!(nest.row_width > 0, "row-safe");
        let store = |st: &StmtTape| nest.pats[st.store as usize].slot_base;
        let far = |st: &StmtTape| {
            let d = |p: &AccessPat| (store(st) - p.slot_base).unsigned_abs();
            nest.pats.iter().all(|p| d(p) == 0 || d(p) >= width as u64)
        };
        assert!(
            nest.stmts.iter().all(far),
            "no store distance under {width}"
        );
        nest.row_width = width;
        tape
    }

    /// What a chain operand of the table below is.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Row,
        Const,
        Temp,
        Dest,
    }
    const KINDS: [Kind; 4] = [Kind::Row, Kind::Const, Kind::Temp, Kind::Dest];

    /// One 1-D nest of 64 statements `d_s = outer(inner(a, b), c)` — or
    /// `outer(c, inner(a, b))` — one per choice of [`Kind`] for `a`, `b`
    /// and `c`, and four single ops in place: rows are the read-only `p`, `q`, `r`; temporaries are a
    /// `neg`, a `max` and an `abs` of them (so the `max` also sits where a
    /// chain could start and must not); the destination is the statement's
    /// own `d_s`, read at distance 0. Beside it, whether each statement's
    /// last op should be a chain. The trip is one full chunk and a ragged
    /// one.
    fn chain_table(inner: BinOp, outer: BinOp, inner_right: bool) -> (LoopSequence, Vec<bool>) {
        let n = CHUNK + 37;
        let mut b = SeqBuilder::new("chains");
        let [p, q, r] = ["p", "q", "r"].map(|name| b.array(name, [n]));
        let mut chained = Vec::new();
        let kinds = KINDS
            .iter()
            .flat_map(|&ka| KINDS.iter().map(move |&kb| (ka, kb)))
            .flat_map(|(ka, kb)| KINDS.iter().map(move |&kc| [ka, kb, kc]));
        let dests: Vec<_> = (0..68).map(|s| b.array(format!("d{s}"), [n])).collect();
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            for (ks, &d) in kinds.zip(&dests) {
                let operand = |pos: usize| match ks[pos] {
                    Kind::Row => x.ld([p, q, r][pos], [0]),
                    Kind::Const => Expr::Const([2.5, -0.75, 3.0][pos]),
                    Kind::Temp => match pos {
                        0 => -x.ld(p, [0]),
                        1 => {
                            Expr::Binary(BinOp::Max, Box::new(x.ld(q, [0])), Box::new(x.ld(p, [0])))
                        }
                        _ => Expr::Unary(sp_ir::UnaryOp::Abs, Box::new(x.ld(r, [0]))),
                    },
                    Kind::Dest => x.ld(d, [0]),
                };
                let inner_e = Expr::Binary(inner, Box::new(operand(0)), Box::new(operand(1)));
                let c = Box::new(operand(2));
                x.assign(
                    d,
                    [0],
                    if inner_right {
                        Expr::Binary(outer, c, Box::new(inner_e))
                    } else {
                        Expr::Binary(outer, Box::new(inner_e), c)
                    },
                );
                let [ka, kb, kc] = ks;
                // The inner op exists, is the op just emitted when the
                // outer one is, and keeps the destination out of itself.
                chained.push(
                    (ka, kb) != (Kind::Const, Kind::Const)
                        && (inner_right || kc != Kind::Temp)
                        && ka != Kind::Dest
                        && kb != Kind::Dest,
                );
            }
            // Single ops writing the row they read: both sides of a
            // binary op, each side, and a unary op.
            let [d0, d1, d2, d3] = dests[64..] else {
                unreachable!()
            };
            x.assign(
                d0,
                [0],
                Expr::Binary(outer, Box::new(x.ld(d0, [0])), Box::new(x.ld(d0, [0]))),
            );
            x.assign(
                d1,
                [0],
                Expr::Binary(inner, Box::new(x.ld(d1, [0])), Box::new(x.ld(p, [0]))),
            );
            x.assign(
                d2,
                [0],
                Expr::Binary(inner, Box::new(x.ld(q, [0])), Box::new(x.ld(d2, [0]))),
            );
            x.assign(d3, [0], -x.ld(d3, [0]));
            chained.extend([false; 4]);
        });
        (b.finish(), chained)
    }

    /// Values in ±(0.5, 1.5) with one special — NaN, ±Inf, −0.0, two
    /// subnormals — in every second column, in one array per column. One
    /// per column because `x + y` with two different NaNs is whichever the
    /// hardware's first source operand holds, and the compiler may commute
    /// an addition to fold a load: Rust promises no NaN payload, so bit
    /// equality is only asked where every NaN a column meets is the same.
    fn init_with_specials(mem: &mut Memory, seq: &LoopSequence) {
        const SPECIALS: [f64; 6] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            -1.1e-308,
        ];
        mem.init_deterministic(seq, 9);
        for i in 0..seq.arrays.len() {
            let id = ArrayId(i as u32);
            // `p`, `q`, `r`, and every other array as the fourth.
            let lane = i.min(3);
            let plain = mem.snapshot(seq, id);
            mem.fill_with(seq, id, |idx| {
                let k = idx[0] as usize;
                let m = k / 2;
                if k.is_multiple_of(2) && m % 4 == lane {
                    SPECIALS[(m / 4) % SPECIALS.len()]
                } else if k % 3 == 1 {
                    -plain[k]
                } else {
                    plain[k]
                }
            });
        }
    }

    /// Jacobi's stencil and copy, then LL18's velocity and position
    /// updates cut to two terms: 2-D rows, chains of every orientation,
    /// in-place updates, a pure copy.
    fn stencils_2d() -> LoopSequence {
        let n = 40usize;
        let mut b = SeqBuilder::new("stencils");
        let [a, c, za, zz, zu, zr] =
            ["a", "c", "za", "zz", "zu", "zr"].map(|name| b.array(name, [n, n]));
        let inner = [(1, n as i64 - 2); 2];
        b.nest("jacobi", inner, |x| {
            let r = (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
            x.assign(c, [0, 0], r);
        });
        b.nest("copy", inner, |x| {
            let r = x.ld(c, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        b.nest("hydro", inner, |x| {
            let r = x.ld(zu, [0, 0])
                + 0.0041
                    * (x.ld(za, [0, 0]) * (x.ld(zz, [0, 0]) - x.ld(zz, [0, 1]))
                        - x.ld(za, [0, -1]) * (x.ld(zz, [0, 0]) - x.ld(zz, [0, -1])));
            x.assign(zu, [0, 0], r);
            let r = x.ld(zr, [0, 0]) + 0.0037 * x.ld(zu, [0, 0]);
            x.assign(zr, [0, 0], r);
        });
        b.finish()
    }

    fn bits(mem: &Memory, seq: &LoopSequence) -> Vec<Vec<u64>> {
        let arrays = mem.snapshot_all(seq).into_iter();
        arrays
            .map(|a| a.into_iter().map(f64::to_bits).collect())
            .collect()
    }

    /// Every chain shape — 4 x 4 operator pairs, both orientations — over
    /// every kind of operand in every position: the fold happens exactly
    /// where it should, and at both runner widths memory is the
    /// interpreter's bit for bit on inputs full of NaN, infinities, −0.0
    /// and subnormals, the sink hears the same trace, the counters agree.
    ///
    /// Mutation-checked when written; each of these fails it: ignoring
    /// `inner_right` (at either width), swapping `a` and `b` in a chain
    /// loop, taking a constant from the wrong scratch row, swapping the
    /// operands of a binary loop whose right operand is the destination,
    /// a destination arm (unary, both-sides binary, chain `c`) that does
    /// not read the destination, and lowering a chain whose inner operand
    /// is the destination.
    #[test]
    fn chain_shapes_and_operand_kinds_match_the_interpreter_at_both_widths() {
        for (inner, outer) in ARITH.iter().flat_map(|&i| ARITH.map(|o| (i, o))) {
            for inner_right in [false, true] {
                let what = format!("{inner:?} then {outer:?}, inner on the right: {inner_right}");
                let (seq, chained) = chain_table(inner, outer, inner_right);
                let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
                init_with_specials(&mut m0, &seq);
                let tape = lower_at(&seq, &m0.layout, CHUNK);
                for (s, (st, &chained)) in tape.nests[0].stmts.iter().zip(&chained).enumerate() {
                    let last = st.row.ops().last();
                    assert_eq!(
                        matches!(last, Some(RowOp::Chain { .. })),
                        chained,
                        "{what}, statement {s}: {:?}",
                        st.row.ops()
                    );
                }
                assert_runs_match_the_interpreter(&seq, &tape, &m0, &what);
            }
        }
    }

    /// Runs `seq` from `m0` by the interpreter and by `tape` a column and
    /// a row at a time: memory bit for bit, the sink's trace and the
    /// counters are the interpreter's, and every iteration ran at the
    /// width asked for.
    fn assert_runs_match_the_interpreter(
        seq: &LoopSequence,
        tape: &ProgramTape,
        m0: &Memory,
        what: &str,
    ) {
        let mut mi = m0.clone();
        let mut si = RecordingSink::default();
        let ci = Engine::Interp.run_original(seq, &mut mi, &mut si);
        for rows in [false, true] {
            let mut mt = m0.clone();
            let mut st = RecordingSink::default();
            let ct = Engine::Tape { tape, rows }.run_original(seq, &mut mt, &mut st);
            for (s, (want, got)) in bits(&mi, seq).iter().zip(bits(&mt, seq)).enumerate() {
                assert_eq!(want, &got, "{what}, rows {rows}, array {s}");
            }
            assert_eq!(si.trace, st.trace, "{what}, rows {rows}");
            assert_eq!(ci, ct, "{what}, rows {rows}");
            assert_eq!(ct.vec_iters, if rows { ct.iters } else { 0 });
        }
    }

    /// One 1-D nest of 64 statements `d_s = outer(mid(inner(a, b), c), d)`
    /// in every arrangement a source can write — the inner result on
    /// either side of `mid`, the chain's result on either side of
    /// `outer`, `c` and `d` each of every [`Kind`] — with `a` and `b`
    /// taking turns at row, constant and temporary. Beside it, whether
    /// each statement's last op should be a fold. A constant `c` is 0.25,
    /// so `x / c` is the chain `Mul` by 4 and folds like a product.
    fn fold_table(inner: BinOp, mid: BinOp, outer: BinOp) -> (LoopSequence, Vec<bool>) {
        let n = CHUNK + 37;
        let mut b = SeqBuilder::new("folds");
        let [p, q, r, u] = ["p", "q", "r", "u"].map(|name| b.array(name, [n]));
        let dests: Vec<_> = (0..64).map(|s| b.array(format!("d{s}"), [n])).collect();
        let mut folded = Vec::new();
        let shapes = [false, true]
            .into_iter()
            .flat_map(|inner_right| [false, true].map(|d_left| (inner_right, d_left)))
            .flat_map(|sides| KINDS.map(move |kc| (sides, kc)))
            .flat_map(|(sides, kc)| KINDS.map(move |kd| (sides, kc, kd)));
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            for (s, (((inner_right, d_left), kc, kd), &dest)) in shapes.zip(&dests).enumerate() {
                let [ka, kb] = [
                    [Kind::Row, Kind::Row],
                    [Kind::Temp, Kind::Const],
                    [Kind::Const, Kind::Temp],
                ][s % 3];
                let operand = |kind: Kind, pos: usize| match kind {
                    Kind::Row => x.ld([p, q, r, u][pos], [0]),
                    Kind::Const => Expr::Const([2.5, -0.75, 0.25, 1.5][pos]),
                    Kind::Temp => match pos {
                        0 => -x.ld(p, [0]),
                        1 => {
                            Expr::Binary(BinOp::Max, Box::new(x.ld(q, [0])), Box::new(x.ld(p, [0])))
                        }
                        2 => Expr::Unary(sp_ir::UnaryOp::Abs, Box::new(x.ld(r, [0]))),
                        _ => Expr::Unary(sp_ir::UnaryOp::Abs, Box::new(x.ld(u, [0]))),
                    },
                    Kind::Dest => x.ld(dest, [0]),
                };
                let node = |op, l, r| Expr::Binary(op, Box::new(l), Box::new(r));
                let t = node(inner, operand(ka, 0), operand(kb, 1));
                let (c, d) = (operand(kc, 2), operand(kd, 3));
                let chain = if inner_right {
                    node(mid, c, t)
                } else {
                    node(mid, t, c)
                };
                let rhs = if d_left {
                    node(outer, d, chain)
                } else {
                    node(outer, chain, d)
                };
                x.assign(dest, [0], rhs);
                // A chain forms when the inner op is the one emitted just
                // before `mid`; a power-of-two divisor makes `mid` a `Mul`.
                let chained = inner_right || kc != Kind::Temp;
                let mid = match (mid, kc, inner_right) {
                    (BinOp::Div, Kind::Const, false) => BinOp::Mul,
                    _ => mid,
                };
                folded.push(
                    chained
                        && folds(inner, mid, outer)
                        && !(mid == BinOp::Sub && inner_right)
                        && !(outer == BinOp::Sub && d_left != (mid == BinOp::Mul))
                        && (d_left || kd != Kind::Temp)
                        && kc != Kind::Dest,
                );
            }
        });
        (b.finish(), folded)
    }

    /// Every fold — 12 operator triples — and every triple that is not
    /// one, in every arrangement of [`fold_table`]: the fold happens
    /// exactly where it should, and at both runner widths memory is the
    /// interpreter's bit for bit on inputs full of NaN, infinities, −0.0
    /// and subnormals, the sink hears the same trace, the counters agree.
    /// (`baseline_and_detected_row_loops_compute_equal_bits` runs the same
    /// tables on both row-loop bodies.)
    ///
    /// Mutation-checked when written; each of these fails it: computing
    /// `(a + b) + c` as `a + (b + c)`, putting `d` on the other side of
    /// the product shape's `Sub` (both widths), taking `c` for `d` in the
    /// row loop's destination arm, swapping `a` and `b` in the row loop,
    /// swapping `c` and `d` in the column runner only, folding a `Sub`
    /// consumer with `d` on either side, folding where `c` is the
    /// destination row, folding `c - (a - b)`, and keeping the
    /// consumer's temporary for the fold instead of picking them again.
    #[test]
    fn fold_shapes_and_operand_kinds_match_the_interpreter_at_both_widths() {
        let mut folds_met = 0;
        for (inner, mid, outer) in ARITH
            .iter()
            .flat_map(|&i| ARITH.map(|m| (i, m)))
            .flat_map(|(i, m)| ARITH.map(|o| (i, m, o)))
        {
            let what = format!("{inner:?}, {mid:?}, {outer:?}");
            let (seq, folded) = fold_table(inner, mid, outer);
            let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
            init_with_specials(&mut m0, &seq);
            let tape = lower_at(&seq, &m0.layout, CHUNK);
            for (s, (st, &folded)) in tape.nests[0].stmts.iter().zip(&folded).enumerate() {
                let last = st.row.ops().last();
                assert_eq!(
                    matches!(last, Some(RowOp::Fold { .. })),
                    folded,
                    "{what}, statement {s}: {:?}",
                    st.row.ops()
                );
            }
            folds_met += tape.fold_count();
            assert_runs_match_the_interpreter(&seq, &tape, &m0, &what);
        }
        // The check above is exact per statement; the total shows the
        // table does reach the folds it predicts.
        assert_eq!(folds_met, 272);
    }

    /// LL18 lowers to 18 passes and 6 stores: each flux statement to 3
    /// ops, its numerator `p + q - r - s` one fold; each velocity update
    /// to 5, three of its four terms folded into the running sum and
    /// `zu + s * (…)` one fold into the destination; each position update
    /// to one chain. Jacobi, where no chain is followed by its consumer,
    /// keeps the tape it lowered to before folds. Both run as the
    /// interpreter does.
    #[test]
    fn ll18_lowers_to_18_passes_and_jacobi_is_unchanged() {
        let seq = sp_kernels::ll18::sequence(16);
        let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
        init_with_specials(&mut m0, &seq);
        let tape = ProgramTape::lower(&seq, &m0.layout);
        let stmts = tape.nests.iter().flat_map(|n| &n.stmts);
        let ops: Vec<usize> = stmts.map(|s| s.row.ops().len()).collect();
        assert_eq!(ops, [3, 3, 5, 5, 1, 1]);
        assert_eq!(tape.total_ops(), 18 + 6);
        assert_eq!((tape.chain_count(), tape.fold_count()), (18, 8));
        assert_eq!(tape.direct_store_count(), 6);
        assert_runs_match_the_interpreter(&seq, &tape, &m0, "LL18");

        let seq = sp_kernels::jacobi::sequence(16);
        let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
        init_with_specials(&mut m0, &seq);
        let tape = ProgramTape::lower(&seq, &m0.layout);
        let [stencil, copy] = &tape.nests[..] else {
            panic!("jacobi is two nests");
        };
        let chain = |inner, outer, a, b, c, dst| RowOp::Chain {
            inner,
            outer,
            a,
            b,
            c,
            inner_right: false,
            dst,
        };
        let row = Operand::Row;
        assert_eq!(
            stencil.stmts[0].row,
            RowStmt::new(
                vec![
                    chain(BinOp::Add, BinOp::Add, row(1), row(2), row(3), 0),
                    chain(
                        BinOp::Add,
                        BinOp::Mul,
                        Operand::Temp(0),
                        row(4),
                        Operand::Const(0),
                        1
                    ),
                ],
                Operand::Temp(1)
            )
        );
        assert_eq!(stencil.consts, [0.25]);
        assert_eq!(copy.stmts[0].row, RowStmt::new(vec![], row(1)));
        assert_eq!((tape.total_ops(), tape.fold_count()), (4, 0));
        assert_runs_match_the_interpreter(&seq, &tape, &m0, "jacobi");
    }

    /// `2^e` for any `e` a double can hold, subnormal ones included.
    fn pow2(e: i32) -> f64 {
        assert!((-1074..=1023).contains(&e));
        if e >= -1022 {
            f64::from_bits(((e + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (e + 1074))
        }
    }

    /// Division by `±2^k` lowers to a multiplication by the reciprocal
    /// wherever that is a normal power of two, alone and as the outer half
    /// of a chain, and nowhere else; and at both runner widths the values
    /// are the interpreter's own division bit for bit — on NaN, infinities,
    /// zeros and subnormals, and on dividends picked per divisor so that
    /// the quotient lands one binade either side of the smallest
    /// subnormal, the smallest normal and the overflow threshold, with
    /// mantissas that have to round there.
    #[test]
    fn division_by_a_power_of_two_is_a_multiplication_with_equal_bits() {
        const KS: [i32; 8] = [-1022, -537, -1, 1, 2, 52, 1021, 1022];
        let rewritten: Vec<f64> = KS.iter().flat_map(|&k| [pow2(k), -pow2(k)]).collect();
        let kept = [
            3.0,
            pow2(1023),
            -pow2(1023),
            0.0,
            f64::NAN,
            f64::INFINITY,
            // A subnormal power of two, whose reciprocal overflows.
            pow2(-1030),
        ];
        let divisors: Vec<f64> = rewritten.iter().chain(&kept).copied().collect();

        // The dividends: the first 64 columns are `init_with_specials`'
        // own, then for each `k` the values whose quotient by `2^k` sits
        // around a boundary.
        let mut edge = Vec::new();
        for k in KS {
            for landing in [-1075, -1074, -1073, -1023, -1022, -1021, 1022, 1023] {
                let e = k + landing;
                if (-1074..=1023).contains(&e) {
                    for m in [1.0, 1.5, 1.0 + f64::EPSILON, 2.0 - f64::EPSILON] {
                        edge.extend([m * pow2(e), -m * pow2(e)]);
                    }
                }
            }
        }
        let n = 64 + edge.len();
        assert!(n > CHUNK, "more than one chunk");

        let mut b = SeqBuilder::new("pow2");
        let [p, q] = ["p", "q"].map(|name| b.array(name, [n]));
        let dests: Vec<_> = (0..2 * divisors.len())
            .map(|s| b.array(format!("d{s}"), [n]))
            .collect();
        b.nest("L1", [(0, n as i64 - 1)], |x| {
            for (pair, &c) in dests.chunks(2).zip(&divisors) {
                x.assign(pair[0], [0], x.ld(p, [0]) / c);
                x.assign(pair[1], [0], (x.ld(p, [0]) + x.ld(q, [0])) / c);
            }
        });
        let seq = b.finish();
        let mut m0 = Memory::new(&seq, LayoutStrategy::Contiguous);
        init_with_specials(&mut m0, &seq);
        let plain = m0.snapshot(&seq, p);
        m0.fill_with(&seq, p, |idx| {
            let k = idx[0] as usize;
            if k < 64 {
                plain[k]
            } else {
                edge[k - 64]
            }
        });

        let tape = lower_at(&seq, &m0.layout, CHUNK);
        let consts = &tape.nests[0].consts;
        for (pair, &c) in tape.nests[0].stmts.chunks(2).zip(&divisors) {
            let (want_op, want_c) = if rewritten.iter().any(|r| r.to_bits() == c.to_bits()) {
                (BinOp::Mul, 1.0 / c)
            } else {
                (BinOp::Div, c)
            };
            let [RowOp::Binary {
                op,
                b: Operand::Const(by),
                ..
            }] = *pair[0].row.ops()
            else {
                panic!("x / {c:e} lowered to {:?}", pair[0].row.ops());
            };
            let by = consts[by as usize];
            assert_eq!((op, by.to_bits()), (want_op, want_c.to_bits()), "x / {c:e}");
            let [RowOp::Chain {
                inner: BinOp::Add,
                outer,
                c: Operand::Const(by),
                inner_right: false,
                ..
            }] = *pair[1].row.ops()
            else {
                panic!("(x + y) / {c:e} lowered to {:?}", pair[1].row.ops());
            };
            let by = consts[by as usize];
            assert_eq!(
                (outer, by.to_bits()),
                (want_op, want_c.to_bits()),
                "(x + y) / {c:e}"
            );
            // The counters charge the division the source wrote.
            assert_eq!((pair[0].flops, pair[1].flops), (1, 2));
        }

        let mut mi = m0.clone();
        let mut si = RecordingSink::default();
        let ci = Engine::Interp.run_original(&seq, &mut mi, &mut si);
        for rows in [false, true] {
            let mut mt = m0.clone();
            let mut st = RecordingSink::default();
            let ct = Engine::Tape { tape: &tape, rows }.run_original(&seq, &mut mt, &mut st);
            for (s, (want, got)) in bits(&mi, &seq).iter().zip(bits(&mt, &seq)).enumerate() {
                assert_eq!(want, &got, "rows {rows}, array {s}");
            }
            assert_eq!(si.trace, st.trace, "rows {rows}");
            assert_eq!(ci, ct, "rows {rows}");
        }
        // The boundaries were met: among the rewritten divisions are
        // normal dividends that became zeros and subnormals, and finite
        // ones that became infinities.
        let dividends = mi.snapshot(&seq, p);
        let met = |f: &dyn Fn(f64, f64) -> bool| {
            (0..rewritten.len()).any(|i| {
                let quotients = mi.snapshot(&seq, dests[2 * i]);
                dividends[64..]
                    .iter()
                    .zip(&quotients[64..])
                    .any(|(&x, &y)| f(x, y))
            })
        };
        assert!(met(&|x, y| x.is_normal() && y == 0.0));
        assert!(met(&|x, y| x.is_normal() && y.is_subnormal()));
        assert!(met(&|x, y| x.is_finite() && y.is_infinite()));
    }

    /// The two compilations of the row loops compute the same bits: every
    /// nest of the chain and fold tables and of a 2-D sequence with Jacobi's and
    /// LL18's statement shapes, whole regions run once by the baseline
    /// body and once by what the host detects. (On a
    /// host without AVX2 both are the baseline body and this is vacuous.)
    #[test]
    fn baseline_and_detected_row_loops_compute_equal_bits() {
        use crate::interp::ExecCounters;
        use crate::memory::MemView;
        use crate::tape::{exec_region_tape, RowIsa, RowScratch};
        let mut seqs = vec![stencils_2d()];
        for (inner, outer) in ARITH.iter().flat_map(|&i| ARITH.map(|o| (i, o))) {
            seqs.extend([false, true].map(|right| chain_table(inner, outer, right).0));
            seqs.extend(ARITH.map(|mid| fold_table(inner, mid, outer).0));
        }
        for seq in &seqs {
            let mut m0 = Memory::new(seq, LayoutStrategy::Contiguous);
            init_with_specials(&mut m0, seq);
            let tape = ProgramTape::lower(seq, &m0.layout);
            let run = |isa| {
                let mut mem = m0.clone();
                let mut scratch = RowScratch::on(isa);
                let view = MemView::new(&mut mem);
                for (nest, tape) in seq.nests.iter().zip(&tape.nests) {
                    assert!(tape.row_width > 0);
                    let (mut sink, mut counters) = (NullSink, ExecCounters::default());
                    // SAFETY: single-threaded, and the tape was lowered
                    // against this memory's layout.
                    unsafe {
                        exec_region_tape(
                            tape,
                            &nest.space(),
                            true,
                            &view,
                            &mut sink,
                            &mut scratch,
                            &mut counters,
                        )
                    };
                }
                bits(&mem, seq)
            };
            assert_eq!(run(RowIsa::Baseline), run(RowIsa::detect()), "{}", seq.name);
        }
    }

    /// A dependence at distance `Δ >= MIN_ROW` narrows the chunk to `Δ`:
    /// carried by the outer loop over rows of 12 and of 40 (one
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
            let c1 = Engine::Interp.run_original(&seq, &mut m1, &mut NullSink);
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

    /// The width rule under an explicit L1 budget, one bound at a time:
    /// each case is a 1-D nest `c(i) = rhs` over arrays of 8-byte
    /// elements, lowered with `budget` bytes of L1.
    #[test]
    fn row_width_is_the_widest_chunk_that_fits_the_budget() {
        fn width(
            trip: usize,
            budget: usize,
            rhs: impl Fn(&NestCtx, [ArrayId; 2]) -> Expr,
        ) -> usize {
            let n = trip + 64;
            let mut b = SeqBuilder::new("width");
            let ids = [b.array("a", [n]), b.array("b", [n])];
            let v = b.array("c", [n]);
            b.nest("L1", [(32, 31 + trip as i64)], |x| {
                let r = rhs(x, ids);
                x.assign(v, [0], r);
            });
            let seq = b.finish();
            let layout = Memory::new(&seq, LayoutStrategy::Contiguous).layout;
            ProgramTape::lower_within(&seq, &layout, budget).nests[0].row_width
        }
        // Bytes of `rows` full rows of `w` columns.
        let rows = |rows: usize, w: usize| rows * w * 8;
        let sum = |x: &NestCtx, [a, b]: [ArrayId; 2]| x.ld(a, [0]) + x.ld(b, [0]);
        let three_taps =
            |x: &NestCtx, [a, _]: [ArrayId; 2]| x.ld(a, [-1]) + x.ld(a, [0]) + x.ld(a, [1]);
        // `min` ends no chain: a temporary, then `* 0.5 + 2.0` as a
        // chain writing `c`. Three rows, one temporary, two constants.
        let scratch = |x: &NestCtx, [a, b]: [ArrayId; 2]| {
            Expr::Binary(BinOp::Min, Box::new(x.ld(a, [0])), Box::new(x.ld(b, [0]))) * 0.5 + 2.0
        };
        let cases = [
            (
                "the trip caps a nest that fits",
                width(100, 1 << 20, sum),
                100,
            ),
            ("L1 caps a long trip", width(4000, rows(3, 500), sum), 500),
            ("a byte short", width(4000, rows(3, 500) - 1, sum), 499),
            (
                "rows closer than the width are one: 2w + 2 columns, not 4w",
                width(4000, 8 * (2 * 500 + 2), three_taps),
                500,
            ),
            (
                "temporaries and constants are scratch rows: six, not three",
                width(4000, rows(6, 300), scratch),
                300,
            ),
            (
                "MIN_ROW floors a budget nothing fits",
                width(4000, 8, sum),
                MIN_ROW,
            ),
            ("the floor is no wider than the trip", width(5, 8, sum), 5),
        ];
        for (what, got, want) in cases {
            assert_eq!(got, want, "{what}");
        }
        // The dependence bound: a store 40 slots from a load caps the
        // width at 40 under any budget; closer than MIN_ROW refuses rows.
        let carried = |delta: i64| {
            let mut b = SeqBuilder::new("carried");
            let v = b.array("v", [4096usize]);
            b.nest("L1", [(delta, 4095)], |x| {
                let r = x.ld(v, [-delta]) * 0.5 + 1.0;
                x.assign(v, [0], r);
            });
            let seq = b.finish();
            let layout = Memory::new(&seq, LayoutStrategy::Contiguous).layout;
            ProgramTape::lower_within(&seq, &layout, 1 << 20).nests[0].row_width
        };
        assert_eq!(carried(40), 40);
        assert_eq!(carried(MIN_ROW as i64), MIN_ROW);
        assert_eq!(carried(MIN_ROW as i64 - 1), 0);
    }

    /// A nest of two statements keeps [`MULTI_STMT_WIDTH`] under any
    /// budget, where the same rows in one statement run the whole trip;
    /// the trip and the L1 bound still cut it.
    #[test]
    fn several_statements_keep_the_multi_statement_width() {
        let width = |stmts: usize, trip: usize, budget: usize| {
            let mut b = SeqBuilder::new("stmts");
            let [p, q, r] = ["p", "q", "r"].map(|name| b.array(name, [trip]));
            b.nest("L1", [(0, trip as i64 - 1)], |x| {
                let v = x.ld(p, [0]) * 0.5;
                x.assign(q, [0], v);
                if stmts > 1 {
                    let v = x.ld(p, [0]) * 0.25;
                    x.assign(r, [0], v);
                }
            });
            let seq = b.finish();
            let layout = Memory::new(&seq, LayoutStrategy::Contiguous).layout;
            ProgramTape::lower_within(&seq, &layout, budget).nests[0].row_width
        };
        assert_eq!(width(1, 4096, 1 << 20), 4096, "one statement");
        assert_eq!(width(2, 4096, 1 << 20), MULTI_STMT_WIDTH, "two");
        assert_eq!(width(2, 100, 1 << 20), 100, "the trip still caps");
        // Three rows and two constants, 8 B a column.
        assert_eq!(width(2, 4096, 5 * 8 * 64), 64, "and so does L1");
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
        Engine::Interp.run_original(&seq, &mut m1, &mut s1);
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

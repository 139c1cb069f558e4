//! Lowered kernels: one row program per statement, executed a row or a
//! column at a time.
//!
//! The interpreter in [`crate::interp`] walks an `Expr` tree and
//! re-derives every affine address from scratch at every iteration
//! point. A [`ProgramTape`] is the lowered alternative: each statement's
//! RHS becomes, once (see [`crate::lower`]), a three-address [`RowStmt`]
//! — constants folded, every array reference collapsed to an
//! [`AccessPat`], a precomputed base slot/address plus one combined
//! stride coefficient per loop level. That is the only lowered form, and
//! [`exec_region_tape`] is its only runner, at one of two widths:
//!
//! * **a column at a time** (`Backend::Compiled`, and every nest that is
//!   not row-safe): each [`RowOp`] is applied to one value held in a
//!   register file, and each access pattern's offset is advanced
//!   incrementally along the row, so an iteration is register arithmetic
//!   plus pointer reads — no recursion, no subscript vectors, no
//!   per-access layout walks;
//! * **a row at a time** (`Backend::Simd`, nests with a non-zero
//!   `NestTape::row_width`): each [`RowOp`] is one slice loop over a
//!   chunk of up to that many consecutive inner iterations — as many as
//!   keep the chunk's rows, temporaries and constants in a 32 KiB L1
//!   data cache — so dispatch is paid once per op per chunk, the loops
//!   are the shape the compiler vectorizes (and are compiled once more
//!   for AVX2, see [`RowIsa`]), array rows are read in place, temporaries
//!   stay in an L1-resident scratch, and a statement's last op writes its
//!   destination row itself.
//!
//! **Equivalence contract.** Either width must be observationally
//! identical to the interpreter on the same schedule: same results bit
//! for bit, same access stream (addresses in the same order, so cache
//! simulations produce identical per-processor miss counts), and same
//! work counters. Lowering and the runner guarantee this between them:
//!
//! 1. every op is sp-ir's own `UnaryOp::apply`/`BinOp::apply`, once per
//!    column — `a * b + c` stays two separately rounded operations, also
//!    when one [`RowOp::Chain`] applies both, as `d - c * (a - b)` stays
//!    three in one [`RowOp::Fold`] — and constant folding uses the same
//!    implementations. The one op that is not the source's own is
//!    `x * (1 / c)` for `x / c` where `c` and `1 / c` are both normal
//!    powers of two: `1 / c` is then exact, so both expressions are the
//!    correctly rounded value of the same real number and IEEE 754 gives
//!    them the same bits for every `x` (zeros, subnormals, results that
//!    underflow or overflow, infinities; a NaN passes through either);
//! 2. a row program may read its operands in another order than the
//!    interpreter evaluates them (`a + b * c` reads `b` and `c` first),
//!    which no value can see because nothing is stored before a
//!    statement's last op; the sink is told each statement's
//!    `StmtTape::loads`, which *is* the interpreter's order, and only
//!    when it declares by [`AccessSink::OBSERVES`] that it is looking;
//! 3. running a chunk statement-major instead of iteration-major would
//!    reorder the access stream too, so a row-wide chunk's accesses are
//!    replayed to the sink in scalar order before it computes;
//! 4. the [`ExecCounters`] work fields are charged once per region from
//!    the *original* (pre-folding) expression tree.

use crate::interp::{exec_region, ExecCounters};
use crate::memory::{MemView, Memory};
use crate::sink::AccessSink;
use sp_ir::{AffineExpr, BinOp, IterSpace, LoopSequence, UnaryOp};

/// Shortest non-zero store-to-reference distance the row width accepts
/// (see `NestTape::row_width`), and the narrowest width the L1 budget
/// cuts a chunk to. A nest carrying a dependence closer than this would
/// run in rows too short to pay for their dispatch; it runs a column at
/// a time.
pub const MIN_ROW: usize = 8;

/// The dimension-0 part of a reference into a *contracted* array
/// (`ArrayPlacement::wrap`): the plane subscript must be reduced modulo
/// the wrap window at every point, so it cannot join the linear
/// [`AccessPat::coeffs`] and is re-evaluated per access instead.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WrapPat {
    /// Physical planes allocated (the modulo).
    pub(crate) wrap: i64,
    /// Element stride of dimension 0.
    pub(crate) stride0: i64,
    /// The dimension-0 subscript expression.
    pub(crate) sub: AffineExpr,
}

/// A fully precomputed array reference: the flat element offset is
/// affine in the iteration point, `slot = slot_base + coeffs · point`
/// (plus a modulo term for contracted arrays).
///
/// Exactness: with `addr = start + off * elem_bytes` and integral
/// per-point offset `off`, `floor(addr / elem_bytes) = floor(start /
/// elem_bytes) + off`, so splitting the layout's slot computation into a
/// lowered base plus a per-point linear term reproduces the
/// interpreter's slots and byte addresses exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessPat {
    /// Flat element slot of the reference at point `0`, folded with the
    /// constant parts of every subscript.
    pub(crate) slot_base: i64,
    /// Byte address of the reference at point `0`.
    pub(crate) addr_base: i64,
    /// Combined element stride per loop level: `coeffs[l]` is the slot
    /// delta when loop variable `l` increases by one.
    pub(crate) coeffs: Vec<i64>,
    /// Set for references into contracted arrays; `None` on the fast
    /// path.
    pub(crate) wrap: Option<WrapPat>,
}

impl AccessPat {
    /// The per-point variable offset given the incrementally maintained
    /// linear part `cur` (wrap references add their modulo term here).
    #[inline]
    fn var(&self, cur: i64, point: &[i64]) -> i64 {
        match &self.wrap {
            None => cur,
            Some(w) => cur + (w.sub.eval(point) % w.wrap) * w.stride0,
        }
    }
}

/// Where a [`RowOp`] finds an input, or a [`RowStmt`] its result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Temporary row `i` of the worker's [`RowScratch`].
    Temp(u32),
    /// The array row the nest's access pattern `j` addresses, read in
    /// place.
    Row(u32),
    /// The nest's constant `k` (`NestTape::consts`), the same in every
    /// column: at row width scratch row `k`, broadcast once per region.
    Const(u32),
}

/// One instruction of a row program: a whole-row operation writing
/// temporary `dst`. `Copy`, so lowering's peephole rewrites the op it just
/// emitted in place.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowOp {
    /// `dst = op(a)`.
    Unary {
        /// The operator, applied per column.
        op: UnaryOp,
        /// Its input.
        a: Operand,
        /// Temporary written.
        dst: u32,
    },
    /// `dst = op(a, b)`.
    Binary {
        /// The operator, applied per column.
        op: BinOp,
        /// Left input.
        a: Operand,
        /// Right input.
        b: Operand,
        /// Temporary written.
        dst: u32,
    },
    /// Two arithmetic operators in one pass: `dst = outer(inner(a, b), c)`,
    /// or `outer(c, inner(a, b))` when `inner_right`. Each column is still
    /// two separately rounded operations with the source's operand order —
    /// exactly what the two [`RowOp::Binary`] ops it stands for compute —
    /// so it differs from them only in never storing the inner result.
    Chain {
        /// The operator applied first; `Add`, `Sub`, `Mul` or `Div`.
        inner: BinOp,
        /// The operator applied to the inner result and `c`; likewise.
        outer: BinOp,
        /// Left input of `inner`.
        a: Operand,
        /// Right input of `inner`.
        b: Operand,
        /// The other input of `outer`.
        c: Operand,
        /// Whether the inner result is `outer`'s right operand.
        inner_right: bool,
        /// Temporary written.
        dst: u32,
    },
    /// Three arithmetic operators in one pass: a [`RowOp::Chain`] and the
    /// `Add` or `Sub` consuming its result, in one of two shapes that
    /// `mid` tells apart:
    ///
    /// * `mid` is `Mul`: `dst = d outer (c * (a inner b))` — a scaled sum
    ///   or difference accumulated into `d`, as in LL18's velocity terms;
    /// * `mid` is `Add` or `Sub`: `dst = ((a inner b) mid c) outer d` — a
    ///   running sum, as in LL18's flux numerators.
    ///
    /// `inner` and `outer` are `Add` or `Sub`. Each column is three
    /// separately rounded operations applied in the source's order; the
    /// operands of an `Add` or a `Mul` may stand in the other order than
    /// the source wrote them, which changes no value (only which payload
    /// survives where two different NaNs meet, which no backend promises).
    Fold {
        /// The operator applied first.
        inner: BinOp,
        /// The operator applied to the inner result and `c`.
        mid: BinOp,
        /// The operator applied last, between `d` and the rest.
        outer: BinOp,
        /// Left input of `inner`.
        a: Operand,
        /// Right input of `inner`.
        b: Operand,
        /// The other input of `mid`.
        c: Operand,
        /// The other input of `outer`.
        d: Operand,
        /// Temporary written.
        dst: u32,
    },
}

impl RowOp {
    /// The temporary written and the operands read.
    pub(crate) fn parts(&self) -> (u32, [Option<Operand>; 4]) {
        match *self {
            RowOp::Unary { a, dst, .. } => (dst, [Some(a), None, None, None]),
            RowOp::Binary { a, b, dst, .. } => (dst, [Some(a), Some(b), None, None]),
            RowOp::Chain { a, b, c, dst, .. } => (dst, [Some(a), Some(b), Some(c), None]),
            RowOp::Fold {
                a, b, c, d, dst, ..
            } => (dst, [Some(a), Some(b), Some(c), Some(d)]),
        }
    }

    /// [`RowOp::parts`], to rewrite in place.
    pub(crate) fn parts_mut(&mut self) -> (&mut u32, [Option<&mut Operand>; 4]) {
        match self {
            RowOp::Unary { a, dst, .. } => (dst, [Some(a), None, None, None]),
            RowOp::Binary { a, b, dst, .. } => (dst, [Some(a), Some(b), None, None]),
            RowOp::Chain { a, b, c, dst, .. } => (dst, [Some(a), Some(b), Some(c), None]),
            RowOp::Fold {
                a, b, c, d, dst, ..
            } => (dst, [Some(a), Some(b), Some(c), Some(d)]),
        }
    }
}

/// Whether `op` may be half of a [`RowOp::Chain`]: the four arithmetic
/// operators. `Min`/`Max` stay single ops, which bounds the row loops a
/// chain needs at 4 x 4 operator pairs.
pub(crate) fn chains(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
}

/// Whether `(inner, mid, outer)` is a [`RowOp::Fold`]'s operators: `Add`
/// or `Sub` first and last, `Add`, `Sub` or `Mul` between — 12 triples.
pub(crate) fn folds(inner: BinOp, mid: BinOp, outer: BinOp) -> bool {
    let pm = |op| matches!(op, BinOp::Add | BinOp::Sub);
    pm(inner) && (pm(mid) || mid == BinOp::Mul) && pm(outer)
}

/// One column of a [`RowOp::Fold`], in the shape `mid` picks. Both runner
/// widths call it, the row loops with constant operators.
#[inline(always)]
fn fold_value(inner: BinOp, mid: BinOp, outer: BinOp, a: f64, b: f64, c: f64, d: f64) -> f64 {
    let t = inner.apply(a, b);
    match mid {
        BinOp::Mul => outer.apply(d, BinOp::Mul.apply(c, t)),
        _ => outer.apply(mid.apply(t, c), d),
    }
}

/// One statement's RHS as a row program: a `Load` or `Const` leaf is an
/// [`Operand`] and emits nothing (a row is read where it is consumed — no
/// store intervenes within a statement), and the operators of the folded
/// tree are [`RowOp`]s writing temporaries — one each, or one per two or
/// three where lowering found a chain or a fold.
#[derive(Clone, Debug, PartialEq)]
pub struct RowStmt {
    ops: Vec<RowOp>,
    result: Operand,
    /// Temporaries named (one more than the highest index).
    temps: usize,
}

impl RowStmt {
    /// A row program computing `result` by running `ops` in order.
    ///
    /// # Panics
    /// Panics if an op writes a temporary it also reads (the row runner
    /// hands each op's destination and sources to a slice loop as
    /// non-overlapping rows), if a chain names `Min` or `Max` or a fold
    /// operators [`RowOp::Fold`] does not list, or if
    /// `result` is not what the last op wrote (at row width the last op
    /// writes the destination row itself and `result` is not consulted).
    pub fn new(ops: Vec<RowOp>, result: Operand) -> RowStmt {
        let temp = |o: Operand| match o {
            Operand::Temp(i) => Some(i),
            _ => None,
        };
        let mut temps = temp(result).map_or(0, |i| i as usize + 1);
        for op in &ops {
            let (dst, srcs) = op.parts();
            let srcs = srcs.map(|o| o.and_then(temp));
            assert!(
                !srcs.contains(&Some(dst)),
                "row op {op:?} writes a temporary it reads"
            );
            match *op {
                RowOp::Chain { inner, outer, .. } => assert!(
                    chains(inner) && chains(outer),
                    "row op {op:?} chains a non-arithmetic operator"
                ),
                RowOp::Fold {
                    inner, mid, outer, ..
                } => assert!(
                    folds(inner, mid, outer),
                    "row op {op:?} folds operators no fold loop has"
                ),
                _ => {}
            }
            for i in srcs.into_iter().flatten().chain([dst]) {
                temps = temps.max(i as usize + 1);
            }
        }
        match ops.last() {
            Some(last) => assert_eq!(
                result,
                Operand::Temp(last.parts().0),
                "a row program's result is what its last op wrote"
            ),
            None => assert!(
                temp(result).is_none(),
                "a row program without ops cannot yield temporary {result:?}"
            ),
        }
        RowStmt { ops, result, temps }
    }

    /// The instructions, in execution order.
    pub fn ops(&self) -> &[RowOp] {
        &self.ops
    }

    /// Where the value to store is once the instructions ran: the last
    /// instruction's temporary, or — for a pure copy or fill, which has
    /// no instructions — an array row or one of the nest's constants.
    pub fn result(&self) -> Operand {
        self.result
    }
}

/// One lowered statement.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtTape {
    /// The RHS as a row program.
    pub(crate) row: RowStmt,
    /// Access-pattern index of every RHS load, in the interpreter's
    /// evaluation order: what the sink is told, and — folding never
    /// removes a load — how many loads the original tree charges per
    /// iteration.
    pub(crate) loads: Vec<u32>,
    /// Access-pattern index of the store target.
    pub(crate) store: u32,
    /// Arithmetic ops of the *original* RHS tree, charged per iteration
    /// so counters match the interpreter despite folding.
    pub(crate) flops: u64,
}

/// One loop nest's lowered body.
#[derive(Clone, Debug, PartialEq)]
pub struct NestTape {
    /// Loop depth the access patterns' coefficients are indexed by.
    pub(crate) depth: usize,
    /// Element size in bytes (from the layout the tape was lowered for).
    pub(crate) elem_bytes: i64,
    /// Deduplicated access patterns shared by the nest's statements.
    pub(crate) pats: Vec<AccessPat>,
    /// The statements, in program order.
    pub(crate) stmts: Vec<StmtTape>,
    /// Most consecutive inner iterations the runner may execute as one
    /// chunk and still reproduce the interpreter bit for bit; 0 when the
    /// nest only runs a column at a time. Decided once at lowering. A
    /// nest is row-safe when
    ///
    /// * it has no contracted-array (`wrap`) references — their modulo
    ///   term is not affine in the column index;
    /// * every access pattern's innermost coefficient is exactly 1, so a
    ///   chunk of `n` iterations touches `n` consecutive slots — a row —
    ///   per pattern;
    /// * all patterns share one coefficient vector, so the slot distance
    ///   between any two patterns is the constant `Δ = slot_base
    ///   difference` at every iteration point;
    /// * for every store pattern and every pattern, `Δ == 0` or `|Δ| >=
    ///   MIN_ROW`,
    ///
    /// and its width is then the largest that is at most the smallest
    /// non-zero `|Δ|` and the nest's inner trip, and whose chunk
    /// footprint fits a 32 KiB L1 data cache (never cut below `MIN_ROW`
    /// for that), and at most 128 in a nest of several statements;
    /// `crate::lower` has the footprint.
    ///
    /// A chunk runs statement-major — statement 1 for all its
    /// iterations, then statement 2 — where the interpreter runs
    /// iteration-major. A store at iteration `i` and another reference
    /// at iteration `i'` touch the same slot exactly when `i' - i = Δ`.
    /// With `Δ == 0` both fall in one iteration, and their order there
    /// is statement order (and loads before the store within a
    /// statement) either way. With `|Δ|` at least the chunk width they
    /// never share a chunk, and chunks run in iteration order. So no
    /// pair of conflicting accesses is reordered.
    ///
    /// The same bound is what lets a statement's last op write the
    /// destination row itself: within a chunk every row the statement
    /// reads is either disjoint from the destination row (`|Δ|` at least
    /// the chunk width) or *exactly* it (`Δ == 0`, as in `zu = zu + …`),
    /// never a partial overlap. A disjoint row is read as a slice; the
    /// destination is read column by column through the one `&mut` slice
    /// that also writes it ([`Src::Dest`]), each column before it is
    /// written. Lowering keeps the destination out of a final chain's
    /// inner operands and out of all but a fold's last (see
    /// [`crate::lower`]), so a chain meets it as `c` only and a fold as
    /// `d`.
    pub(crate) row_width: usize,
    /// The distinct constants the statements name ([`Operand::Const`]
    /// indexes them), by bit pattern. At row width each is broadcast into
    /// a scratch row once per region — constant `k` into row `k` — so
    /// every operand of a row loop is a row and the loops are not
    /// multiplied by an operand-kind product.
    pub(crate) consts: Vec<f64>,
}

impl NestTape {
    /// Row ops across all statements (stores count as one each).
    pub fn op_count(&self) -> u64 {
        self.stmts.iter().map(|s| s.row.ops.len() as u64 + 1).sum()
    }

    /// Temporaries the widest statement's row program names.
    fn row_temps(&self) -> usize {
        self.stmts.iter().map(|s| s.row.temps).max().unwrap_or(0)
    }

    /// Temporaries a chunk writes: those of every op but a statement's
    /// last, which writes the destination row instead.
    pub(crate) fn chunk_temps(&self) -> usize {
        let written = |s: &StmtTape| {
            let body = s.row.ops.split_last().map_or(&[][..], |(_, body)| body);
            body.iter().map(|op| op.parts().0 as usize + 1).max()
        };
        self.stmts.iter().filter_map(written).max().unwrap_or(0)
    }
}

/// A worker's reusable working memory for [`exec_region_tape`]: the
/// temporaries (rows of them, or one register each), the odometer and the
/// per-pattern offsets. It grows to what the widest nest it meets needs
/// and is then reused, so steady-state region calls do not touch the
/// allocator at either width.
#[derive(Debug)]
pub struct RowScratch {
    temps: Vec<f64>,
    point: Vec<i64>,
    offs: Vec<i64>,
    /// Which row loops this worker runs: what the host has, detected once
    /// when the scratch is made.
    isa: RowIsa,
}

impl Default for RowScratch {
    fn default() -> Self {
        RowScratch::on(RowIsa::detect())
    }
}

impl RowScratch {
    /// A scratch whose chunks run `isa`'s row loops. Private to the crate:
    /// nothing outside picks an ISA, and `Avx2` is only sound where
    /// [`RowIsa::detect`] found it (tests pass `Baseline` to compare the
    /// two bodies on an AVX2 host).
    pub(crate) fn on(isa: RowIsa) -> Self {
        RowScratch {
            temps: Vec::new(),
            point: Vec::new(),
            offs: Vec::new(),
            isa,
        }
    }
}

/// A whole sequence lowered against one [`sp_cache::MemoryLayout`]:
/// one [`NestTape`] per nest, indexed like `seq.nests`.
///
/// Tapes are schedule-independent: shift-and-peel reindexes *iteration
/// spaces*, never statement bodies, so the same nest tape serves the
/// serial, blocked, fused, and peeled phases of any plan. They are,
/// however, bound to the layout they were lowered for (base addresses
/// and strides are baked in) — lower again after changing the layout.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramTape {
    /// Per-nest tapes, indexed by nest position in the sequence.
    pub(crate) nests: Vec<NestTape>,
    /// Fingerprint of the layout the tape was lowered against; an
    /// executor checks it before running a tape it was handed.
    pub(crate) layout_fp: u64,
    /// Wall time the lowering pass took.
    pub(crate) lower_nanos: u64,
}

impl ProgramTape {
    /// Wall time the lowering pass took, in nanoseconds.
    pub fn lower_nanos(&self) -> u64 {
        self.lower_nanos
    }

    /// Total row ops and stores across every nest (the tape-size counter
    /// reported in [`crate::report::RunReport`]).
    pub fn total_ops(&self) -> u64 {
        self.nests.iter().map(|n| n.op_count()).sum()
    }

    /// Row ops across every nest that apply several operators in one
    /// pass over a chunk: [`RowOp::Chain`]s and [`RowOp::Fold`]s.
    pub fn chain_count(&self) -> u64 {
        self.count_ops(|op| matches!(op, RowOp::Chain { .. } | RowOp::Fold { .. }))
    }

    /// Of [`ProgramTape::chain_count`], the three-operator
    /// [`RowOp::Fold`]s.
    pub fn fold_count(&self) -> u64 {
        self.count_ops(|op| matches!(op, RowOp::Fold { .. }))
    }

    fn count_ops(&self, f: impl Fn(&RowOp) -> bool) -> u64 {
        let stmts = self.nests.iter().flat_map(|n| &n.stmts);
        stmts.flat_map(|s| &s.row.ops).filter(|op| f(op)).count() as u64
    }

    /// Statements whose last op writes the destination row itself at row
    /// width — every statement that has an op; copies and fills have none.
    pub fn direct_store_count(&self) -> u64 {
        let stmts = self.nests.iter().flat_map(|n| &n.stmts);
        stmts.filter(|s| !s.row.ops.is_empty()).count() as u64
    }

    /// Deduplicated access patterns across every nest.
    pub fn pattern_count(&self) -> usize {
        self.nests.iter().map(|n| n.pats.len()).sum()
    }

    /// Nests with a non-zero `NestTape::row_width`; the rest run a
    /// column at a time under `Backend::Simd` too.
    pub fn lane_safe_nests(&self) -> usize {
        self.nests.iter().filter(|n| n.row_width > 0).count()
    }

    /// The widest `NestTape::row_width` of any nest: the most
    /// consecutive inner iterations `Backend::Simd` runs as one chunk; 0
    /// when every nest runs a column at a time.
    pub fn max_row_width(&self) -> usize {
        self.nests.iter().map(|n| n.row_width).max().unwrap_or(0)
    }
}

/// Which execution backend a driver loop uses for nest bodies: the
/// recursive interpreter, or a lowered [`ProgramTape`] at one of its two
/// widths.
///
/// All backends are observationally identical (results, access stream,
/// counters); they differ only in speed. The engine is `Copy` so worker
/// closures can capture it by value.
#[derive(Clone, Copy, Debug)]
pub enum Engine<'a> {
    /// Walk `Expr` trees per iteration ([`crate::interp`]).
    Interp,
    /// Execute the lowered row programs ([`exec_region_tape`]).
    Tape {
        /// The lowered program.
        tape: &'a ProgramTape,
        /// Whether row-safe nests run a chunk of up to their
        /// `NestTape::row_width` inner iterations at a time
        /// (`Backend::Simd`) or, like every other nest, a column at a
        /// time (`Backend::Compiled`).
        rows: bool,
    },
}

impl Engine<'_> {
    /// Executes every iteration of `region` through nest `nest_idx`'s
    /// body with this backend.
    ///
    /// # Safety
    /// As [`exec_region`]: the caller upholds [`MemView`]'s contract —
    /// the region must not conflict with regions concurrently executed
    /// by other threads.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exec_region<S: AccessSink>(
        &self,
        seq: &LoopSequence,
        view: &MemView<'_>,
        nest_idx: usize,
        region: &IterSpace,
        sink: &mut S,
        scratch: &mut RowScratch,
        counters: &mut ExecCounters,
    ) {
        match *self {
            // SAFETY: forwarded from caller.
            Engine::Interp => unsafe { exec_region(seq, view, nest_idx, region, sink, counters) },
            Engine::Tape { tape, rows } => {
                let nest = &tape.nests[nest_idx];
                // SAFETY: forwarded from caller.
                unsafe { exec_region_tape(nest, region, rows, view, sink, scratch, counters) }
            }
        }
    }

    /// Serial reference execution with this backend: every nest in
    /// program order over its full iteration space. Under
    /// [`Engine::Interp`] this defines the semantics every transformed
    /// schedule and every backend must reproduce bit for bit.
    pub fn run_original<S: AccessSink>(
        &self,
        seq: &LoopSequence,
        mem: &mut Memory,
        sink: &mut S,
    ) -> ExecCounters {
        let mut counters = ExecCounters::default();
        let mut scratch = RowScratch::default();
        let view = MemView::new(mem);
        for k in 0..seq.nests.len() {
            let space = seq.nests[k].space();
            // SAFETY: single-threaded execution; no concurrent access.
            unsafe { self.exec_region(seq, &view, k, &space, sink, &mut scratch, &mut counters) };
        }
        counters
    }
}

/// Executes every iteration of `region` through a lowered nest.
///
/// One hand-rolled odometer walks the region's inner rows (innermost
/// level fastest, matching `IterSpace::for_each`), and a row runs at one
/// of two widths over the same [`RowStmt`]s:
///
/// * with `rows` set and a non-zero `NestTape::row_width`, in chunks of
///   at most that many consecutive iterations, a chunk statement by
///   statement and each [`RowOp`] as one slice loop over the whole chunk
///   (`run_chunk`); why that order is legal is argued on
///   `NestTape::row_width`;
/// * otherwise a column at a time (`run_columns`), iteration-major like
///   the interpreter, each pattern's offset advanced incrementally.
///
/// Every column goes through the same separately rounded `f64`
/// operations either way, so results are bit for bit the interpreter's.
///
/// Access-stream parity: an observing sink ([`AccessSink::OBSERVES`])
/// is told every access in exact scalar order (iteration → statement →
/// RHS loads in evaluation order → store) — per iteration at one column,
/// per chunk before the chunk computes at row width — so cache
/// simulations see the address sequence the interpreter produces. The
/// work counters are charged once, for the whole region.
///
/// # Safety
/// As [`exec_region`]: the caller upholds [`MemView`]'s contract, and
/// the tape must have been lowered against `view`'s layout.
pub unsafe fn exec_region_tape<S: AccessSink>(
    nest: &NestTape,
    region: &IterSpace,
    rows: bool,
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut RowScratch,
    counters: &mut ExecCounters,
) {
    if region.is_empty() {
        return;
    }
    let depth = region.depth();
    debug_assert_eq!(
        depth, nest.depth,
        "region depth must match the lowered nest"
    );
    let width = if rows { nest.row_width } else { 0 };
    let inner = depth - 1;
    let (ilo, ihi) = region.bounds[inner];
    let trip = (ihi - ilo + 1) as usize;
    let RowScratch {
        temps,
        point,
        offs,
        isa,
    } = scratch;
    let need = if width > 0 {
        (nest.row_temps() + nest.consts.len()) * width
    } else {
        nest.row_temps()
    };
    if temps.len() < need {
        temps.resize(need, 0.0);
    }
    if width > 0 {
        // No chunk of this region is longer than `trip`.
        for (row, &c) in temps.chunks_exact_mut(width).zip(&nest.consts) {
            row[..width.min(trip)].fill(c);
        }
    }
    point.clear();
    point.extend(region.bounds.iter().map(|&(lo, _)| lo));
    'rows: loop {
        if width > 0 {
            // Row-safe patterns share one coefficient vector with
            // innermost coefficient 1: one offset places every
            // pattern's row.
            let row_off = dot(&nest.pats[0].coeffs, point);
            let mut t = 0usize;
            while t < trip {
                let n = width.min(trip - t);
                let off = row_off + t as i64;
                if S::OBSERVES {
                    replay_chunk(nest, off, n, sink);
                }
                // SAFETY: forwarded from caller; `temps` holds the
                // nest's constants and temporaries as rows of `width >=
                // n` elements (resized and filled above).
                unsafe { run_chunk(*isa, nest, off, n, view, temps) };
                t += n;
            }
        } else {
            // SAFETY: forwarded from caller; `temps` holds one register
            // per temporary (resized above).
            unsafe { run_columns(nest, point, trip, view, sink, offs, temps) };
        }
        for l in (0..inner).rev() {
            let (lo, hi) = region.bounds[l];
            point[l] += 1;
            if point[l] <= hi {
                continue 'rows;
            }
            point[l] = lo;
        }
        break;
    }
    let iters = region.len() as u64;
    counters.iters += iters;
    if width > 0 {
        counters.vec_iters += iters;
    }
    for st in &nest.stmts {
        counters.flops += st.flops * iters;
        counters.loads += st.loads.len() as u64 * iters;
    }
    counters.stores += nest.stmts.len() as u64 * iters;
}

/// One inner row a column at a time: the `trip` iterations starting at
/// `point`, iteration-major. `offs[j]` is pattern `j`'s linear offset,
/// set at the row's first point and advanced by the pattern's innermost
/// coefficient per column; `regs[i]` is temporary `i`.
///
/// # Safety
/// As [`exec_region_tape`]; `regs` must hold `nest.row_temps()` values.
unsafe fn run_columns<S: AccessSink>(
    nest: &NestTape,
    point: &mut [i64],
    trip: usize,
    view: &MemView<'_>,
    sink: &mut S,
    offs: &mut Vec<i64>,
    regs: &mut [f64],
) {
    let eb = nest.elem_bytes;
    let inner = point.len() - 1;
    let ilo = point[inner];
    offs.clear();
    offs.extend(nest.pats.iter().map(|p| dot(&p.coeffs, point)));
    for _ in 0..trip {
        // Pattern `j` and its offset from its bases at this point.
        let at = |j: u32| {
            let pat = &nest.pats[j as usize];
            (pat, pat.var(offs[j as usize], point))
        };
        for st in &nest.stmts {
            if S::OBSERVES {
                for &j in &st.loads {
                    let (pat, var) = at(j);
                    sink.access((pat.addr_base + var * eb) as u64, false);
                }
            }
            let val = |o: Operand, regs: &[f64]| match o {
                Operand::Temp(i) => regs[i as usize],
                Operand::Row(j) => {
                    let (pat, var) = at(j);
                    // SAFETY: forwarded from caller; the pattern
                    // reproduces the layout's slot exactly.
                    unsafe { view.read_slot((pat.slot_base + var) as usize) }
                }
                Operand::Const(k) => nest.consts[k as usize],
            };
            for op in &st.row.ops {
                match *op {
                    RowOp::Unary { op, a, dst } => regs[dst as usize] = op.apply(val(a, regs)),
                    RowOp::Binary { op, a, b, dst } => {
                        regs[dst as usize] = op.apply(val(a, regs), val(b, regs))
                    }
                    RowOp::Chain {
                        inner,
                        outer,
                        a,
                        b,
                        c,
                        inner_right,
                        dst,
                    } => {
                        let (t, c) = (inner.apply(val(a, regs), val(b, regs)), val(c, regs));
                        regs[dst as usize] = if inner_right {
                            outer.apply(c, t)
                        } else {
                            outer.apply(t, c)
                        };
                    }
                    RowOp::Fold {
                        inner,
                        mid,
                        outer,
                        a,
                        b,
                        c,
                        d,
                        dst,
                    } => {
                        let (a, b, c, d) = (val(a, regs), val(b, regs), val(c, regs), val(d, regs));
                        regs[dst as usize] = fold_value(inner, mid, outer, a, b, c, d);
                    }
                }
            }
            let v = val(st.row.result, regs);
            let (pat, var) = at(st.store);
            sink.access((pat.addr_base + var * eb) as u64, true);
            // SAFETY: forwarded from caller.
            unsafe { view.write_slot((pat.slot_base + var) as usize, v) };
        }
        point[inner] += 1;
        for (o, p) in offs.iter_mut().zip(&nest.pats) {
            *o += p.coeffs[inner];
        }
    }
    point[inner] = ilo;
}

/// Reports the `n` iterations starting `off` slots past every pattern's
/// base to the sink, in scalar order: iteration → statement → RHS loads
/// in evaluation order → store.
fn replay_chunk<S: AccessSink>(nest: &NestTape, off: i64, n: usize, sink: &mut S) {
    let eb = nest.elem_bytes;
    for var in off..off + n as i64 {
        for st in &nest.stmts {
            for &j in &st.loads {
                sink.access((nest.pats[j as usize].addr_base + var * eb) as u64, false);
            }
            sink.access(
                (nest.pats[st.store as usize].addr_base + var * eb) as u64,
                true,
            );
        }
    }
}

/// Which compilation of the row loops runs a chunk. The loops are plain
/// Rust compiled twice from one body (`chunk_body`): as the build's
/// target has them, and with AVX2 enabled for hosts that report it. Both
/// apply the same separately rounded IEEE operation to every column —
/// `fma` is deliberately not enabled, a contracted multiply-add rounds
/// once — so they differ in width, never in bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowIsa {
    /// The build target's baseline (SSE2 on x86-64).
    Baseline,
    /// 256-bit AVX2 loops; x86-64 hosts that report `avx2`.
    Avx2,
}

impl RowIsa {
    /// What this host runs: AVX2 where the CPU reports it, else baseline.
    pub fn detect() -> RowIsa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return RowIsa::Avx2;
        }
        RowIsa::Baseline
    }

    /// `avx2` or `baseline`, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            RowIsa::Baseline => "baseline",
            RowIsa::Avx2 => "avx2",
        }
    }
}

/// One chunk — the `n` iterations starting `off` slots past every
/// pattern's base, statement by statement — by the row loops `isa` names.
///
/// # Safety
/// As [`exec_region_tape`]; `temps` must hold the nest's constants,
/// broadcast, and then its temporaries as rows of `nest.row_width >= n`
/// elements; `isa` must be `Baseline` or what [`RowIsa::detect`] found.
unsafe fn run_chunk(
    isa: RowIsa,
    nest: &NestTape,
    off: i64,
    n: usize,
    view: &MemView<'_>,
    temps: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if isa == RowIsa::Avx2 {
        // SAFETY: forwarded from caller, who says the CPU has AVX2.
        return unsafe { chunk_avx2(nest, off, n, view, temps) };
    }
    let _ = isa;
    // SAFETY: forwarded from caller.
    unsafe { chunk_body(nest, off, n, view, temps) }
}

/// [`chunk_body`] compiled with AVX2 enabled: every row loop is inlined
/// into it, so the vectorizer emits them 256 bits wide.
///
/// # Safety
/// As [`run_chunk`], on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_avx2(nest: &NestTape, off: i64, n: usize, view: &MemView<'_>, temps: &mut [f64]) {
    // SAFETY: forwarded from caller.
    unsafe { chunk_body(nest, off, n, view, temps) }
}

/// An input row of a row loop: `n` values read as a slice, or the row
/// the loop writes.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// A temporary, a broadcast constant, or an array row disjoint from
    /// the row being written.
    Row(&'a [f64]),
    /// The row being written, which one `&mut` slice both reads (each
    /// column before it is written) and writes; only a statement's last
    /// op, whose destination is an array row, can meet it.
    Dest,
}

/// One chunk's rows: which `n` elements each operand names. Only
/// [`chunk_body`] builds one, from arguments its caller vouches for
/// ([`run_chunk`]'s contract); the methods below rely on that.
struct ChunkRows<'a> {
    nest: &'a NestTape,
    view: &'a MemView<'a>,
    /// The scratch rows: constants, then temporaries.
    temps: *mut f64,
    off: i64,
    n: usize,
}

impl<'a> ChunkRows<'a> {
    /// Where pattern `j`'s row starts.
    #[inline(always)]
    fn row(&self, j: u32) -> *mut f64 {
        // SAFETY: pattern `j`'s row is `n` slots inside the backing store
        // (the pattern reproduces the layout's slots; `run_chunk`'s
        // contract).
        unsafe {
            self.view.row_ptr(
                (self.nest.pats[j as usize].slot_base + self.off) as usize,
                self.n,
            )
        }
    }

    /// Where scratch row `i` starts: constant `i`, or past the constants a
    /// temporary.
    #[inline(always)]
    fn scratch(&self, i: usize) -> *mut f64 {
        // SAFETY: constants and temporaries are rows below `consts.len() +
        // row_temps()`, each `row_width` elements inside `temps`
        // (`run_chunk`'s contract).
        unsafe { self.temps.add(i * self.nest.row_width) }
    }

    /// Where temporary `i`'s row starts.
    #[inline(always)]
    fn temp(&self, i: u32) -> *mut f64 {
        self.scratch(self.nest.consts.len() + i as usize)
    }

    /// The row `o` names, for an op writing a temporary or — `dest` being
    /// the base slot of its store pattern — the statement's destination
    /// row. `row_width` keeps every pattern of the nest at distance 0 from
    /// a store or at least a chunk away, so an array row is the destination
    /// exactly ([`Src::Dest`]) or disjoint from it.
    #[inline(always)]
    fn src(&self, o: Operand, dest: Option<i64>) -> Src<'a> {
        let p = match o {
            Operand::Temp(i) => self.temp(i),
            Operand::Row(j) if Some(self.nest.pats[j as usize].slot_base) == dest => {
                return Src::Dest
            }
            Operand::Row(j) => self.row(j),
            Operand::Const(k) => self.scratch(k as usize),
        };
        // SAFETY: `n` initialized elements (`row`, `scratch`) that nothing
        // writes while the slice lives: the op's destination is a
        // temporary none of its operands names (`RowStmt::new` checks), or
        // the destination row, which the arm above keeps out of here.
        Src::Row(unsafe { std::slice::from_raw_parts(p, self.n) })
    }
}

/// The body of [`run_chunk`], inlined into one caller per [`RowIsa`].
///
/// # Safety
/// As [`run_chunk`].
#[inline(always)]
unsafe fn chunk_body(nest: &NestTape, off: i64, n: usize, view: &MemView<'_>, temps: &mut [f64]) {
    debug_assert!(
        n <= nest.row_width
            && (nest.row_temps() + nest.consts.len()) * nest.row_width <= temps.len()
    );
    let rows = ChunkRows {
        nest,
        view,
        temps: temps.as_mut_ptr(),
        off,
        n,
    };
    for st in &nest.stmts {
        let out = rows.row(st.store);
        let Some((last, body)) = st.row.ops.split_last() else {
            // A copy or a fill: no op to write the row, which is copied
            // from an array row or a constant's broadcast row.
            let src = match st.row.result {
                Operand::Row(j) => rows.row(j),
                Operand::Const(k) => rows.scratch(k as usize),
                Operand::Temp(_) => unreachable!("a temporary is some op's result"),
            };
            // SAFETY: `out` and `src` are `n` elements each; an array row
            // may be `out` itself.
            unsafe { std::ptr::copy(src, out, n) };
            continue;
        };
        for op in body {
            // SAFETY: see `ChunkRows::src` — a temporary no operand of `op`
            // names.
            let dst = unsafe { std::slice::from_raw_parts_mut(rows.temp(op.parts().0), n) };
            run_op(op, dst, &rows, None);
        }
        // The last op writes the destination row itself.
        // SAFETY: `n` elements overlapping no slice `src` hands out when
        // told the store pattern's base.
        let dst = unsafe { std::slice::from_raw_parts_mut(out, n) };
        run_op(
            last,
            dst,
            &rows,
            Some(nest.pats[st.store as usize].slot_base),
        );
    }
}

/// Runs one op over a chunk: `dst` is the row it writes, and `dest` says
/// whether that is the statement's destination (see [`ChunkRows::src`]).
#[inline(always)]
fn run_op(op: &RowOp, dst: &mut [f64], rows: &ChunkRows<'_>, dest: Option<i64>) {
    match *op {
        RowOp::Unary { op, a, .. } => unary_row(op, dst, rows.src(a, dest)),
        RowOp::Binary { op, a, b, .. } => binary_row(op, dst, rows.src(a, dest), rows.src(b, dest)),
        RowOp::Chain {
            inner,
            outer,
            a,
            b,
            c,
            inner_right,
            ..
        } => {
            // The chain loops read `a` and `b` as slices, so only `c` may
            // be the row being written; lowering folds no other chain.
            let (Src::Row(a), Src::Row(b)) = (rows.src(a, dest), rows.src(b, dest)) else {
                panic!("row op {op:?} reads its destination through the inner operator");
            };
            chain_row(inner, outer, inner_right, dst, a, b, rows.src(c, dest));
        }
        RowOp::Fold {
            inner,
            mid,
            outer,
            a,
            b,
            c,
            d,
            ..
        } => {
            // Likewise only `d` may be the row being written.
            let (Src::Row(a), Src::Row(b), Src::Row(c)) =
                (rows.src(a, dest), rows.src(b, dest), rows.src(c, dest))
            else {
                panic!("row op {op:?} reads its destination before its last operator");
            };
            fold_row(inner, mid, outer, dst, a, b, c, rows.src(d, dest));
        }
    }
}

#[inline(always)]
fn unary_row(op: UnaryOp, dst: &mut [f64], a: Src<'_>) {
    #[inline(always)]
    fn go(dst: &mut [f64], a: Src<'_>, f: impl Fn(f64) -> f64) {
        match a {
            Src::Row(a) => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x)),
            Src::Dest => dst.iter_mut().for_each(|d| *d = f(*d)),
        }
    }
    // One arm per operator so each instance of `go` is a loop over a
    // known operation — the interpreter's own, applied to a constant.
    match op {
        UnaryOp::Neg => go(dst, a, |x| UnaryOp::Neg.apply(x)),
        UnaryOp::Abs => go(dst, a, |x| UnaryOp::Abs.apply(x)),
        UnaryOp::Sqrt => go(dst, a, |x| UnaryOp::Sqrt.apply(x)),
    }
}

#[inline(always)]
fn binary_row(op: BinOp, dst: &mut [f64], a: Src<'_>, b: Src<'_>) {
    #[inline(always)]
    fn go(dst: &mut [f64], a: Src<'_>, b: Src<'_>, f: impl Fn(f64, f64) -> f64) {
        match (a, b) {
            (Src::Row(a), Src::Row(b)) => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = f(x, y);
                }
            }
            (Src::Dest, Src::Row(b)) => dst.iter_mut().zip(b).for_each(|(d, &y)| *d = f(*d, y)),
            (Src::Row(a), Src::Dest) => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x, *d)),
            (Src::Dest, Src::Dest) => dst.iter_mut().for_each(|d| *d = f(*d, *d)),
        }
    }
    match op {
        BinOp::Add => go(dst, a, b, |x, y| BinOp::Add.apply(x, y)),
        BinOp::Sub => go(dst, a, b, |x, y| BinOp::Sub.apply(x, y)),
        BinOp::Mul => go(dst, a, b, |x, y| BinOp::Mul.apply(x, y)),
        BinOp::Div => go(dst, a, b, |x, y| BinOp::Div.apply(x, y)),
        BinOp::Min => go(dst, a, b, |x, y| BinOp::Min.apply(x, y)),
        BinOp::Max => go(dst, a, b, |x, y| BinOp::Max.apply(x, y)),
    }
}

/// `dst = outer(inner(a, b), c)`, or `outer(c, inner(a, b))` when
/// `inner_right`, as one loop per (operator pair, orientation, kind of
/// `c`): 4 x 4 x 2 x 2 = 64 instances.
#[inline(always)]
fn chain_row(
    inner: BinOp,
    outer: BinOp,
    inner_right: bool,
    dst: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: Src<'_>,
) {
    #[inline(always)]
    fn go(dst: &mut [f64], a: &[f64], b: &[f64], c: Src<'_>, f: impl Fn(f64, f64, f64) -> f64) {
        match c {
            Src::Row(c) => {
                for (((d, &x), &y), &z) in dst.iter_mut().zip(a).zip(b).zip(c) {
                    *d = f(x, y, z);
                }
            }
            Src::Dest => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = f(x, y, *d);
                }
            }
        }
    }
    /// `f` is the inner operator, known; pick the outer and the side.
    #[inline(always)]
    fn outer_of(
        outer: BinOp,
        inner_right: bool,
        dst: &mut [f64],
        a: &[f64],
        b: &[f64],
        c: Src<'_>,
        f: impl Fn(f64, f64) -> f64,
    ) {
        macro_rules! arm {
            ($op:expr) => {
                if inner_right {
                    go(dst, a, b, c, |x, y, z| $op.apply(z, f(x, y)))
                } else {
                    go(dst, a, b, c, |x, y, z| $op.apply(f(x, y), z))
                }
            };
        }
        match outer {
            BinOp::Add => arm!(BinOp::Add),
            BinOp::Sub => arm!(BinOp::Sub),
            BinOp::Mul => arm!(BinOp::Mul),
            BinOp::Div => arm!(BinOp::Div),
            BinOp::Min | BinOp::Max => unreachable!("`RowStmt::new` admits arithmetic chains only"),
        }
    }
    match inner {
        BinOp::Add => outer_of(outer, inner_right, dst, a, b, c, |x, y| {
            BinOp::Add.apply(x, y)
        }),
        BinOp::Sub => outer_of(outer, inner_right, dst, a, b, c, |x, y| {
            BinOp::Sub.apply(x, y)
        }),
        BinOp::Mul => outer_of(outer, inner_right, dst, a, b, c, |x, y| {
            BinOp::Mul.apply(x, y)
        }),
        BinOp::Div => outer_of(outer, inner_right, dst, a, b, c, |x, y| {
            BinOp::Div.apply(x, y)
        }),
        BinOp::Min | BinOp::Max => unreachable!("`RowStmt::new` admits arithmetic chains only"),
    }
}

/// [`fold_value`] over a chunk, as one loop per (operator triple, kind of
/// `d`): 12 x 2 = 24 instances. One orientation per triple is enough:
/// lowering folds a source `Add` or `Mul` with its operands either way
/// round, and a `Sub` only where its operands stand as the shape has them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fold_row(
    inner: BinOp,
    mid: BinOp,
    outer: BinOp,
    dst: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: Src<'_>,
) {
    #[inline(always)]
    fn go(
        dst: &mut [f64],
        a: &[f64],
        b: &[f64],
        c: &[f64],
        d: Src<'_>,
        f: impl Fn([f64; 4]) -> f64,
    ) {
        match d {
            Src::Row(d) => {
                for ((((o, &x), &y), &z), &w) in dst.iter_mut().zip(a).zip(b).zip(c).zip(d) {
                    *o = f([x, y, z, w]);
                }
            }
            Src::Dest => {
                for (((o, &x), &y), &z) in dst.iter_mut().zip(a).zip(b).zip(c) {
                    *o = f([x, y, z, *o]);
                }
            }
        }
    }
    macro_rules! triples {
        ($($i:ident $m:ident $o:ident),*) => {
            match (inner, mid, outer) {
                $((BinOp::$i, BinOp::$m, BinOp::$o) => go(dst, a, b, c, d, |[x, y, z, w]| {
                    fold_value(BinOp::$i, BinOp::$m, BinOp::$o, x, y, z, w)
                }),)*
                _ => unreachable!("`RowStmt::new` admits the fold triples only"),
            }
        };
    }
    triples!(
        Add Mul Add, Add Mul Sub, Sub Mul Add, Sub Mul Sub,
        Add Add Add, Add Add Sub, Add Sub Add, Add Sub Sub,
        Sub Add Add, Sub Add Sub, Sub Sub Add, Sub Sub Sub
    )
}

#[inline]
fn dot(coeffs: &[i64], point: &[i64]) -> i64 {
    coeffs.iter().zip(point).map(|(&c, &p)| c * p).sum()
}

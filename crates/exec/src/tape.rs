//! Compiled kernel tapes: flat micro-op programs executed by tight
//! non-recursive loops.
//!
//! The interpreter in [`crate::interp`] walks an `Expr` tree and
//! re-derives every affine address from scratch at every iteration
//! point. A [`ProgramTape`] is the compiled alternative: each nest body
//! is lowered once (see [`crate::lower`]) into a postfix sequence of
//! [`MicroOp`]s over a small value stack, and every array reference
//! becomes an [`AccessPat`] — a precomputed base slot/address plus one
//! combined stride coefficient per loop level. The tape executor then
//! runs a plain counted loop nest, updating each access's flat offset
//! *incrementally* as loop variables advance, so the hot path is stack
//! arithmetic plus pointer reads — no recursion, no subscript vectors,
//! no per-access layout walks.
//!
//! **Equivalence contract.** A tape must be observationally identical to
//! the interpreter on the same schedule: same results bit for bit, same
//! access stream (addresses in the same order, so cache simulations
//! produce identical per-processor miss counts), and same work counters.
//! Three lowering invariants guarantee this:
//!
//! 1. micro-ops are emitted in the interpreter's left-to-right
//!    evaluation order, so loads hit the [`AccessSink`] in the same
//!    sequence;
//! 2. the fused multiply-add ops ([`MicroOp::MulAdd`]/[`MicroOp::AddMul`])
//!    compute `a * b` and the addition as **two separately rounded**
//!    `f64` operations — they fuse instruction dispatch, never the
//!    floating-point rounding (`f64::mul_add` would change results);
//! 3. constant folding uses the same `f64` operator implementations the
//!    interpreter applies, and the [`ExecCounters`] work fields are
//!    charged from the *original* (pre-folding) expression tree.
//!
//! **The row runner.** The scalar tape pays one `match` per micro-op per
//! iteration. For nests whose references all walk the innermost loop at
//! unit stride, lowering also turns each statement's postfix tape into a
//! three-address [`RowStmt`], and [`exec_region_rows`] executes each of
//! its ops as one slice loop over up to [`ROW`] consecutive inner
//! iterations: dispatch is paid once per op per chunk, the loops are the
//! shape the compiler vectorizes, array rows are read in place and
//! temporaries stay in an L1-resident scratch. Reordering a chunk from
//! iteration-major to statement-major would reorder the access stream
//! too, so the runner instead *replays* each chunk's accesses to the
//! sink in scalar order before computing it — and skips the replay when
//! the sink declares, by [`AccessSink::OBSERVES`], that it is not
//! looking.

use crate::interp::{exec_region, ExecCounters};
use crate::memory::{MemView, Memory};
use crate::sink::AccessSink;
use sp_ir::{AffineExpr, BinOp, IterSpace, LoopSequence, UnaryOp};

/// Widest chunk of consecutive inner iterations the row runner executes
/// as one row.
///
/// Wide enough that per-op dispatch is small against the row (16 columns
/// measurably is not), narrow enough that a chunk's working set — the
/// rows it reads plus its temporaries, 1 KiB each — stays in a 32 KiB L1
/// between the op that writes a row and the op that reads it: LL18's
/// widest nest touches 16 rows and 3 temporaries, 19 KiB. EXPERIMENTS.md
/// has the sweep.
pub const ROW: usize = 128;

/// Shortest non-zero store-to-reference distance the row runner accepts
/// (see [`NestTape::lane_safe`]). A nest carrying a dependence closer
/// than this would run in rows too short to pay for their dispatch; it
/// stays on the scalar tape.
pub const MIN_ROW: usize = 8;

/// One instruction of a statement tape, operating on a value stack.
///
/// Binary ops pop two values and push one; unary ops replace the top of
/// stack; the three-operand ops pop three and push one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// Push a (possibly folded) constant.
    Const(f64),
    /// Load through the nest's access pattern with this index and push
    /// the value; reports the access to the sink.
    Load(u32),
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a.min(b)`.
    Min,
    /// `a.max(b)`.
    Max,
    /// `-a`.
    Neg,
    /// `a.abs()`.
    Abs,
    /// `a.sqrt()`.
    Sqrt,
    /// `(a * b) + c` from `Add(Mul(a, b), c)`, stack order `[a, b, c]`.
    /// Two separately rounded operations — *not* a hardware FMA.
    MulAdd,
    /// `c + (a * b)` from `Add(c, Mul(a, b))`, stack order `[c, a, b]`.
    /// Two separately rounded operations — *not* a hardware FMA.
    AddMul,
}

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
    /// The same constant in every column.
    Const(f64),
}

/// One three-address instruction of a row program: a whole-row
/// operation writing temporary `dst`.
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
}

/// One statement's RHS as a row program, built from its postfix tape by
/// running the tape on a stack of [`Operand`]s instead of values:
/// `Load`/`Const` push a descriptor and emit nothing (a row is read
/// where it is consumed — no store intervenes within a statement), each
/// arithmetic op pops its operands and emits one [`RowOp`], and
/// `MulAdd`/`AddMul` emit the `Mul` and then the `Add`, which is the
/// two roundings the scalar runners perform.
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
    /// Panics if an op writes a temporary it also reads: the runner
    /// hands each op's destination and sources to a slice loop as
    /// non-overlapping rows.
    pub fn new(ops: Vec<RowOp>, result: Operand) -> RowStmt {
        let temp = |o: Operand| match o {
            Operand::Temp(i) => Some(i),
            _ => None,
        };
        let mut temps = temp(result).map_or(0, |i| i as usize + 1);
        for op in &ops {
            let (dst, srcs) = match *op {
                RowOp::Unary { a, dst, .. } => (dst, [temp(a), None]),
                RowOp::Binary { a, b, dst, .. } => (dst, [temp(a), temp(b)]),
            };
            assert!(
                !srcs.contains(&Some(dst)),
                "row op {op:?} writes a temporary it reads"
            );
            for i in srcs.into_iter().flatten().chain([dst]) {
                temps = temps.max(i as usize + 1);
            }
        }
        RowStmt { ops, result, temps }
    }

    /// The instructions, in execution order.
    pub fn ops(&self) -> &[RowOp] {
        &self.ops
    }

    /// Where the value to store is once the instructions ran: a
    /// temporary, or — for a pure copy or fill, which has no
    /// instructions — an array row or a constant.
    pub fn result(&self) -> Operand {
        self.result
    }
}

/// One statement compiled to postfix form.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtTape {
    /// RHS micro-ops in interpreter evaluation order; leaves exactly one
    /// value on the stack.
    pub(crate) ops: Vec<MicroOp>,
    /// The same RHS as a row program.
    pub(crate) row: RowStmt,
    /// Access-pattern index of the store target.
    pub(crate) store: u32,
    /// Arithmetic ops of the *original* RHS tree, bulk-charged per
    /// iteration so counters match the interpreter despite folding.
    pub(crate) flops: u64,
    /// Loads of the original RHS tree (folding never removes loads, so
    /// this also equals the `Load` micro-ops executed).
    pub(crate) loads: u64,
}

/// One loop nest's compiled body.
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
    /// Value-stack slots the deepest statement needs.
    pub(crate) max_stack: usize,
    /// Whether the row runner may execute this nest in chunks of
    /// consecutive inner iterations and still reproduce the scalar
    /// backends bit for bit. Decided once at lowering:
    ///
    /// * no contracted-array (`wrap`) references — their modulo term is
    ///   not affine in the column index;
    /// * every access pattern's innermost coefficient is exactly 1, so a
    ///   chunk of `n` iterations touches `n` consecutive slots — a row —
    ///   per pattern;
    /// * all patterns share one coefficient vector, so the slot distance
    ///   between any two patterns is the constant `Δ = slot_base
    ///   difference` at every iteration point;
    /// * for every store pattern and every pattern, `Δ == 0` or `|Δ| >=
    ///   MIN_ROW` (see [`NestTape::row_width`] for what `Δ` decides).
    ///
    /// Ineligible nests fall back to the scalar tape runner.
    pub(crate) lane_safe: bool,
    /// Most consecutive inner iterations the row runner executes as one
    /// chunk: `min(ROW, smallest non-zero |Δ|)` over every store pattern
    /// against every pattern; 0 unless `lane_safe`.
    ///
    /// A chunk runs statement-major — statement 1 for all its
    /// iterations, then statement 2 — where the scalar backends run
    /// iteration-major. A store at iteration `i` and another reference
    /// at iteration `i'` touch the same slot exactly when `i' - i = Δ`.
    /// With `Δ == 0` both fall in one iteration, and their order there
    /// is statement order (and loads before the store within a
    /// statement) either way. With `|Δ|` at least the chunk width they
    /// never share a chunk, and chunks run in iteration order. So no
    /// pair of conflicting accesses is reordered.
    pub(crate) row_width: usize,
}

impl NestTape {
    /// Micro-ops across all statements (stores count as one each).
    pub fn op_count(&self) -> u64 {
        self.stmts.iter().map(|s| s.ops.len() as u64 + 1).sum()
    }

    /// Temporary rows the widest statement's row program names.
    fn row_temps(&self) -> usize {
        self.stmts.iter().map(|s| s.row.temps).max().unwrap_or(0)
    }
}

/// A worker's reusable working memory for [`exec_region_rows`]: the
/// temporary rows and the outer-loop odometer. It grows to what the
/// widest nest it meets needs and is then reused, so steady-state
/// region calls do not touch the allocator.
#[derive(Debug, Default)]
pub struct RowScratch {
    temps: Vec<f64>,
    point: Vec<i64>,
}

/// A whole sequence compiled against one [`sp_cache::MemoryLayout`]:
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
    /// Wall time the lowering pass took.
    pub(crate) lower_nanos: u64,
}

impl ProgramTape {
    /// Wall time the lowering pass took, in nanoseconds.
    pub fn lower_nanos(&self) -> u64 {
        self.lower_nanos
    }

    /// Total micro-ops across every nest (the tape-size counter reported
    /// in [`crate::report::RunReport`]).
    pub fn total_ops(&self) -> u64 {
        self.nests.iter().map(|n| n.op_count()).sum()
    }

    /// Deduplicated access patterns across every nest.
    pub fn pattern_count(&self) -> usize {
        self.nests.iter().map(|n| n.pats.len()).sum()
    }

    /// Nests the row runner accepts (see [`NestTape`] docs); the rest
    /// run scalar under `Backend::Simd` too.
    pub fn lane_safe_nests(&self) -> usize {
        self.nests.iter().filter(|n| n.lane_safe).count()
    }
}

/// Which execution backend a driver loop uses for nest bodies: the
/// recursive interpreter, a compiled [`ProgramTape`], or the tape's
/// row programs.
///
/// All backends are observationally identical (results, access stream,
/// counters); they differ only in speed. The engine is `Copy` so worker
/// closures can capture it by value.
#[derive(Clone, Copy, Debug)]
pub enum Engine<'a> {
    /// Walk `Expr` trees per iteration ([`crate::interp`]).
    Interp,
    /// Execute pre-lowered micro-op tapes.
    Compiled(&'a ProgramTape),
    /// Execute tapes a row of up to [`ROW`] inner iterations at a time
    /// ([`exec_region_rows`]); ineligible nests run scalar.
    Simd(&'a ProgramTape),
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
        match self {
            // SAFETY: forwarded from caller.
            Engine::Interp => unsafe { exec_region(seq, view, nest_idx, region, sink, counters) },
            Engine::Simd(tape) if tape.nests[nest_idx].lane_safe => {
                let nest = &tape.nests[nest_idx];
                // SAFETY: forwarded from caller.
                unsafe { exec_region_rows(nest, region, view, sink, scratch, counters) }
            }
            Engine::Compiled(tape) | Engine::Simd(tape) => {
                // SAFETY: forwarded from caller.
                unsafe { exec_region_tape(&tape.nests[nest_idx], region, view, sink, counters) }
            }
        }
    }

    /// Serial reference execution with this backend: every nest in
    /// program order over its full space (the backend-parameterized
    /// [`crate::interp::run_original`]).
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

/// Executes every iteration of `region` through a compiled nest tape.
///
/// The loop nest is a hand-rolled counted loop (innermost level
/// advances fastest, matching `IterSpace::for_each`); each access
/// pattern's flat offset is maintained incrementally with per-level
/// deltas, so steady-state iterations do no address multiplication at
/// all.
///
/// # Safety
/// As [`exec_region`]: the caller upholds [`MemView`]'s contract, and
/// the tape must have been lowered against `view`'s layout.
pub unsafe fn exec_region_tape<S: AccessSink>(
    nest: &NestTape,
    region: &IterSpace,
    view: &MemView<'_>,
    sink: &mut S,
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
    let eb = nest.elem_bytes;
    let lows: Vec<i64> = region.bounds.iter().map(|&(lo, _)| lo).collect();
    // Linear offset of each pattern at the region's first point.
    let mut cur: Vec<i64> = nest.pats.iter().map(|p| dot(&p.coeffs, &lows)).collect();
    // delta[l][j]: offset change of pattern j when level l increments
    // (which simultaneously resets every deeper level to its lower
    // bound, hence the subtraction of the deeper levels' full spans).
    let deltas: Vec<Vec<i64>> = (0..depth)
        .map(|l| {
            nest.pats
                .iter()
                .map(|p| {
                    let mut d = p.coeffs[l];
                    for m in l + 1..depth {
                        d -= p.coeffs[m] * (region.bounds[m].1 - region.bounds[m].0);
                    }
                    d
                })
                .collect()
        })
        .collect();
    let mut stack = vec![0.0f64; nest.max_stack];
    let mut point = lows;
    'iteration: loop {
        for st in &nest.stmts {
            let mut sp = 0usize;
            for op in &st.ops {
                match *op {
                    MicroOp::Const(c) => {
                        stack[sp] = c;
                        sp += 1;
                    }
                    MicroOp::Load(j) => {
                        let j = j as usize;
                        let pat = &nest.pats[j];
                        let var = pat.var(cur[j], &point);
                        sink.access((pat.addr_base + var * eb) as u64, false);
                        // SAFETY: forwarded from caller; the pattern
                        // reproduces the layout's slot exactly.
                        stack[sp] = unsafe { view.read_slot((pat.slot_base + var) as usize) };
                        sp += 1;
                    }
                    MicroOp::Add => {
                        sp -= 1;
                        stack[sp - 1] += stack[sp];
                    }
                    MicroOp::Sub => {
                        sp -= 1;
                        stack[sp - 1] -= stack[sp];
                    }
                    MicroOp::Mul => {
                        sp -= 1;
                        stack[sp - 1] *= stack[sp];
                    }
                    MicroOp::Div => {
                        sp -= 1;
                        stack[sp - 1] /= stack[sp];
                    }
                    MicroOp::Min => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].min(stack[sp]);
                    }
                    MicroOp::Max => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].max(stack[sp]);
                    }
                    MicroOp::Neg => stack[sp - 1] = -stack[sp - 1],
                    MicroOp::Abs => stack[sp - 1] = stack[sp - 1].abs(),
                    MicroOp::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
                    MicroOp::MulAdd => {
                        sp -= 2;
                        stack[sp - 1] = stack[sp - 1] * stack[sp] + stack[sp + 1];
                    }
                    MicroOp::AddMul => {
                        sp -= 2;
                        stack[sp - 1] += stack[sp] * stack[sp + 1];
                    }
                }
            }
            debug_assert_eq!(sp, 1, "statement tape must leave exactly one value");
            let j = st.store as usize;
            let pat = &nest.pats[j];
            let var = pat.var(cur[j], &point);
            sink.access((pat.addr_base + var * eb) as u64, true);
            // SAFETY: forwarded from caller.
            unsafe { view.write_slot((pat.slot_base + var) as usize, stack[0]) };
            counters.flops += st.flops;
            counters.loads += st.loads;
            counters.stores += 1;
        }
        counters.iters += 1;
        for l in (0..depth).rev() {
            point[l] += 1;
            if point[l] <= region.bounds[l].1 {
                for (c, d) in cur.iter_mut().zip(&deltas[l]) {
                    *c += *d;
                }
                continue 'iteration;
            }
            point[l] = region.bounds[l].0;
        }
        break;
    }
}

/// Executes every iteration of `region` through a lane-safe nest's row
/// programs: each inner row of the region is cut into chunks of at most
/// [`NestTape::row_width`] consecutive iterations, and a chunk runs
/// statement by statement, each [`RowOp`] as one slice loop over the
/// whole chunk. Every column goes through the same separately rounded
/// `f64` operations, in the same order, that the scalar backends apply
/// to that iteration, so results are bit for bit identical; why running
/// a chunk statement-major is legal is argued on
/// [`NestTape::row_width`].
///
/// Access-stream parity: an observing sink ([`AccessSink::OBSERVES`])
/// is told each chunk's accesses in exact scalar order (iteration →
/// statement → RHS loads → store) before the chunk computes, so cache
/// simulations see the address sequence the scalar backends produce.
/// The work counters are charged once, for the whole region.
///
/// # Safety
/// As [`exec_region_tape`]: the caller upholds [`MemView`]'s contract,
/// and the tape must have been lowered against `view`'s layout.
///
/// # Panics
/// Panics if the nest is not lane-safe.
pub unsafe fn exec_region_rows<S: AccessSink>(
    nest: &NestTape,
    region: &IterSpace,
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut RowScratch,
    counters: &mut ExecCounters,
) {
    let width = nest.row_width;
    assert!(width > 0, "only lane-safe nests have a row width");
    if region.is_empty() {
        return;
    }
    let depth = region.depth();
    debug_assert_eq!(
        depth, nest.depth,
        "region depth must match the lowered nest"
    );
    let inner = depth - 1;
    let (ilo, ihi) = region.bounds[inner];
    let trip = (ihi - ilo + 1) as usize;
    // Lane-safe patterns share one coefficient vector with innermost
    // coefficient 1: a single running offset places every pattern's row.
    let coeffs = &nest.pats[0].coeffs;
    let RowScratch { temps, point } = scratch;
    let row_temps = nest.row_temps();
    if temps.len() < row_temps * width {
        temps.resize(row_temps * width, 0.0);
    }
    point.clear();
    point.extend(region.bounds.iter().map(|&(lo, _)| lo));
    let mut row_off = dot(coeffs, point);
    'rows: loop {
        let mut t = 0usize;
        while t < trip {
            let n = width.min(trip - t);
            let off = row_off + t as i64;
            if S::OBSERVES {
                replay_chunk(nest, off, n, sink);
            }
            // SAFETY: forwarded from caller; `temps` holds `row_temps`
            // rows of `width >= n` elements (resized above).
            unsafe { run_chunk(nest, off, n, view, temps) };
            t += n;
        }
        for l in (0..inner).rev() {
            let (lo, hi) = region.bounds[l];
            point[l] += 1;
            if point[l] <= hi {
                row_off += coeffs[l];
                continue 'rows;
            }
            point[l] = lo;
            row_off -= coeffs[l] * (hi - lo);
        }
        break;
    }
    let iters = region.len() as u64;
    counters.iters += iters;
    counters.vec_iters += iters;
    for st in &nest.stmts {
        counters.flops += st.flops * iters;
        counters.loads += st.loads * iters;
    }
    counters.stores += nest.stmts.len() as u64 * iters;
}

/// Reports the `n` iterations starting `off` slots past every pattern's
/// base to the sink, in scalar order: iteration → statement → RHS loads
/// (tape order is evaluation order) → store.
fn replay_chunk<S: AccessSink>(nest: &NestTape, off: i64, n: usize, sink: &mut S) {
    let eb = nest.elem_bytes;
    for var in off..off + n as i64 {
        for st in &nest.stmts {
            for op in &st.ops {
                if let MicroOp::Load(j) = *op {
                    sink.access((nest.pats[j as usize].addr_base + var * eb) as u64, false);
                }
            }
            sink.access(
                (nest.pats[st.store as usize].addr_base + var * eb) as u64,
                true,
            );
        }
    }
}

/// A resolved [`Operand`]: `n` values, or one value `n` times.
#[derive(Clone, Copy)]
enum Src<'a> {
    Row(&'a [f64]),
    Const(f64),
}

/// One chunk: the `n` iterations starting `off` slots past every
/// pattern's base, statement by statement.
///
/// # Safety
/// As [`exec_region_rows`]; `temps` must hold `nest.row_temps()` rows
/// of `nest.row_width >= n` elements.
unsafe fn run_chunk(nest: &NestTape, off: i64, n: usize, view: &MemView<'_>, temps: &mut [f64]) {
    let width = nest.row_width;
    debug_assert!(n <= width && nest.row_temps() * width <= temps.len());
    let tp = temps.as_mut_ptr();
    // SAFETY: pattern `j`'s row is `n` slots inside the backing store
    // (the pattern reproduces the layout's slots; forwarded from caller).
    let row = |j: u32| unsafe { view.row_ptr((nest.pats[j as usize].slot_base + off) as usize, n) };
    // SAFETY: a statement names temporaries below `row_temps()`, each
    // `width` elements inside `temps`.
    let temp = |i: u32| unsafe { tp.add(i as usize * width) };
    // SAFETY: both kinds of row are `n` initialized elements (above) that
    // nothing writes while the slice lives — see `dst` for temporaries;
    // the backing store is only written by the copy that ends a
    // statement, after its last op.
    let src = |o: Operand| match o {
        Operand::Temp(i) => Src::Row(unsafe { std::slice::from_raw_parts(temp(i), n) }),
        Operand::Row(j) => Src::Row(unsafe { std::slice::from_raw_parts(row(j), n) }),
        Operand::Const(c) => Src::Const(c),
    };
    // SAFETY: an op's destination is a temporary none of its operands
    // names (`RowStmt::new` checks), so it overlaps no live source slice.
    let dst = |i: u32| unsafe { std::slice::from_raw_parts_mut(temp(i), n) };
    for st in &nest.stmts {
        for op in &st.row.ops {
            match *op {
                RowOp::Unary { op, a, dst: d } => unary_row(op, dst(d), src(a)),
                RowOp::Binary { op, a, b, dst: d } => binary_row(op, dst(d), src(a), src(b)),
            }
        }
        let out = row(st.store);
        // SAFETY: `out` and the sources are `n` elements each (above); a
        // temporary never overlaps the backing store, a source row may
        // (a copy onto itself).
        unsafe {
            match st.row.result {
                Operand::Temp(i) => std::ptr::copy_nonoverlapping(temp(i), out, n),
                Operand::Row(j) => std::ptr::copy(row(j), out, n),
                Operand::Const(c) => std::slice::from_raw_parts_mut(out, n).fill(c),
            }
        }
    }
}

fn unary_row(op: UnaryOp, dst: &mut [f64], a: Src<'_>) {
    fn go(dst: &mut [f64], a: Src<'_>, f: impl Fn(f64) -> f64) {
        match a {
            Src::Row(a) => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x)),
            Src::Const(x) => dst.fill(f(x)),
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

fn binary_row(op: BinOp, dst: &mut [f64], a: Src<'_>, b: Src<'_>) {
    fn go(dst: &mut [f64], a: Src<'_>, b: Src<'_>, f: impl Fn(f64, f64) -> f64) {
        match (a, b) {
            (Src::Row(a), Src::Row(b)) => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = f(x, y);
                }
            }
            (Src::Row(a), Src::Const(y)) => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x, y)),
            (Src::Const(x), Src::Row(b)) => dst.iter_mut().zip(b).for_each(|(d, &y)| *d = f(x, y)),
            (Src::Const(x), Src::Const(y)) => dst.fill(f(x, y)),
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

#[inline]
fn dot(coeffs: &[i64], point: &[i64]) -> i64 {
    coeffs.iter().zip(point).map(|(&c, &p)| c * p).sum()
}

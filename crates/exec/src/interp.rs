//! The IR interpreter: executes statements over a [`MemView`], reporting
//! every access to an [`AccessSink`].
//!
//! The interpreter is the stand-in for compiled Fortran in the paper's
//! experiments: it executes *exactly* the iterations a schedule names, in
//! the order it names them, touching the same addresses a compiled
//! program under the same data layout would touch.

use crate::memory::MemView;
use crate::sink::AccessSink;
use sp_ir::{Expr, IterSpace, LoopSequence, Statement};

/// Work counters accumulated during execution, consumed by the machine
/// cost model.
///
/// The `*_nanos` fields hold wall-clock phase timings (under the
/// deterministic simulator, of its serialized phases; it never waits at
/// a barrier). They are
/// **excluded from equality**: two runs performing identical work compare
/// equal even though their timings differ. `vec_iters`, `steals`,
/// `yields` and `parks` are likewise excluded — they record *how* work was
/// dispatched (in rows vs one at a time, stolen vs owned, spun vs yielded
/// vs parked), which is backend-, schedule- and host-dependent, while the
/// work fields are not.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounters {
    /// Loop-body iterations executed in fused/original phases.
    pub iters: u64,
    /// Iterations the SIMD backend's row runner executed; a subset of
    /// `iters`, zero under the scalar backends.
    pub vec_iters: u64,
    /// Iterations executed in peeled phases.
    pub peeled_iters: u64,
    /// Arithmetic operations performed.
    pub flops: u64,
    /// Scalar loads issued.
    pub loads: u64,
    /// Scalar stores issued.
    pub stores: u64,
    /// Strip-mining tiles entered (inner-bound recomputations).
    pub strips: u64,
    /// Guard predicates evaluated (direct method).
    pub guards: u64,
    /// Barriers participated in.
    pub barriers: u64,
    /// Chunks this worker executed that it did not own (work-stealing
    /// schedules only; zero under static scheduling). Like `vec_iters`,
    /// this records *how* work was dispatched, not what work ran, so it
    /// is excluded from equality.
    pub steals: u64,
    /// Barrier waits that outlasted their spin and gave up the processor
    /// at least once (see [`wait_step`](crate::pool::wait_step)).
    /// Dispatch accounting, excluded from equality.
    pub yields: u64,
    /// Barrier waits that outlasted their yields too and slept on the
    /// condvar; a subset of `yields`. Dispatch accounting, excluded from
    /// equality.
    pub parks: u64,
    /// Wall time spent in fused (and serial/original) phases.
    pub fused_nanos: u64,
    /// Wall time spent in peeled phases.
    pub peeled_nanos: u64,
    /// Wall time spent waiting at barriers.
    pub barrier_wait_nanos: u64,
}

impl PartialEq for ExecCounters {
    fn eq(&self, o: &Self) -> bool {
        (self.iters, self.peeled_iters, self.flops, self.loads)
            == (o.iters, o.peeled_iters, o.flops, o.loads)
            && (self.stores, self.strips, self.guards, self.barriers)
                == (o.stores, o.strips, o.guards, o.barriers)
    }
}

impl Eq for ExecCounters {}

impl ExecCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, o: &ExecCounters) {
        self.iters += o.iters;
        self.vec_iters += o.vec_iters;
        self.peeled_iters += o.peeled_iters;
        self.flops += o.flops;
        self.loads += o.loads;
        self.stores += o.stores;
        self.strips += o.strips;
        self.guards += o.guards;
        self.barriers += o.barriers;
        self.steals += o.steals;
        self.yields += o.yields;
        self.parks += o.parks;
        self.fused_nanos += o.fused_nanos;
        self.peeled_nanos += o.peeled_nanos;
        self.barrier_wait_nanos += o.barrier_wait_nanos;
    }

    /// Total iterations (fused + peeled).
    pub fn total_iters(&self) -> u64 {
        self.iters + self.peeled_iters
    }

    /// Total wall time attributed to compute phases.
    pub fn busy_nanos(&self) -> u64 {
        self.fused_nanos + self.peeled_nanos
    }
}

/// Evaluates an expression at `point`.
///
/// # Safety
/// Caller guarantees the [`MemView`] safety contract (no concurrent
/// conflicting accesses) — upheld by the shift-and-peel schedule.
unsafe fn eval<S: AccessSink>(
    e: &Expr,
    point: &[i64],
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut Vec<i64>,
    counters: &mut ExecCounters,
) -> f64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Load(r) => {
            r.eval_into(point, scratch);
            sink.access(view.layout().addr(r.array, scratch), false);
            counters.loads += 1;
            unsafe { view.read(r.array, scratch) }
        }
        Expr::Unary(op, inner) => {
            let v = unsafe { eval(inner, point, view, sink, scratch, counters) };
            counters.flops += 1;
            op.apply(v)
        }
        Expr::Binary(op, a, b) => {
            let va = unsafe { eval(a, point, view, sink, scratch, counters) };
            let vb = unsafe { eval(b, point, view, sink, scratch, counters) };
            counters.flops += 1;
            op.apply(va, vb)
        }
    }
}

/// Executes one statement at one iteration point.
///
/// # Safety
/// See [`MemView`]'s contract.
pub unsafe fn exec_statement<S: AccessSink>(
    stmt: &Statement,
    point: &[i64],
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut Vec<i64>,
    counters: &mut ExecCounters,
) {
    let v = unsafe { eval(&stmt.rhs, point, view, sink, scratch, counters) };
    stmt.lhs.eval_into(point, scratch);
    sink.access(view.layout().addr(stmt.lhs.array, scratch), true);
    counters.stores += 1;
    unsafe { view.write(stmt.lhs.array, scratch, v) };
}

/// Executes every iteration of `region` through nest `nest_idx`'s body,
/// counting into `counters.iters`.
///
/// # Safety
/// See [`MemView`]'s contract: the region must not conflict with regions
/// concurrently executed by other threads.
pub unsafe fn exec_region<S: AccessSink>(
    seq: &LoopSequence,
    view: &MemView<'_>,
    nest_idx: usize,
    region: &IterSpace,
    sink: &mut S,
    counters: &mut ExecCounters,
) {
    let body = &seq.nests[nest_idx].body;
    let mut scratch: Vec<i64> = Vec::with_capacity(4);
    region.for_each(|point| {
        for stmt in body {
            unsafe { exec_statement(stmt, point, view, sink, &mut scratch, counters) };
        }
        counters.iters += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;
    use crate::sink::{CountingSink, NullSink, RecordingSink};
    use crate::tape::Engine;
    use sp_cache::LayoutStrategy;
    use sp_ir::{ArrayId, SeqBuilder};

    fn stencil() -> LoopSequence {
        let n = 8usize;
        let mut b = SeqBuilder::new("s");
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(1, 6)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.finish()
    }

    #[test]
    fn run_original_computes_stencil() {
        let seq = stencil();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.fill_with(&seq, ArrayId(0), |p| p[0] as f64);
        let counters = Engine::Interp.run_original(&seq, &mut mem, &mut NullSink);
        for i in 1..=6i64 {
            assert_eq!(mem.get(ArrayId(1), &[i]), (i + 1) as f64 + (i - 1) as f64);
        }
        assert_eq!(counters.iters, 6);
        assert_eq!(counters.flops, 6);
        assert_eq!(counters.loads, 12);
        assert_eq!(counters.stores, 6);
    }

    #[test]
    fn counting_sink_agrees_with_counters() {
        let seq = stencil();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let mut sink = CountingSink::default();
        let counters = Engine::Interp.run_original(&seq, &mut mem, &mut sink);
        assert_eq!(sink.loads, counters.loads);
        assert_eq!(sink.stores, counters.stores);
    }

    #[test]
    fn trace_addresses_reflect_layout() {
        let seq = stencil();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let mut sink = RecordingSink::default();
        Engine::Interp.run_original(&seq, &mut mem, &mut sink);
        // First iteration (i=1): loads a[2], a[0]; store c[1].
        assert_eq!(sink.trace[0], (2 * 8, false));
        assert_eq!(sink.trace[1], (0, false));
        assert_eq!(sink.trace[2], ((8 + 1) * 8, true)); // c starts at slot 8
    }

    #[test]
    fn counters_merge() {
        let mut a = ExecCounters {
            iters: 1,
            flops: 2,
            ..Default::default()
        };
        let b = ExecCounters {
            iters: 3,
            peeled_iters: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.iters, 4);
        assert_eq!(a.total_iters(), 5);
        assert_eq!(a.flops, 2);
    }
}

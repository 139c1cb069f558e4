//! The one executor core: phase bodies, the phase list, and the two
//! functions every runtime is built from.
//!
//! Execution follows the structure of Figure 12/16 of the paper. For each
//! fused group, every processor runs its **fused phase** (strip-mined or
//! direct method), then a **barrier**, then its **peeled phase**. Unfused
//! (singleton) groups degenerate to plain blocked execution with a
//! barrier — exactly the original program's synchronization structure.
//!
//! A plan is flattened once per run into a `PhaseList`; `run_phase`
//! runs one worker's share of one phase and `drive_worker` walks a
//! threaded worker through the list with a barrier after every phase.
//! The runtimes differ only in who calls them: the pool (one dispatch,
//! workers loop `steps x phases`) or the simulator, which calls
//! `run_phase` for processors `0..P` one after another on the caller's
//! thread. Because
//! the transformation removes every cross-processor dependence within a
//! phase, any serialization of a phase is equivalent to its parallel
//! execution — this is what makes deterministic trace-driven cache
//! simulation per processor possible.

use crate::interp::ExecCounters;
use crate::memory::MemView;
use crate::pool::SenseBarrier;
use crate::schedule::{GroupChunks, Schedule, VictimSelector};
use crate::sink::{AccessSink, NullSink};
use crate::tape::{Engine, RowScratch};
use shift_peel_core::analysis::{
    check_blocks, decompose, global_fused_range, nest_regions, ProcBlock,
};
use shift_peel_core::{CodegenMethod, FusedGroup, FusionPlan, LegalityError};
use sp_dep::SequenceDeps;
use sp_ir::{IterSpace, LoopSequence};
use sp_trace::tracer::NO_INDEX;
use sp_trace::{SpanKind, TraceConfig, WorkerTrace, WorkerTracer};
use std::time::Instant;

/// Iterates the tiles of `block` over the first `fused_levels` dimensions
/// with strip size `s`, invoking `f` with each tile's per-level ranges.
fn for_each_tile(block: &ProcBlock, fused_levels: usize, s: i64, mut f: impl FnMut(&[(i64, i64)])) {
    debug_assert!(s >= 1);
    let mut tile: Vec<(i64, i64)> = Vec::with_capacity(fused_levels);
    let mut cursor: Vec<i64> = block.range[..fused_levels]
        .iter()
        .map(|&(lo, _)| lo)
        .collect();
    'outer: loop {
        tile.clear();
        for (l, &c) in cursor.iter().enumerate() {
            tile.push((c, c.saturating_add(s - 1).min(block.range[l].1)));
        }
        f(&tile);
        for l in (0..fused_levels).rev() {
            cursor[l] = cursor[l].saturating_add(s);
            if cursor[l] <= block.range[l].1 {
                continue 'outer;
            }
            cursor[l] = block.range[l].0;
        }
        break;
    }
}

/// Runs one processor's fused phase of a group.
///
/// # Safety
/// The caller must uphold [`MemView`]'s contract; the shift-and-peel
/// schedule guarantees fused phases of distinct processors never make
/// conflicting accesses (given the block-size legality check).
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_fused_phase<S: AccessSink>(
    seq: &LoopSequence,
    group: &FusedGroup,
    block: &ProcBlock,
    strip: i64,
    method: CodegenMethod,
    engine: Engine<'_>,
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut RowScratch,
    counters: &mut ExecCounters,
) {
    let deriv = &group.derivation;
    let fused_levels = deriv.fused_levels();
    // Per member nest: its fused region for this block.
    let fused: Vec<IterSpace> = group
        .members()
        .enumerate()
        .map(|(k, nid)| nest_regions(&seq.nests[nid], deriv, k, block).fused)
        .collect();

    match method {
        CodegenMethod::StripMined => {
            for_each_tile(block, fused_levels, strip, |tile| {
                counters.strips += 1;
                for (k, nid) in group.members().enumerate() {
                    let f = &fused[k];
                    if f.is_empty() {
                        continue;
                    }
                    let mut bounds = f.bounds.clone();
                    let mut empty = false;
                    for l in 0..fused_levels {
                        let shift = deriv.dims[l].shifts[k];
                        let lo = (tile[l].0 - shift).max(f.bounds[l].0);
                        let hi = (tile[l].1 - shift).min(f.bounds[l].1);
                        if lo > hi {
                            empty = true;
                            break;
                        }
                        bounds[l] = (lo, hi);
                    }
                    if !empty {
                        let region = IterSpace::new(bounds);
                        // SAFETY: forwarded from caller.
                        unsafe {
                            engine.exec_region(seq, view, nid, &region, sink, scratch, counters)
                        };
                    }
                }
            });
        }
        CodegenMethod::Direct => {
            // One fused loop over the block's outer points; each member
            // guarded and executed at its shifted position (Figure 11(a)).
            let outer = IterSpace::new(block.range[..fused_levels].to_vec());
            let mut shifted: Vec<i64> = vec![0; fused_levels];
            outer.for_each(|point| {
                for (k, nid) in group.members().enumerate() {
                    counters.guards += 1;
                    let f = &fused[k];
                    let mut inside = !f.is_empty();
                    for l in 0..fused_levels {
                        shifted[l] = point[l] - deriv.dims[l].shifts[k];
                        if shifted[l] < f.bounds[l].0 || shifted[l] > f.bounds[l].1 {
                            inside = false;
                            break;
                        }
                    }
                    if inside {
                        let mut bounds: Vec<(i64, i64)> = shifted.iter().map(|&v| (v, v)).collect();
                        bounds.extend_from_slice(&f.bounds[fused_levels..]);
                        let region = IterSpace::new(bounds);
                        // SAFETY: forwarded from caller.
                        unsafe {
                            engine.exec_region(seq, view, nid, &region, sink, scratch, counters)
                        };
                    }
                }
            });
        }
    }
}

/// Runs one processor's peeled phase of a group (after the barrier).
///
/// # Safety
/// As [`run_fused_phase`]; peeled sets of distinct processors never
/// conflict.
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_peeled_phase<S: AccessSink>(
    seq: &LoopSequence,
    group: &FusedGroup,
    block: &ProcBlock,
    engine: Engine<'_>,
    view: &MemView<'_>,
    sink: &mut S,
    scratch: &mut RowScratch,
    counters: &mut ExecCounters,
) {
    let deriv = &group.derivation;
    for (k, nid) in group.members().enumerate() {
        let regions = nest_regions(&seq.nests[nid], deriv, k, block);
        for r in &regions.peeled {
            // Peeled iterations are accounted apart from `iters`, and
            // `vec_iters` counts a subset of `iters`.
            let (iters, vec_iters) = (counters.iters, counters.vec_iters);
            // SAFETY: forwarded from caller.
            unsafe { engine.exec_region(seq, view, nid, r, sink, scratch, counters) };
            counters.peeled_iters += counters.iters - iters;
            counters.iters = iters;
            counters.vec_iters = vec_iters;
        }
    }
}

/// What one barrier-delimited phase executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// A nest that must run serially: processor 0 executes it whole
    /// while everyone else waits at the barrier.
    Serial,
    /// The fused phase of a (possibly singleton) parallel group.
    Fused,
    /// The peeled phase of a group whose derivation peels.
    Peeled,
}

/// One entry of the phase list: what runs, for which plan group.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Phase {
    pub kind: PhaseKind,
    pub group: usize,
}

/// A plan flattened into the order every processor executes it in —
/// per group a serial nest, or a fused phase and (if any nest peels) a
/// peeled phase, a barrier after each — together with every parallel
/// group's chunk decomposition and claim state. Built once per run and
/// shared by all workers and timesteps.
pub(crate) struct PhaseList {
    pub phases: Vec<Phase>,
    /// Indexed by plan group; `None` for serial nests.
    pub groups: Vec<Option<GroupChunks>>,
}

impl PhaseList {
    /// Flattens `plan` on a processor grid, performing all legality
    /// checks (Theorem 1 block sizes, on the static blocks and again on
    /// the chunks `schedule` carves out of them).
    pub(crate) fn build(
        seq: &LoopSequence,
        deps: &SequenceDeps,
        plan: &FusionPlan,
        grid: &[usize],
        schedule: Schedule,
        chunk: Option<i64>,
    ) -> Result<PhaseList, LegalityError> {
        let nprocs: usize = grid.iter().product();
        let mut phases = Vec::with_capacity(2 * plan.groups.len());
        let mut groups = Vec::with_capacity(plan.groups.len());
        for (gi, group) in plan.groups.iter().enumerate() {
            let members: Vec<usize> = group.members().collect();
            let parallel = members
                .iter()
                .all(|&k| deps.nests[k].parallel.iter().take(plan.levels).all(|&p| p));
            if !parallel {
                debug_assert_eq!(group.len(), 1, "planner must not fuse serial nests");
                phases.push(Phase {
                    kind: PhaseKind::Serial,
                    group: gi,
                });
                groups.push(None);
                continue;
            }
            let global = global_fused_range(seq, &members, plan.levels)?;
            // Clamp the grid so no level has more blocks than iterations, and
            // so every block satisfies the Nt threshold.
            let mut eff: Vec<usize> = Vec::with_capacity(grid.len());
            for (l, &g) in grid.iter().enumerate() {
                let trip = global[l].1 - global[l].0 + 1;
                let nt = group.derivation.dims[l].nt().max(1);
                eff.push((g as i64).min(trip / nt).max(1) as usize);
            }
            let blocks = decompose(&global, &eff)?;
            check_blocks(&group.derivation, &blocks)?;
            groups.push(Some(GroupChunks::build(
                group, &blocks, schedule, chunk, nprocs,
            )?));
            phases.push(Phase {
                kind: PhaseKind::Fused,
                group: gi,
            });
            if group.derivation.dims.iter().any(|d| d.nt() > 0) {
                phases.push(Phase {
                    kind: PhaseKind::Peeled,
                    group: gi,
                });
            }
        }
        Ok(PhaseList { phases, groups })
    }

    /// Merges every chunk's accumulated work counters into its owner's
    /// total. Call once, after all workers finished.
    pub(crate) fn merge_into(&self, totals: &mut [ExecCounters]) {
        for g in self.groups.iter().flatten() {
            g.merge_into(totals);
        }
    }
}

/// Everything the workers of one run share.
pub(crate) struct RunCtx<'a> {
    pub seq: &'a LoopSequence,
    pub plan: &'a FusionPlan,
    pub list: &'a PhaseList,
    pub strip: i64,
    pub engine: Engine<'a>,
    pub view: MemView<'a>,
    pub nprocs: usize,
    pub schedule: Schedule,
    pub steal_seed: u64,
    /// Ring config and shared epoch of a traced run.
    pub trace: Option<(TraceConfig, Instant)>,
}

/// What a worker hands back: its counters and, when traced, its lane.
pub(crate) type WorkerOut = (ExecCounters, Option<WorkerTrace>);

/// One (real or simulated) processor's private state across a run.
///
/// `counters` holds the worker's dispatch accounting — barriers, waits,
/// yields, parks, steals, phase wall time — plus the work of serial nests; the
/// work counters of every chunk go to the chunk's shared slot and are
/// merged per *owner* after the run, so they do not depend on who
/// executed the chunk.
pub(crate) struct Worker<'s, S: AccessSink> {
    p: usize,
    sink: &'s mut S,
    pub counters: ExecCounters,
    tracer: Option<WorkerTracer>,
    /// `None` never steals: the static schedule and the simulator.
    selector: Option<VictimSelector>,
    scratch: RowScratch,
}

impl<'s, S: AccessSink> Worker<'s, S> {
    pub(crate) fn new(
        ctx: &RunCtx<'_>,
        p: usize,
        sink: &'s mut S,
        selector: Option<VictimSelector>,
    ) -> Self {
        Worker {
            p,
            sink,
            counters: ExecCounters::default(),
            tracer: ctx.trace.map(|(cfg, epoch)| WorkerTracer::new(cfg, epoch)),
            selector,
            scratch: RowScratch::default(),
        }
    }

    pub(crate) fn finish(self) -> WorkerOut {
        (self.counters, self.tracer.map(|t| t.finish(self.p)))
    }

    fn cross(&mut self, barrier: &SenseBarrier, sense: &mut bool, step: u32, g: u32) {
        let bt0 = Instant::now();
        let waited = barrier.wait_outcome(sense);
        self.counters.barrier_wait_nanos += waited.nanos;
        self.counters.barriers += 1;
        self.counters.yields += u64::from(waited.yielded);
        self.counters.parks += u64::from(waited.parked);
        if let Some(t) = &mut self.tracer {
            t.record(SpanKind::BarrierWait, bt0, waited.nanos, step, g);
            if waited.parked {
                t.record(SpanKind::Park, bt0, waited.nanos, step, g);
            }
        }
    }
}

/// Runs worker `w`'s share of phase `idx` of timestep `step`.
///
/// A serial phase runs its nest on processor 0. A fused or peeled phase
/// walks the worker's own chunk list front to back (sequential ranges
/// stay cache-friendly), claiming each chunk for this phase's epoch;
/// a worker with a victim selector then steals from the back of other
/// owners' lists until the phase is drained. Under the static schedule
/// every owner has one chunk — its block — and nobody holds a selector,
/// so the claim is uncontended and the steal loop is never entered.
///
/// The epoch is a pure function of `(step, idx)`, so every worker
/// numbers phases identically and claims from earlier phases stay stale.
///
/// # Safety
/// As [`run_fused_phase`]/[`run_peeled_phase`]: callers must separate
/// consecutive phases by a barrier (or run them on one thread). Distinct
/// chunks never conflict within a phase (Theorem 1, checked by
/// [`PhaseList::build`]), and the claim protocol hands each chunk to
/// exactly one worker per phase.
pub(crate) unsafe fn run_phase<S: AccessSink>(
    ctx: &RunCtx<'_>,
    w: &mut Worker<'_, S>,
    step: usize,
    idx: usize,
) {
    let Phase { kind, group: gi } = ctx.list.phases[idx];
    let (step32, g) = (step as u32, gi as u32);
    let group = &ctx.plan.groups[gi];
    let Some(chunks) = &ctx.list.groups[gi] else {
        if w.p == 0 {
            let t0 = Instant::now();
            let space = ctx.seq.nests[group.start].space();
            // SAFETY: every other processor is at the barrier that
            // follows this phase; no concurrent access.
            unsafe {
                ctx.engine.exec_region(
                    ctx.seq,
                    &ctx.view,
                    group.start,
                    &space,
                    w.sink,
                    &mut w.scratch,
                    &mut w.counters,
                )
            };
            let dur = t0.elapsed().as_nanos() as u64;
            w.counters.fused_nanos += dur;
            if let Some(t) = &mut w.tracer {
                t.record(SpanKind::Serial, t0, dur, step32, g);
            }
        }
        return;
    };
    let epoch = (step * ctx.list.phases.len() + idx) as u64 + 1;
    let peeled = kind == PhaseKind::Peeled;
    let run_chunk = |c: usize, w: &mut Worker<'_, S>| {
        let block = &chunks.chunks[c];
        let mut work = ExecCounters::default();
        let t0 = Instant::now();
        // SAFETY: forwarded from caller; the claim made this worker the
        // chunk's only executor this phase.
        unsafe {
            if peeled {
                run_peeled_phase(
                    ctx.seq,
                    group,
                    block,
                    ctx.engine,
                    &ctx.view,
                    w.sink,
                    &mut w.scratch,
                    &mut work,
                );
            } else {
                run_fused_phase(
                    ctx.seq,
                    group,
                    block,
                    ctx.strip,
                    ctx.plan.method,
                    ctx.engine,
                    &ctx.view,
                    w.sink,
                    &mut w.scratch,
                    &mut work,
                );
            }
        }
        let dur = t0.elapsed().as_nanos() as u64;
        let (span, nanos) = if peeled {
            (SpanKind::Peeled, &mut w.counters.peeled_nanos)
        } else {
            (SpanKind::Fused, &mut w.counters.fused_nanos)
        };
        *nanos += dur;
        if let Some(t) = &mut w.tracer {
            t.record(span, t0, dur, step32, g);
        }
        chunks.credit(c, &work);
    };
    for &c in &chunks.by_owner[w.p] {
        if chunks.try_claim(c as usize, epoch) {
            run_chunk(c as usize, w);
        }
    }
    while let Some(selector) = &mut w.selector {
        let st0 = Instant::now();
        let Some(c) = chunks.steal(w.p, epoch, selector) else {
            break;
        };
        w.counters.steals += 1;
        if let Some(t) = &mut w.tracer {
            t.record_until_now(SpanKind::Steal, st0, step32, c as u32);
        }
        run_chunk(c, w);
    }
}

/// Walks threaded worker `p` through the phase list `steps` times,
/// meeting the other workers at `barrier` after every phase, and closes
/// its lane with one `Dispatch` span.
///
/// # Safety
/// All `ctx.nprocs` participants must call this with the same `ctx`,
/// `barrier` and `steps`, each on its own thread with a distinct `p`.
pub(crate) unsafe fn drive_worker(
    ctx: &RunCtx<'_>,
    p: usize,
    barrier: &SenseBarrier,
    steps: usize,
) -> WorkerOut {
    let mut sink = NullSink;
    let selector = (ctx.schedule != Schedule::Static)
        .then(|| VictimSelector::new(ctx.steal_seed, p, ctx.nprocs));
    let mut w = Worker::new(ctx, p, &mut sink, selector);
    let mut sense = false;
    let job_t0 = Instant::now();
    for step in 0..steps {
        for (idx, phase) in ctx.list.phases.iter().enumerate() {
            // SAFETY: every participant runs the same phase list in
            // lockstep through the barrier below.
            unsafe { run_phase(ctx, &mut w, step, idx) };
            w.cross(barrier, &mut sense, step as u32, phase.group as u32);
        }
    }
    if let Some(t) = &mut w.tracer {
        t.record_until_now(SpanKind::Dispatch, job_t0, NO_INDEX, NO_INDEX);
    }
    w.finish()
}

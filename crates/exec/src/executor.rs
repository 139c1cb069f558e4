//! The unified executor API.
//!
//! One trait, [`Executor`], two runtimes over one core
//! ([`crate::driver`]): every run is prepared the same way (validate,
//! start tracing, lower, plan, flatten the plan into a phase list with
//! its chunk decomposition) and reported the same way; the runtimes
//! differ only in who calls the per-worker phase function and when.
//!
//! * The threaded runtime — a [`WorkerPool`] whose calling thread is
//!   processor 0, where a whole multi-timestep run is a single dispatch
//!   with [`SenseBarrier`] phase synchronization. [`PooledExecutor`]
//!   keeps one pool across runs; [`ScopedExecutor`] builds one per run
//!   and drops it after.
//! * [`SimExecutor`] — the deterministic single-threaded simulation of
//!   `P` processors; [`Program::run_with_sinks`] runs it with one access
//!   sink per processor (a cache hierarchy, say).
//!
//! All are driven by a [`RunConfig`] — plan, timestep count, schedule
//! and backend — and produce a [`RunReport`] with per-worker
//! counters, phase wall times, barrier-wait times, and block-imbalance
//! statistics.

use crate::driver::{drive_worker, run_phase, PhaseList, RunCtx, Worker, WorkerOut};
use crate::exec::{ExecError, ExecPlan, Program};
use crate::interp::ExecCounters;
use crate::memory::{MemView, Memory};
use crate::pool::{SenseBarrier, WorkerPool};
use crate::report::{RunReport, WorkerReport};
use crate::schedule::{Schedule, DEFAULT_STEAL_SEED};
use crate::sink::{AccessSink, NullSink};
use crate::tape::{Engine, ProgramTape, RowIsa};
use shift_peel_core::{CodegenMethod, FusionPlan};
use sp_ir::LoopSequence;
use sp_trace::tracer::NO_INDEX;
use sp_trace::{
    LowerNote, RunTrace, SpanKind, TraceConfig, WorkerTrace, WorkerTracer, CONTROLLER_LANE,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which execution backend runs loop bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Walk the expression tree at every iteration point (the reference
    /// semantics).
    #[default]
    Interp,
    /// Lower each statement once into a row program ([`crate::lower`])
    /// and run it a column at a time with a tight non-recursive loop.
    /// Bit-for-bit identical results and access streams to
    /// [`Backend::Interp`].
    Compiled,
    /// The same row programs, a row at a time wherever a nest allows it
    /// — fused interior and peel regions alike: each arithmetic op is
    /// one slice loop over a chunk of consecutive inner iterations (plain
    /// loops the compiler autovectorizes), as wide as lowering found the
    /// nest's chunk can be and still fit a 32 KiB L1 data cache.
    /// Bit-for-bit identical results and access streams to
    /// [`Backend::Interp`] — per-column ops round exactly like their
    /// scalar counterparts.
    Simd,
}

impl Backend {
    /// Short stable name (`interp` / `compiled` / `simd`) used in
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
            Backend::Simd => "simd",
        }
    }

    /// The backend named `s`, if any (inverse of [`Backend::name`]).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "interp" => Some(Backend::Interp),
            "compiled" => Some(Backend::Compiled),
            "simd" => Some(Backend::Simd),
            _ => None,
        }
    }
}

/// A complete description of one run: what plan to execute, how many
/// timesteps to repeat it, and on which backend and schedule.
///
/// Built fluently:
///
/// ```ignore
/// let cfg = RunConfig::fused([4]).strip(8).steps(100);
/// let report = PooledExecutor::new(4).run(&prog, &mut mem, &cfg)?;
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    plan: ExecPlan,
    steps: usize,
    backend: Backend,
    trace: Option<TraceConfig>,
    // Adaptive scheduling (crate::schedule): which claim discipline the
    // run uses, the chunk-size override (None lets each schedule pick),
    // and the seed of the work-stealing victim-selection stream.
    schedule: Schedule,
    chunk: Option<i64>,
    steal_seed: u64,
    // Cache-injection points (sp-serve): a plan derived elsewhere and a
    // tape lowered elsewhere. `tape_cached` marks the tape as served
    // from an artifact cache, which zeroes the report's `lower_nanos`
    // and sets its `cached` flag.
    fusion: Option<Arc<FusionPlan>>,
    tape: Option<Arc<ProgramTape>>,
    tape_cached: bool,
}

impl RunConfig {
    /// The original serial program.
    pub fn serial() -> Self {
        RunConfig::from_plan(ExecPlan::Serial)
    }

    /// The original program blocked over a processor grid, barrier after
    /// every nest.
    pub fn blocked(grid: impl Into<Vec<usize>>) -> Self {
        RunConfig::from_plan(ExecPlan::Blocked { grid: grid.into() })
    }

    /// Shift-and-peel fused execution over a processor grid (strip-mined
    /// codegen, whole-block strips by default; see [`RunConfig::method`]
    /// and [`RunConfig::strip`]).
    pub fn fused(grid: impl Into<Vec<usize>>) -> Self {
        RunConfig::from_plan(ExecPlan::Fused {
            grid: grid.into(),
            method: CodegenMethod::StripMined,
            strip: i64::MAX,
        })
    }

    /// Wraps an existing [`ExecPlan`].
    pub fn from_plan(plan: ExecPlan) -> Self {
        RunConfig {
            plan,
            steps: 1,
            backend: Backend::default(),
            trace: None,
            schedule: Schedule::default(),
            chunk: None,
            steal_seed: DEFAULT_STEAL_SEED,
            fusion: None,
            tape: None,
            tape_cached: false,
        }
    }

    /// Chooses the scheduling discipline (static by default). Stealing
    /// subdivides each static block into `Nt`-legal chunks and lets idle
    /// workers steal them; results stay bit-for-bit identical to static
    /// execution.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Overrides the chunk size (outer-level iterations per chunk) the
    /// stealing schedule subdivides blocks into. Clamped to the
    /// Theorem-1 `Nt` floor; ignored by the static schedule. The
    /// `sp-machine` auto-tuner picks this from the cost model.
    pub fn chunk(mut self, c: i64) -> Self {
        self.chunk = Some(c);
        self
    }

    /// Seeds the work-stealing victim-selection stream (a fixed default
    /// otherwise). Affects only which worker executes which chunk, never
    /// results.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// Sets the codegen method (fused plans only; no-op otherwise).
    pub fn method(mut self, m: CodegenMethod) -> Self {
        if let ExecPlan::Fused { method, .. } = &mut self.plan {
            *method = m;
        }
        self
    }

    /// Sets the strip size (fused plans only; no-op otherwise).
    pub fn strip(mut self, s: i64) -> Self {
        if let ExecPlan::Fused { strip, .. } = &mut self.plan {
            *strip = s;
        }
        self
    }

    /// Repeats the plan `n` times back to back (timestepping).
    pub fn steps(mut self, n: usize) -> Self {
        self.steps = n;
        self
    }

    /// Chooses the execution backend (interpreter by default).
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Enables per-worker event tracing with `t`'s ring capacity. Traced
    /// runs carry a [`RunTrace`] in their report; untraced runs (the
    /// default) construct no tracing state at all.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.trace = Some(t);
        self
    }

    /// Enables tracing with the default ring capacity.
    pub fn traced(self) -> Self {
        self.trace(TraceConfig::default())
    }

    /// Injects a fusion plan derived elsewhere (e.g. served from an
    /// artifact cache), skipping in-run derivation. The plan must match
    /// the program: executors reject plans that do not cover the
    /// sequence or fuse a different number of levels. Callers reusing a
    /// cached plan on a new processor grid must revalidate Theorem 1
    /// first (`shift_peel_core::revalidate_plan`).
    pub fn prederived(mut self, plan: Arc<FusionPlan>) -> Self {
        self.fusion = Some(plan);
        self
    }

    /// Injects a freshly lowered tape and selects a tape backend
    /// (compiled unless [`Backend::Simd`] was already chosen — both run
    /// the same tapes). The report charges the tape's own lowering time
    /// to `lower_nanos` (the work happened, just outside the run) and
    /// leaves `cached` false. The tape must come from this program under
    /// the run's memory layout; executors reject one whose nest shapes or
    /// layout differ with [`ExecError::Config`].
    pub fn with_tape(mut self, tape: Arc<ProgramTape>) -> Self {
        if self.backend == Backend::Interp {
            self.backend = Backend::Compiled;
        }
        self.tape = Some(tape);
        self.tape_cached = false;
        self
    }

    /// Injects a cache-served tape and selects a tape backend (as
    /// [`RunConfig::with_tape`]). The report shows `lower_nanos == 0`
    /// and `cached == true`: no lowering happened anywhere for this run.
    pub fn precompiled(mut self, tape: Arc<ProgramTape>) -> Self {
        if self.backend == Backend::Interp {
            self.backend = Backend::Compiled;
        }
        self.tape = Some(tape);
        self.tape_cached = true;
        self
    }

    /// The plan to execute.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Timesteps the plan runs for.
    pub fn step_count(&self) -> usize {
        self.steps
    }

    /// The configured backend.
    pub fn backend_choice(&self) -> Backend {
        self.backend
    }

    /// The tracing configuration, if tracing was requested.
    pub fn trace_config(&self) -> Option<TraceConfig> {
        self.trace
    }

    /// The configured scheduling discipline.
    pub fn schedule_choice(&self) -> Schedule {
        self.schedule
    }

    /// The configured chunk-size override, if any.
    pub fn chunk_size(&self) -> Option<i64> {
        self.chunk
    }

    /// The victim-selection seed.
    pub fn victim_seed(&self) -> u64 {
        self.steal_seed
    }

    /// The injected fusion plan, if one was supplied.
    pub fn prederived_plan(&self) -> Option<&Arc<FusionPlan>> {
        self.fusion.as_ref()
    }

    /// The injected tape, if one was supplied (fresh or cached).
    pub fn injected_tape(&self) -> Option<&Arc<ProgramTape>> {
        self.tape.as_ref()
    }

    /// True when the injected tape was served from an artifact cache.
    pub fn tape_cached(&self) -> bool {
        self.tape_cached
    }

    fn validate(&self) -> Result<(), ExecError> {
        if self.steps == 0 {
            return Err(ExecError::Config("steps must be >= 1".into()));
        }
        if let ExecPlan::Fused { strip, .. } = &self.plan {
            if *strip < 1 {
                return Err(ExecError::Config(format!(
                    "strip must be >= 1, got {strip}"
                )));
            }
        }
        if self.plan.procs() == 0 {
            return Err(ExecError::Config(
                "processor grid has a zero dimension".into(),
            ));
        }
        if let Some(c) = self.chunk {
            if c < 1 {
                return Err(ExecError::Config(format!("chunk must be >= 1, got {c}")));
            }
        }
        Ok(())
    }
}

/// A runtime that can execute a [`Program`] under a [`RunConfig`].
///
/// `run` is `&mut self` because some executors carry state across runs
/// (the pool); implementations must leave `mem` holding the result of
/// the full `steps`-long run and report per-worker counters faithfully.
pub trait Executor {
    /// Short stable name (`scoped`, `pooled`, `sim`) used in
    /// reports and artifacts.
    fn name(&self) -> &'static str;

    /// Executes `cfg.plan()` on `mem` for `cfg.step_count()` timesteps.
    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError>;
}

/// Tracing state an executor carries through one run: the per-worker
/// ring config, the shared epoch every lane's timestamps are relative
/// to, and a controller lane recording orchestration spans (lowering).
struct RunTracing {
    cfg: TraceConfig,
    epoch: Instant,
    controller: WorkerTracer,
    /// What the `lower` span produced, once recorded.
    lower: Option<LowerNote>,
}

impl RunTracing {
    /// Starts tracing if the run asked for it. The epoch is *now*, so it
    /// must be called before any work to be traced (lowering included).
    fn start(cfg: &RunConfig) -> Option<RunTracing> {
        cfg.trace_config().map(|tc| {
            let epoch = Instant::now();
            // Orchestration records a handful of spans; a small ring
            // suffices.
            let controller = WorkerTracer::new(TraceConfig::with_capacity(64), epoch);
            RunTracing {
                cfg: tc,
                epoch,
                controller,
                lower: None,
            }
        })
    }

    fn record_lower(&mut self, started: Instant, lanes: u32, tape: &ProgramTape) {
        self.controller
            .record_lanes_until_now(SpanKind::Lower, started, lanes, NO_INDEX, NO_INDEX);
        self.lower = Some(LowerNote {
            chains: tape.chain_count(),
            direct_stores: tape.direct_store_count(),
            isa: RowIsa::detect().name(),
        });
    }

    fn finish(self, mut lanes: Vec<WorkerTrace>) -> RunTrace {
        lanes.push(self.controller.finish(CONTROLLER_LANE));
        RunTrace {
            lower: self.lower,
            ..RunTrace::assemble(lanes)
        }
    }
}

/// The fusion plan for this run: the injected prederived plan when one
/// was supplied (after a shape sanity check — a cache can never make an
/// executor run a plan for a different program), otherwise derived from
/// the program as before.
fn plan_of(prog: &Program<'_>, cfg: &RunConfig) -> Result<Arc<FusionPlan>, ExecError> {
    if let Some(fp) = cfg.prederived_plan() {
        let covered = fp.groups.last().map(|g| g.end).unwrap_or(0);
        if covered != prog.seq().len() {
            return Err(ExecError::Config(format!(
                "prederived plan covers {covered} nests but the program has {}",
                prog.seq().len()
            )));
        }
        if fp.levels != prog.levels() {
            return Err(ExecError::Config(format!(
                "prederived plan fuses {} levels but the program was built for {}",
                fp.levels,
                prog.levels()
            )));
        }
        return Ok(Arc::clone(fp));
    }
    prog.fusion_plan_for(cfg.plan())
}

/// Lowers the program to a tape when the config asks for a tape backend
/// (`None` means interpret). Both tape backends share one lowering — one
/// row program per statement and a row width per nest, which says where
/// `Simd` runs rows. An injected tape is checked against the program and
/// the layout (a cache can never make an executor run a tape lowered for
/// something else) and then used as it is — its lowering happened
/// elsewhere, so no `Lower` span is recorded here; fresh lowering is
/// timed into the controller lane, tagged with the most inner iterations
/// the backend runs at once: the tape's widest nest under `Simd`, one
/// column under `Compiled`.
fn lower_tape(
    prog: &Program<'_>,
    mem: &Memory,
    cfg: &RunConfig,
    tracing: &mut Option<RunTracing>,
) -> Result<Option<Arc<ProgramTape>>, ExecError> {
    match cfg.backend_choice() {
        Backend::Interp => Ok(None),
        backend @ (Backend::Compiled | Backend::Simd) => {
            if let Some(t) = cfg.injected_tape() {
                t.check_lowered_for(prog.seq(), &mem.layout)?;
                return Ok(Some(Arc::clone(t)));
            }
            let t0 = Instant::now();
            let tape = Arc::new(ProgramTape::lower(prog.seq(), &mem.layout));
            if let Some(tr) = tracing {
                let lanes = match backend {
                    Backend::Simd => tape.max_row_width().max(1),
                    _ => 1,
                };
                tr.record_lower(t0, lanes as u32, &tape);
            }
            Ok(Some(tape))
        }
    }
}

/// Everything a run needs before its first phase, built once per run
/// by every runtime: the tracing state, the lowered tape, and — for
/// parallel plans — the fusion plan flattened into a [`PhaseList`].
struct Prepared<'c> {
    cfg: &'c RunConfig,
    tracing: Option<RunTracing>,
    tape: Option<Arc<ProgramTape>>,
    /// `None` for `ExecPlan::Serial`, which has no phases to list.
    parallel: Option<(Arc<FusionPlan>, PhaseList)>,
    started: Instant,
}

impl<'c> Prepared<'c> {
    /// Validate, start tracing, plan, lower, flatten. `capacity` is the
    /// most processors the runtime can provide; a larger grid fails
    /// before any of the work is done.
    fn new(
        prog: &Program<'_>,
        mem: &Memory,
        cfg: &'c RunConfig,
        capacity: usize,
    ) -> Result<Self, ExecError> {
        cfg.validate()?;
        if cfg.plan().procs() > capacity {
            return Err(ExecError::PoolTooSmall {
                pool: capacity,
                required: cfg.plan().procs(),
            });
        }
        let mut tracing = RunTracing::start(cfg);
        let mut started = Instant::now();
        // One plan per run, which the phases execute; a serial run has
        // no phases and no plan.
        let fp = match cfg.plan() {
            ExecPlan::Serial => None,
            _ => Some(plan_of(prog, cfg)?),
        };
        let t0 = Instant::now();
        let tape = lower_tape(prog, mem, cfg, &mut tracing)?;
        // Wall time excludes lowering (reported separately) and nothing
        // else: planning and flattening are part of the run.
        started += t0.elapsed();
        let parallel = match fp {
            Some(fp) if !matches!(cfg.plan(), ExecPlan::Serial) => {
                let list = PhaseList::build(
                    prog.seq(),
                    prog.deps(),
                    &fp,
                    cfg.plan().grid(),
                    cfg.schedule_choice(),
                    cfg.chunk_size(),
                )?;
                Some((fp, list))
            }
            _ => None,
        };
        Ok(Prepared {
            cfg,
            tracing,
            tape,
            parallel,
            started,
        })
    }

    fn engine(&self) -> Engine<'_> {
        match &self.tape {
            Some(tape) => Engine::Tape {
                tape,
                rows: self.cfg.backend_choice() == Backend::Simd,
            },
            None => Engine::Interp,
        }
    }

    /// What the workers of a parallel run share.
    fn ctx<'a>(&'a self, seq: &'a LoopSequence, mem: &'a mut Memory) -> RunCtx<'a> {
        let (fp, list) = self
            .parallel
            .as_ref()
            .expect("only parallel plans have workers");
        RunCtx {
            seq,
            plan: fp,
            list,
            strip: match self.cfg.plan() {
                ExecPlan::Fused { strip, .. } => *strip,
                _ => i64::MAX,
            },
            engine: self.engine(),
            view: MemView::new(mem),
            nprocs: self.cfg.plan().procs(),
            schedule: self.cfg.schedule_choice(),
            steal_seed: self.cfg.victim_seed(),
            trace: self.tracing.as_ref().map(|t| (t.cfg, t.epoch)),
        }
    }

    /// The one report step: folds each worker's output, processor by
    /// processor, and the chunks' owner-attributed work into
    /// per-processor totals.
    fn report(self, name: &str, outs: impl ExactSizeIterator<Item = WorkerOut>) -> RunReport {
        let cfg = self.cfg;
        assert_eq!(outs.len(), cfg.plan().procs(), "one output per worker");
        let mut lanes = Vec::new();
        let mut totals: Vec<ExecCounters> = outs
            .map(|(counters, lane)| {
                lanes.extend(lane);
                counters
            })
            .collect();
        if let Some((_, list)) = &self.parallel {
            list.merge_into(&mut totals);
        }
        let tape = self.tape.as_deref();
        RunReport {
            executor: name.into(),
            backend: cfg.backend_choice().name().into(),
            schedule: cfg.schedule_choice().name().into(),
            procs: cfg.plan().procs(),
            steps: cfg.step_count(),
            wall_nanos: self.started.elapsed().as_nanos() as u64,
            // A cache-served tape was not lowered for this run; a fresh tape
            // (injected or not) reports the lowering time it recorded.
            lower_nanos: if cfg.tape_cached() {
                0
            } else {
                tape.map_or(0, |t| t.lower_nanos())
            },
            tape_ops: tape.map_or(0, |t| t.total_ops()),
            tape_chains: tape.map_or(0, |t| t.chain_count()),
            tape_direct_stores: tape.map_or(0, |t| t.direct_store_count()),
            max_row_width: tape.map_or(0, |t| t.max_row_width() as u64),
            row_isa: tape.map_or("", |_| RowIsa::detect().name()).into(),
            cached: cfg.tape_cached(),
            // The queue-wait/execute split belongs to the serve tier; a
            // direct executor run has no queue to wait in.
            queue_wait_nanos: 0,
            exec_nanos: 0,
            workers: totals
                .into_iter()
                .enumerate()
                .map(|(proc, counters)| WorkerReport { proc, counters })
                .collect(),
            trace: self.tracing.map(|tr| tr.finish(lanes)),
        }
    }
}

/// The threaded runtime: every worker runs [`drive_worker`] on one of
/// `pool`'s threads (the caller is processor 0), and one dispatch covers
/// every timestep.
fn run_pooled(
    name: &'static str,
    pool: &mut WorkerPool,
    prog: &Program<'_>,
    mem: &mut Memory,
    cfg: &RunConfig,
) -> Result<RunReport, ExecError> {
    if matches!(cfg.plan(), ExecPlan::Serial) {
        // A serial plan has no parallel phases; run it inline rather
        // than waking threads for nothing.
        return simulate(name, prog, mem, cfg, &mut [NullSink]);
    }
    let run = Prepared::new(prog, mem, cfg, pool.size())?;
    let ctx = run.ctx(prog.seq(), mem);
    let (nprocs, steps) = (ctx.nprocs, cfg.step_count());
    let barrier = SenseBarrier::new(nprocs);
    let slots: Vec<Mutex<WorkerOut>> = (0..nprocs).map(|_| Mutex::default()).collect();
    // Surplus workers sleep on.
    pool.run(nprocs, &|p: usize| {
        // SAFETY: the `nprocs` participating processors share one
        // context and barrier and cover the same steps.
        let out = unsafe { drive_worker(&ctx, p, &barrier, steps) };
        // One write at job end keeps the hot path lock-free.
        *slots[p].lock().expect("slot written once per worker") = out;
    })?;
    let outs = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot written once per worker"));
    Ok(run.report(name, outs))
}

/// The deterministic runtime: processors of each phase run one after
/// another on the caller's thread, each reporting into its own sink —
/// `for phase { for p in 0..P { run_phase(p) } }`, never stealing. Under
/// an adaptive schedule the phase list holds the same chunk
/// decomposition the threaded runtime uses and every chunk's work is
/// attributed to its *owner*, so the per-processor counters and access
/// streams produced here are the reference the threaded runtime must
/// reproduce exactly. Barrier waits are not recorded: nothing waits in
/// a serialized simulation.
pub(crate) fn simulate<S: AccessSink>(
    name: &str,
    prog: &Program<'_>,
    mem: &mut Memory,
    cfg: &RunConfig,
    sinks: &mut [S],
) -> Result<RunReport, ExecError> {
    let run = Prepared::new(prog, mem, cfg, usize::MAX)?;
    if sinks.len() != cfg.plan().procs() {
        return Err(ExecError::SinkCount {
            expected: cfg.plan().procs(),
            got: sinks.len(),
        });
    }
    let steps = cfg.step_count();
    let outs: Vec<WorkerOut> = if run.parallel.is_none() {
        // The original program on one processor: no phases, no barriers.
        let mut counters = ExecCounters::default();
        let mut tracer = run
            .tracing
            .as_ref()
            .map(|t| WorkerTracer::new(t.cfg, t.epoch));
        for step in 0..steps {
            let t0 = Instant::now();
            counters.merge(&run.engine().run_original(prog.seq(), mem, &mut sinks[0]));
            let dur = t0.elapsed().as_nanos() as u64;
            counters.fused_nanos += dur;
            if let Some(t) = &mut tracer {
                t.record(SpanKind::Serial, t0, dur, step as u32, NO_INDEX);
            }
        }
        vec![(counters, tracer.map(|t| t.finish(0)))]
    } else {
        let ctx = run.ctx(prog.seq(), mem);
        let mut workers: Vec<_> = sinks
            .iter_mut()
            .enumerate()
            .map(|(p, sink)| Worker::new(&ctx, p, sink, None))
            .collect();
        for step in 0..steps {
            for idx in 0..ctx.list.phases.len() {
                for w in &mut workers {
                    // SAFETY: simulated execution is single-threaded.
                    unsafe { run_phase(&ctx, w, step, idx) };
                    w.counters.barriers += 1;
                }
            }
        }
        workers.into_iter().map(Worker::finish).collect()
    };
    Ok(run.report(name, outs.into_iter()))
}

/// A one-run pool: every run builds a [`WorkerPool`] sized to its plan,
/// dispatches once as [`PooledExecutor`] does, and drops the pool. Same
/// results and work counters as the persistent pool; what it adds is
/// the cost of creating and joining `P - 1` threads per run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScopedExecutor;

impl Executor for ScopedExecutor {
    fn name(&self) -> &'static str {
        "scoped"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        let mut pool = WorkerPool::new(cfg.plan().procs().max(1));
        run_pooled(self.name(), &mut pool, prog, mem, cfg)
    }
}

/// Persistent-pool runtime: threads are created once (at
/// [`PooledExecutor::new`]) and reused by every run; a multi-timestep run
/// is a single pool dispatch whose processors — the calling thread is
/// processor 0 — loop over timesteps, meeting at a sense-reversing
/// barrier at every phase boundary.
pub struct PooledExecutor {
    pool: WorkerPool,
}

impl PooledExecutor {
    /// A pool for plans of up to `size` processors: the caller of
    /// [`run`](Executor::run) plus `size - 1` persistent threads. A run
    /// that needs fewer leaves the rest asleep.
    pub fn new(size: usize) -> Self {
        PooledExecutor {
            pool: WorkerPool::new(size),
        }
    }

    /// Processors a plan may use on this pool.
    pub fn size(&self) -> usize {
        self.pool.size()
    }
}

impl Executor for PooledExecutor {
    fn name(&self) -> &'static str {
        "pooled"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        run_pooled(self.name(), &mut self.pool, prog, mem, cfg)
    }
}

/// Deterministic simulation of `P` processors on one thread: processors
/// of each phase run one after another (legal because the transformation
/// removes all intra-phase cross-processor dependences), which makes
/// per-processor cache simulation reproducible.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimExecutor;

impl Executor for SimExecutor {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        let mut sinks = vec![NullSink; cfg.plan().procs()];
        simulate(self.name(), prog, mem, cfg, &mut sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cache::LayoutStrategy;
    use sp_ir::{LoopSequence, SeqBuilder};

    fn jacobi(n: usize) -> LoopSequence {
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
        b.finish()
    }

    #[test]
    fn backend_names_parse_back() {
        for b in [Backend::Interp, Backend::Compiled, Backend::Simd] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("dynamic"), None);
    }

    /// A different program over the same two arrays: one copying nest.
    fn copy(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("copy");
        let a = b.array("a", [n, n]);
        let c = b.array("c", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        b.finish()
    }

    fn snapshot_after(ex: &mut dyn Executor, cfg: &RunConfig, seq: &LoopSequence) -> Vec<Vec<f64>> {
        let prog = Program::new(seq, 2).unwrap();
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 7);
        ex.run(&prog, &mut mem, cfg).unwrap();
        mem.snapshot_all(seq)
    }

    #[test]
    fn all_executors_agree_on_blocked_plan() {
        let seq = jacobi(24);
        let cfg = RunConfig::blocked([2, 2]).steps(3);
        let want = snapshot_after(&mut SimExecutor, &cfg, &seq);
        assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
    }

    #[test]
    fn executors_agree_on_fused_plan() {
        let seq = jacobi(24);
        let cfg = RunConfig::fused([2, 2]).strip(4).steps(3);
        let want = snapshot_after(&mut SimExecutor, &cfg, &seq);
        assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
    }

    #[test]
    fn adaptive_schedules_match_static_results() {
        let seq = jacobi(32);
        let base = RunConfig::fused([2, 2]).strip(4).steps(3);
        let want = snapshot_after(&mut SimExecutor, &base, &seq);
        // Blocks of 15 rows: the finest legal chunks (1 clamps up to the
        // Nt floor) and an uneven split, 8 + 7.
        for chunk in [1, 6] {
            let cfg = base.clone().schedule(Schedule::Stealing).chunk(chunk);
            assert_eq!(
                snapshot_after(&mut SimExecutor, &cfg, &seq),
                want,
                "chunk {chunk} sim"
            );
            assert_eq!(
                snapshot_after(&mut ScopedExecutor, &cfg, &seq),
                want,
                "chunk {chunk} scoped"
            );
            assert_eq!(
                snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
                want,
                "chunk {chunk} pooled"
            );
        }
    }

    #[test]
    fn adaptive_owner_counters_match_sim_reference() {
        // Work counters are attributed to chunk *owners*, so the racy
        // threaded runtime must report exactly what the deterministic
        // simulator reports, per processor, at the same schedule.
        let seq = jacobi(32);
        let prog = Program::new(&seq, 2).unwrap();
        let stealing = RunConfig::fused([2, 2])
            .strip(4)
            .steps(2)
            .schedule(Schedule::Stealing);
        for chunk in [1, 6] {
            let cfg = stealing.clone().chunk(chunk);
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let sim = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
            assert_eq!(sim.schedule, cfg.schedule_choice().name());
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let pooled = PooledExecutor::new(4).run(&prog, &mut mem, &cfg).unwrap();
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let scoped = ScopedExecutor.run(&prog, &mut mem, &cfg).unwrap();
            for p in 0..4 {
                assert_eq!(
                    pooled.workers[p].counters, sim.workers[p].counters,
                    "chunk {chunk} pooled proc {p}"
                );
                assert_eq!(
                    scoped.workers[p].counters, sim.workers[p].counters,
                    "chunk {chunk} scoped proc {p}"
                );
            }
        }
    }

    /// `ScopedExecutor` is a pool of one run: the same dispatch as the
    /// persistent pool, hence the same bits, the same per-processor work
    /// counters and barrier crossings, and one dispatch span per worker
    /// however many steps the run covers.
    #[test]
    fn scoped_is_a_one_run_pool() {
        let seq = jacobi(32);
        let prog = Program::new(&seq, 2).unwrap();
        let mut pooled = PooledExecutor::new(4);
        let fused = RunConfig::fused([2, 2]).strip(4).steps(3);
        for cfg in [
            fused.clone(),
            fused.clone().schedule(Schedule::Stealing).chunk(1),
            fused.backend(Backend::Simd).traced(),
        ] {
            let run = |ex: &mut dyn Executor| {
                let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                mem.init_deterministic(&seq, 7);
                let report = ex.run(&prog, &mut mem, &cfg).unwrap();
                (report, mem.snapshot_all(&seq))
            };
            let (scoped, scoped_mem) = run(&mut ScopedExecutor);
            let (pool, pool_mem) = run(&mut pooled);
            assert_eq!(scoped.executor, "scoped");
            assert_eq!(scoped_mem, pool_mem);
            for (s, p) in scoped.workers.iter().zip(&pool.workers) {
                // Work counters and barrier crossings alike.
                assert_eq!(s.counters, p.counters, "proc {}", s.proc);
            }
            if let Some(trace) = &scoped.trace {
                assert_eq!(trace.events_of(SpanKind::Dispatch).count(), 4);
            }
        }
    }

    #[test]
    fn stealing_chunk_override_and_seed_keep_results() {
        let seq = jacobi(32);
        let base = RunConfig::fused([2, 2]).strip(4).steps(2);
        let want = snapshot_after(&mut SimExecutor, &base, &seq);
        let cfg = base
            .clone()
            .schedule(Schedule::Stealing)
            .chunk(3)
            .steal_seed(0xDEAD);
        assert_eq!(snapshot_after(&mut SimExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
    }

    #[test]
    fn zero_chunk_is_a_config_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([4]).schedule(Schedule::Stealing).chunk(0);
        let err = SimExecutor.run(&prog, &mut mem, &cfg).unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
    }

    #[test]
    fn compiled_backend_matches_interp_on_all_executors() {
        let seq = jacobi(24);
        for make_cfg in [
            RunConfig::fused([2, 2]).strip(4).steps(3),
            RunConfig::blocked([2, 2]).steps(3),
            RunConfig::serial().steps(3),
        ] {
            let want = snapshot_after(&mut SimExecutor, &make_cfg, &seq);
            for backend in [Backend::Compiled, Backend::Simd] {
                let cfg = make_cfg.clone().backend(backend);
                assert_eq!(snapshot_after(&mut SimExecutor, &cfg, &seq), want);
                assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
                if !matches!(cfg.plan(), ExecPlan::Serial) {
                    assert_eq!(
                        snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn simd_backend_reports_vectorized_iterations() {
        let seq = jacobi(40);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([2, 2])
            .strip(16)
            .steps(2)
            .backend(Backend::Simd);
        let report = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.backend, "simd");
        assert!(report.tape_ops > 0, "simd runs lower a tape");
        let merged = report.merged_counters();
        // Both jacobi nests have a row width, so every fused iteration runs
        // in a row; the peeled ones do too, but are counted apart.
        assert!(merged.peeled_iters > 0, "the fused plan peels");
        assert_eq!(merged.vec_iters, merged.iters);
        // Scalar backends never vectorize.
        let mut mem2 = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem2.init_deterministic(&seq, 7);
        let r2 = SimExecutor
            .run(
                &prog,
                &mut mem2,
                &RunConfig::fused([2, 2]).strip(16).steps(2),
            )
            .unwrap();
        assert_eq!(r2.merged_counters().vec_iters, 0);
        // Work counters still compare equal across backends (vec_iters
        // is dispatch accounting, excluded from equality).
        assert_eq!(report.merged_counters(), r2.merged_counters());
    }

    /// What an observing sink is told does not depend on the backend:
    /// the row runner replays each chunk in scalar order. One nest with
    /// both multiply-add shapes, a unary op and a constant on either
    /// side of an operator, feeding a stencil that makes the fused plan
    /// shift and peel; serially, and fused over two processors.
    #[test]
    fn simd_access_stream_equals_interp_including_peels() {
        use crate::sink::RecordingSink;
        use sp_ir::Expr;
        let n = 20usize;
        let mut b = SeqBuilder::new("stream");
        let [a, c, d, e] = ["a", "c", "d", "e"].map(|name| b.array(name, [n, n]));
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, -1]) * x.ld(a, [0, 1]) + x.ld(c, [0, 0]);
            x.assign(d, [0, 0], r);
            let r = x.ld(c, [0, 0]) + x.ld(a, [-1, 0]) * x.ld(a, [1, 0]);
            x.assign(e, [0, 0], -r);
            let r = Expr::Const(2.0) * x.ld(d, [0, 0]) - x.ld(e, [0, 0]) * 0.5;
            x.assign(c, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(c, [-1, 0]) + x.ld(c, [1, 0]);
            x.assign(a, [0, 0], r);
        });
        let seq = b.finish();
        let prog = Program::new(&seq, 1).unwrap();
        for cfg in [
            RunConfig::serial().steps(2),
            RunConfig::fused([2]).strip(4).steps(2),
        ] {
            let run = |backend: Backend| {
                let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                mem.init_deterministic(&seq, 7);
                let mut sinks = vec![RecordingSink::default(); cfg.plan().procs()];
                let cfg = cfg.clone().backend(backend);
                let report = simulate("sim", &prog, &mut mem, &cfg, &mut sinks).unwrap();
                let traces: Vec<_> = sinks.into_iter().map(|s| s.trace).collect();
                (report, traces, mem.snapshot_all(&seq))
            };
            let (ri, ti, mi) = run(Backend::Interp);
            let (rv, tv, mv) = run(Backend::Simd);
            assert!(ti.iter().all(|t| !t.is_empty()));
            assert_eq!(ti, tv, "{:?}", cfg.plan());
            assert_eq!(mi, mv, "{:?}", cfg.plan());
            for (wi, wv) in ri.workers.iter().zip(&rv.workers) {
                assert_eq!(wi.counters, wv.counters, "{:?}", cfg.plan());
            }
            let merged = rv.merged_counters();
            assert_eq!(merged.vec_iters, merged.iters);
            if cfg.plan().procs() > 1 {
                assert!(merged.peeled_iters > 0, "the fused plan peels");
            }
        }
    }

    #[test]
    fn compiled_report_carries_lowering_counters() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([2, 2]).strip(4).backend(Backend::Compiled);
        let report = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.backend, "compiled");
        assert!(report.tape_ops > 0, "tape has row ops");
        // Interp runs report no tape at all.
        let mut mem2 = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem2.init_deterministic(&seq, 7);
        let r2 = SimExecutor
            .run(&prog, &mut mem2, &RunConfig::fused([2, 2]).strip(4))
            .unwrap();
        assert_eq!(r2.backend, "interp");
        assert_eq!((r2.lower_nanos, r2.tape_ops), (0, 0));
    }

    #[test]
    fn injected_artifacts_match_fresh_runs_and_mark_reports() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let base = RunConfig::fused([2, 2]).strip(4).steps(3);
        // Fresh compiled run: the reference result and the tape source.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let fresh = SimExecutor
            .run(&prog, &mut mem, &base.clone().backend(Backend::Compiled))
            .unwrap();
        let want = mem.snapshot_all(&seq);
        assert!(!fresh.cached);
        // Derive the artifacts the way a cache would, then inject them.
        let fp = prog.fusion_plan_for(base.plan()).unwrap();
        let mem0 = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = Arc::new(ProgramTape::lower(&seq, &mem0.layout));
        // `with_tape`: fresh lowering done outside the run — lower time
        // is charged, `cached` stays false.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .with_tape(Arc::clone(&tape));
        let r = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
        assert!(!r.cached);
        assert_eq!(r.lower_nanos, tape.lower_nanos());
        assert_eq!(r.tape_ops, fresh.tape_ops);
        // `precompiled`: cache-served tape — no lowering this run.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .precompiled(Arc::clone(&tape));
        let r = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
        assert!(r.cached);
        assert_eq!(r.lower_nanos, 0);
        assert_eq!(r.tape_ops, fresh.tape_ops);
        // The threaded runtime accepts injected artifacts too.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .precompiled(Arc::clone(&tape));
        PooledExecutor::new(4).run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
    }

    #[test]
    fn mismatched_prederived_plan_is_rejected() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        // A plan for a *different* program: wrong nest coverage.
        let other = copy(32);
        let other_prog = Program::new(&other, 2).unwrap();
        let cfg = RunConfig::fused([2, 2]).strip(4);
        let wrong = other_prog.fusion_plan_for(cfg.plan()).unwrap();
        let err = SimExecutor
            .run(&prog, &mut mem, &cfg.clone().prederived(wrong))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
        // Wrong fused-levels count is rejected too.
        let prog1 = Program::new(&seq, 1).unwrap();
        let wrong_levels = prog1.fusion_plan_for(cfg.plan()).unwrap();
        let err = SimExecutor
            .run(&prog, &mut mem, &cfg.prederived(wrong_levels))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
    }

    /// An injected tape indexes `nests` by nest and trusts its baked-in
    /// slots; one lowered for another sequence, or for this sequence
    /// under another layout, must be refused before anything runs.
    #[test]
    fn mismatched_injected_tape_is_rejected() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let before = mem.snapshot_all(&seq);
        let tape_for = |seq: &LoopSequence, layout: LayoutStrategy| {
            Arc::new(ProgramTape::lower(seq, &Memory::new(seq, layout).layout))
        };
        let wrong = [
            (
                "fewer nests",
                tape_for(&copy(24), LayoutStrategy::Contiguous),
            ),
            ("padded rows", tape_for(&seq, LayoutStrategy::InnerPad(3))),
            (
                "larger arrays",
                tape_for(&jacobi(32), LayoutStrategy::Contiguous),
            ),
        ];
        for (what, tape) in wrong {
            for cfg in [RunConfig::serial(), RunConfig::fused([2, 2]).strip(4)] {
                for cfg in [
                    cfg.clone().with_tape(Arc::clone(&tape)),
                    cfg.precompiled(Arc::clone(&tape)),
                ] {
                    let err = SimExecutor.run(&prog, &mut mem, &cfg).unwrap_err();
                    assert!(matches!(err, ExecError::Config(_)), "{what}: {err:?}");
                    let err = ScopedExecutor.run(&prog, &mut mem, &cfg.backend(Backend::Simd));
                    assert!(matches!(err, Err(ExecError::Config(_))), "{what}: {err:?}");
                }
            }
        }
        assert_eq!(mem.snapshot_all(&seq), before, "nothing ran");
    }

    #[test]
    fn pool_too_small_is_a_typed_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let too_small = ExecError::PoolTooSmall {
            pool: 2,
            required: 4,
        };
        let cfg = RunConfig::blocked([2, 2]);
        let err = PooledExecutor::new(2)
            .run(&prog, &mut mem, &cfg)
            .unwrap_err();
        assert_eq!(err, too_small);
        // The grid is checked before any lowering or planning: a tape
        // backend whose (mismatched) prederived plan would fail lowering
        // still reports the pool, not the plan.
        let prog1 = Program::new(&seq, 1).unwrap();
        let wrong_levels = prog1.fusion_plan_for(cfg.plan()).unwrap();
        let cfg = cfg.backend(Backend::Compiled).prederived(wrong_levels);
        let err = PooledExecutor::new(2)
            .run(&prog, &mut mem, &cfg)
            .unwrap_err();
        assert_eq!(err, too_small);
    }

    #[test]
    fn zero_steps_is_a_config_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let err = ScopedExecutor
            .run(&prog, &mut mem, &RunConfig::serial().steps(0))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)));
    }

    #[test]
    fn pooled_report_has_barrier_and_imbalance_stats() {
        let seq = jacobi(32);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let mut pooled = PooledExecutor::new(4);
        let report = pooled
            .run(
                &prog,
                &mut mem,
                &RunConfig::fused([2, 2]).strip(8).steps(10),
            )
            .unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.workers.len(), 4);
        // Every worker crossed every barrier of every step.
        let barriers = report.workers[0].counters.barriers;
        assert!(
            barriers >= 20,
            "expected >= 2 barriers/step, got {barriers}"
        );
        assert!(report
            .workers
            .iter()
            .all(|w| w.counters.barriers == barriers));
        // Someone waited at some barrier, and imbalance is near 1.
        assert!(report.max_barrier_wait_nanos() > 0);
        let imb = report.imbalance();
        assert!((1.0..2.0).contains(&imb), "imbalance {imb}");
    }
}

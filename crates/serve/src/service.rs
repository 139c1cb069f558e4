//! The job service: many clients, one worker pool, one cache.
//!
//! A [`Service`] owns a scheduler thread that feeds a single
//! [`PooledExecutor`] (the persistent worker pool); jobs from any number
//! of client threads queue through [`Service::submit`] and complete in an
//! order chosen by per-client fair share with FIFO tie-breaking. The
//! scheduler consults the [`ArtifactCache`] before compiling anything:
//! a hit injects the cached plan (and tape, for the compiled backend)
//! into the run via `RunConfig::prederived`/`precompiled`, a miss
//! compiles and inserts.
//!
//! Deadlines are checked twice — before starting (a job that aged out in
//! the queue never runs) and after the run (a job that overran is
//! reported as [`ServeError::Deadline`] and its result discarded). The
//! run itself is never interrupted, so the worker pool is always left in
//! a clean state for the next job.

use crate::cache::{Artifact, ArtifactCache, ArtifactCacheConfig, CacheCounters};
use crate::hash::CacheKey;
use crate::obs::{flush_stats, LifetimeStats, ServeObs, StageStats};
use crate::program::SharedProgram;
use shift_peel_core::pipeline::pass;
use shift_peel_core::{NullObserver, PassTimings, PlanConfig, Planner};
use sp_cache::LayoutStrategy;
use sp_exec::{
    register_pass_metrics, Backend, ExecError, ExecPlan, Executor, Memory, PooledExecutor, Program,
    ProgramTape, RunConfig, RunReport, Schedule,
};
use sp_ir::LoopSequence;
use sp_trace::{JobSpans, JobStage, MetricsRegistry, SessionTrace};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Errors surfaced by the service.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full; back off and resubmit.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The job's deadline elapsed (in the queue or during execution).
    Deadline {
        /// The job that timed out.
        job: JobId,
        /// Its configured budget.
        budget: Duration,
    },
    /// The service is draining or shut down; no new work is admitted.
    ShuttingDown,
    /// No job with this id was ever submitted, or it finished so long
    /// ago that its result has expired (see [`RESULT_RETENTION`]).
    UnknownJob(JobId),
    /// Planning or execution failed.
    Exec(ExecError),
    /// A job manifest could not be parsed.
    Manifest(String),
    /// The submitting tenant is over its quota; back off and resubmit.
    QuotaExceeded {
        /// The tenant that hit its limit.
        tenant: String,
        /// Jobs the tenant currently has pending or running.
        in_flight: usize,
        /// The quota that was exhausted.
        limit: usize,
    },
}

impl ServeError {
    /// Stable numeric code for the wire protocol. Codes are append-only:
    /// a value, once assigned, never changes meaning.
    pub fn code(&self) -> u16 {
        match self {
            ServeError::QueueFull { .. } => 1,
            ServeError::Deadline { .. } => 2,
            ServeError::ShuttingDown => 3,
            ServeError::UnknownJob(_) => 4,
            ServeError::Exec(_) => 5,
            ServeError::Manifest(_) => 6,
            ServeError::QuotaExceeded { .. } => 7,
        }
    }

    /// True for the codes of errors a client may retry after backing off
    /// (transient load conditions rather than permanent request defects):
    /// a wire client sees the code and nothing else.
    pub fn is_transient_code(code: u16) -> bool {
        // QueueFull, QuotaExceeded.
        matches!(code, 1 | 7)
    }

    /// [`ServeError::is_transient_code`] of this error's code.
    pub fn is_transient(&self) -> bool {
        Self::is_transient_code(self.code())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} pending) [code 1]")
            }
            ServeError::Deadline { job, budget } => {
                write!(f, "job {job} exceeded its {:?} deadline [code 2]", budget)
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down [code 3]"),
            ServeError::UnknownJob(id) => write!(f, "unknown job {id} [code 4]"),
            ServeError::Exec(e) => write!(f, "execution failed: {e} [code 5]"),
            ServeError::Manifest(m) => write!(f, "manifest error: {m} [code 6]"),
            ServeError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant {tenant} is over quota ({in_flight} in flight, limit {limit}) [code 7]"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

/// Handle to a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One unit of work: a sequence plus everything needed to run it.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Fair-share scheduling bucket; jobs from starved clients run first.
    pub client: String,
    /// Display name (kernel name, manifest job name).
    pub name: String,
    /// The program to run, with its canonical text and digest. Shared:
    /// cloning a spec copies a pointer, not the program.
    pub seq: SharedProgram,
    /// Fused loop levels (= grid rank for parallel plans).
    pub levels: usize,
    /// What to execute (serial / blocked / fused + grid).
    pub plan: ExecPlan,
    /// Interpreter, or the lowered tape a column or a row at a time.
    pub backend: Backend,
    /// Work-distribution discipline for parallel runs (static or
    /// stealing). Not part of the cache key: every schedule derives the
    /// same plan and produces bit-identical results.
    pub schedule: Schedule,
    /// Timesteps.
    pub steps: usize,
    /// Deterministic initialization seed.
    pub seed: u64,
    /// Wall-clock budget from submission to completion.
    pub deadline: Option<Duration>,
    /// Carry the final array snapshot in the [`JobResult`].
    pub keep_output: bool,
}

impl JobSpec {
    /// A compiled-backend job for `seq` under `plan`, one step, defaults
    /// everywhere else. `levels` is the grid rank (1 for serial). A
    /// [`LoopSequence`] is rendered and hashed here, once; a
    /// [`SharedProgram`] is taken as it is.
    pub fn new(name: impl Into<String>, seq: impl Into<SharedProgram>, plan: ExecPlan) -> JobSpec {
        let levels = plan.grid().len().max(1);
        JobSpec {
            client: "default".into(),
            name: name.into(),
            seq: seq.into(),
            levels,
            plan,
            backend: Backend::Compiled,
            schedule: Schedule::default(),
            steps: 1,
            seed: 7,
            deadline: None,
            keep_output: false,
        }
    }

    /// Sets the fair-share client bucket.
    pub fn client(mut self, c: impl Into<String>) -> Self {
        self.client = c.into();
        self
    }

    /// Sets the execution backend.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Sets the work-distribution schedule.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Sets the timestep count.
    pub fn steps(mut self, n: usize) -> Self {
        self.steps = n.max(1);
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Keeps the final array snapshot in the result.
    pub fn keep_output(mut self) -> Self {
        self.keep_output = true;
        self
    }

    /// The planning configuration this spec compiles under — the plan
    /// half of its cache key.
    pub fn plan_config(&self) -> PlanConfig {
        match &self.plan {
            ExecPlan::Fused { method, .. } => PlanConfig::fused(self.levels).method(*method),
            ExecPlan::Serial | ExecPlan::Blocked { .. } => PlanConfig::unfused(self.levels),
        }
    }

    /// The content address of this spec's compilation artifacts, hashed
    /// from the text the program already holds.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::of_rendered(
            self.seq.text(),
            &self.plan_config(),
            self.backend,
            self.plan.procs(),
        )
    }
}

/// Whether the cache served a job's compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Compiled from scratch (and inserted).
    Miss,
    /// Full artifact served from the in-memory tier.
    Memory,
}

impl CacheOutcome {
    /// Short stable name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Memory => "hit",
        }
    }
}

/// A completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The submitted job's id.
    pub id: JobId,
    /// Spec name, echoed back.
    pub name: String,
    /// Spec client, echoed back.
    pub client: String,
    /// The content address the job compiled under.
    pub key: CacheKey,
    /// Full executor instrumentation (`cached` + `lower_nanos` reflect
    /// the cache outcome).
    pub report: RunReport,
    /// Whether the cache served the compilation.
    pub cache: CacheOutcome,
    /// [`snapshot_digest`] of the final arrays — cheap bit-for-bit
    /// comparison between cached and uncached runs.
    pub digest: u64,
    /// The snapshot itself, when the spec asked to keep it.
    pub output: Option<Vec<Vec<f64>>>,
    /// Time spent queued before the scheduler picked the job.
    pub queued_nanos: u64,
    /// Wall time of the executor run.
    pub run_nanos: u64,
    /// 1-based completion order across the service (for scheduling
    /// tests and logs).
    pub order: u64,
}

/// Per-tenant admission limits. The default is unlimited; a configured
/// quota bounds how much of the service one tenant can occupy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantQuota {
    /// Max jobs the tenant may have pending + running at once
    /// (0 = unlimited).
    pub max_in_flight: usize,
    /// Max fraction of the bounded queue the tenant's pending jobs may
    /// occupy, applied on top of `max_in_flight` (1.0 = the whole
    /// queue).
    pub queue_share: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_in_flight: 0,
            queue_share: 1.0,
        }
    }
}

impl TenantQuota {
    /// A quota bounding in-flight jobs.
    pub fn in_flight(n: usize) -> TenantQuota {
        TenantQuota {
            max_in_flight: n,
            ..TenantQuota::default()
        }
    }

    /// Caps the tenant's share of the pending queue.
    pub fn queue_share(mut self, f: f64) -> Self {
        self.queue_share = f.clamp(0.0, 1.0);
        self
    }

    /// The effective in-flight limit given the queue capacity, or
    /// `None` when unlimited.
    fn limit(&self, queue_capacity: usize) -> Option<usize> {
        let share = if self.queue_share < 1.0 {
            // At least one slot so a capped tenant is throttled, not
            // locked out.
            Some(((queue_capacity as f64 * self.queue_share) as usize).max(1))
        } else {
            None
        };
        match (self.max_in_flight, share) {
            (0, s) => s,
            (n, None) => Some(n),
            (n, Some(s)) => Some(n.min(s)),
        }
    }
}

/// Service sizing.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker-pool size (processors available to any one job).
    pub workers: usize,
    /// Bounded pending-queue capacity (backpressure past this).
    pub queue_capacity: usize,
    /// Artifact-cache placement and sizing.
    pub cache: ArtifactCacheConfig,
    /// Trace every run and accumulate a [`SessionTrace`] (one Chrome
    /// trace for the whole session, retrievable via
    /// [`Service::session_trace`]).
    pub tracing: bool,
    /// Per-tenant admission quotas, keyed by client/tenant id.
    pub quotas: HashMap<String, TenantQuota>,
    /// Quota applied to tenants with no explicit entry in `quotas`.
    pub default_quota: TenantQuota,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache: ArtifactCacheConfig::default(),
            tracing: false,
            quotas: HashMap::new(),
            default_quota: TenantQuota::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-pool size.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the bounded-queue capacity.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the cache configuration.
    pub fn cache(mut self, c: ArtifactCacheConfig) -> Self {
        self.cache = c;
        self
    }

    /// Enables per-run tracing and session-trace accumulation.
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Sets the quota for one named tenant.
    pub fn quota(mut self, tenant: impl Into<String>, q: TenantQuota) -> Self {
        self.quotas.insert(tenant.into(), q);
        self
    }

    /// Sets the quota for tenants without an explicit entry.
    pub fn default_quota(mut self, q: TenantQuota) -> Self {
        self.default_quota = q;
        self
    }
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    enqueued: Instant,
    /// Wire-decode span (epoch offset + duration) for jobs that arrived
    /// over a socket; zero-width for in-process submissions.
    decode: (u64, u64),
    /// Session-epoch offset of the submit call (the enqueue span start).
    enqueue_start: u64,
    /// Duration of the submit call itself (the enqueue span).
    enqueue_dur: u64,
}

/// A job's terminal outcome, as [`Service::on_done`] delivers it.
pub type Completion = (JobId, Result<JobResult, ServeError>);

/// How many finished jobs a [`Service`] remembers the results of. Results
/// are kept so that a job which finished before anyone asked can still be
/// waited on; beyond this many the oldest is forgotten (first
/// finished, first forgotten) and its id answers
/// [`ServeError::UnknownJob`], so a long-lived service's memory does not
/// grow with the number of jobs it has served.
pub const RESULT_RETENTION: usize = 4096;

#[derive(Default)]
struct State {
    pending: VecDeque<QueuedJob>,
    /// The retained results; only [`State::deliver`] inserts. A tree of
    /// boxes, not a hash table of inline entries: a table under steady
    /// insert-and-remove fills with tombstones and doubles once, late,
    /// which at ~370 B an entry made the service's heap peak depend on how
    /// long it had been running.
    done: BTreeMap<u64, Box<Result<JobResult, ServeError>>>,
    /// The ids in `done`, oldest result first.
    done_order: VecDeque<u64>,
    /// Who is owed each pending or running job's result (see
    /// [`Service::on_done`]); [`State::deliver`] answers and drops them.
    watchers: Vec<(JobId, Sender<Completion>)>,
    /// Jobs started per client with a job pending or running — the
    /// fair-share balance. A client's count is forgotten when its last
    /// job finishes, so the map holds no more entries than the queue
    /// holds jobs, plus one.
    served: HashMap<String, u64>,
    running: Option<JobId>,
    /// Tenant of the running job (for in-flight quota accounting).
    running_client: Option<String>,
    next_id: u64,
    completed: u64,
    failed: u64,
    accepting: bool,
    shutdown: bool,
}

impl State {
    /// Jobs the tenant currently has pending or running.
    fn in_flight(&self, tenant: &str) -> usize {
        let pending = self
            .pending
            .iter()
            .filter(|j| j.spec.client == tenant)
            .count();
        let running = usize::from(self.running_client.as_deref() == Some(tenant));
        pending + running
    }

    /// Records a finished (or administratively failed) job's result: sends
    /// it to every watcher of `id`, then retains it and forgets the oldest
    /// results beyond [`RESULT_RETENTION`]. It runs under the state lock,
    /// so whoever sees the job leave the queue sees its replies sent.
    fn deliver(&mut self, id: JobId, res: Result<JobResult, ServeError>) {
        self.watchers.retain(|(job, tx)| {
            if *job == id {
                let _ = tx.send((id, res.clone()));
            }
            *job != id
        });
        self.done.insert(id.0, Box::new(res));
        self.done_order.push_back(id.0);
        if self.done_order.len() > RESULT_RETENTION {
            let oldest = self.done_order.pop_front().expect("longer than the bound");
            self.done.remove(&oldest);
        }
    }

    /// Where `id` stands: its result while that is retained, `None` while
    /// it is pending or running, and [`ServeError::UnknownJob`] when it
    /// was never submitted or its result has expired — nothing will ever
    /// complete such an id.
    fn outcome(&self, id: JobId) -> Option<Result<JobResult, ServeError>> {
        if let Some(res) = self.done.get(&id.0) {
            return Some((**res).clone());
        }
        let live = self.running == Some(id) || self.pending.iter().any(|j| j.id == id);
        (!live).then_some(Err(ServeError::UnknownJob(id)))
    }
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the scheduler: new work or shutdown.
    work_cv: Condvar,
    /// Wakes [`Service::drain`]: a job finished.
    done_cv: Condvar,
    cache: Mutex<ArtifactCache>,
    /// Planning stage time accumulated across every planning run this
    /// service performed (a supplied analysis contributes 0).
    pass_timings: Mutex<PassTimings>,
    queue_capacity: usize,
    /// Per-tenant admission quotas.
    quotas: HashMap<String, TenantQuota>,
    /// Quota for tenants absent from `quotas`.
    default_quota: TenantQuota,
    /// The session epoch every stage span is timestamped against.
    epoch: Instant,
    /// Trace runs and collect a [`SessionTrace`]?
    tracing: bool,
    /// Stage histograms, outcome counters, and the session trace.
    obs: Mutex<ServeObs>,
}

impl Shared {
    /// The effective in-flight limit for `tenant`, or `None` when
    /// unlimited.
    fn quota_limit(&self, tenant: &str) -> Option<usize> {
        self.quotas
            .get(tenant)
            .unwrap_or(&self.default_quota)
            .limit(self.queue_capacity)
    }
}

/// Nanoseconds from the session epoch to now.
fn since_epoch(epoch: Instant) -> u64 {
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// Folds one planning run's timings into the service-lifetime aggregate.
fn record_pass_timings(shared: &Shared, run: &PassTimings) {
    let mut agg = shared.pass_timings.lock().unwrap();
    for t in &run.passes {
        if let Some(slot) = agg.passes.iter_mut().find(|p| p.pass == t.pass) {
            slot.nanos += t.nanos;
        } else {
            agg.passes.push(t.clone());
        }
    }
}

/// The job service. Dropping it drains nothing: pending jobs fail with
/// [`ServeError::ShuttingDown`]; call [`Service::drain`] first for a
/// graceful stop.
pub struct Service {
    shared: Arc<Shared>,
    scheduler: Option<thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the scheduler thread and its worker pool.
    pub fn new(cfg: ServiceConfig) -> Service {
        let pool = PooledExecutor::new(cfg.workers.max(1));
        Service::start(cfg, pool)
    }

    /// [`Service::new`] over a given executor (the seam the fault tests
    /// put a panicking one through).
    fn start(cfg: ServiceConfig, exec: impl Executor + Send + 'static) -> Service {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                accepting: true,
                ..State::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache: Mutex::new(ArtifactCache::new(cfg.cache.clone())),
            pass_timings: Mutex::new(PassTimings::default()),
            queue_capacity: cfg.queue_capacity.max(1),
            quotas: cfg.quotas.clone(),
            default_quota: cfg.default_quota,
            epoch: Instant::now(),
            tracing: cfg.tracing,
            obs: Mutex::new(ServeObs::new(cfg.tracing)),
        });
        let sched = Arc::clone(&shared);
        let scheduler = thread::Builder::new()
            .name("sp-serve-scheduler".into())
            .spawn(move || scheduler_loop(&sched, exec))
            .expect("spawn scheduler");
        Service {
            shared,
            scheduler: Some(scheduler),
        }
    }

    /// Enqueues a job. Fails fast with [`ServeError::QueueFull`] when
    /// the bounded queue is at capacity, [`ServeError::QuotaExceeded`]
    /// when the tenant is over its admission quota, and
    /// [`ServeError::ShuttingDown`] after [`Service::drain`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.submit_with_decode(spec, (since_epoch(self.shared.epoch), 0))
    }

    /// [`Service::submit`] for jobs that arrived over a socket: `decode`
    /// is the (epoch-offset, duration) of reading + decoding the
    /// submission frame, recorded as the job's `decode` stage span.
    pub fn submit_wire(&self, spec: JobSpec, decode: (u64, u64)) -> Result<JobId, ServeError> {
        self.submit_with_decode(spec, decode)
    }

    fn submit_with_decode(&self, spec: JobSpec, decode: (u64, u64)) -> Result<JobId, ServeError> {
        let entered = Instant::now();
        let enqueue_start = since_epoch(self.shared.epoch);
        let mut st = self.shared.state.lock().unwrap();
        if !st.accepting || st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(limit) = self.shared.quota_limit(&spec.client) {
            let in_flight = st.in_flight(&spec.client);
            if in_flight >= limit {
                let tenant = spec.client.clone();
                // Count the rejection after releasing the state lock:
                // the obs mutex is only ever taken alone.
                drop(st);
                let mut obs = self.shared.obs.lock().unwrap();
                obs.stats.quota += 1;
                obs.stats.tenant_mut(&tenant).quota += 1;
                return Err(ServeError::QuotaExceeded {
                    tenant,
                    in_flight,
                    limit,
                });
            }
        }
        if st.pending.len() >= self.shared.queue_capacity {
            drop(st);
            self.shared.obs.lock().unwrap().stats.rejected += 1;
            return Err(ServeError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        st.pending.push_back(QueuedJob {
            id,
            spec,
            enqueued: Instant::now(),
            decode,
            enqueue_start,
            enqueue_dur: entered.elapsed().as_nanos() as u64,
        });
        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// Nanoseconds from this service's session epoch to now — the
    /// timebase wire servers use to stamp `decode`/`respond_wire` spans.
    pub fn since_epoch(&self) -> u64 {
        since_epoch(self.shared.epoch)
    }

    /// Records a post-completion wire stage (`respond_wire`) for `id`:
    /// the duration lands in the stage histograms and, when tracing, the
    /// span is appended to the job's session lane.
    pub fn record_wire_stage(&self, id: JobId, stage: JobStage, start: u64, dur_nanos: u64) {
        let mut obs = self.shared.obs.lock().unwrap();
        obs.stats.observe(stage, dur_nanos);
        if let Some(session) = obs.session.as_mut() {
            if let Some(job) = session.jobs.iter_mut().rev().find(|j| j.job_id == id.0) {
                job.stage(stage, start, dur_nanos);
            }
        }
    }

    /// Sends `id`'s outcome to `tx` once, when there is one: a retained
    /// result, or [`ServeError::UnknownJob`] for an id that was never
    /// submitted or whose result has expired, goes now, on this thread; a
    /// pending or running job's result goes from the thread that finishes
    /// it (the scheduler, or [`Drop`]'s [`ServeError::ShuttingDown`]),
    /// and `tx` is dropped right after. Every waiter is built on this.
    pub fn on_done(&self, id: JobId, tx: Sender<Completion>) {
        let res = {
            let mut st = self.shared.state.lock().unwrap();
            match st.outcome(id) {
                Some(res) => res,
                None => {
                    st.watchers.push((id, tx));
                    return;
                }
            }
        };
        let _ = tx.send((id, res));
    }

    /// Blocks until `id` completes (or fails). An id that was never
    /// submitted, or whose result has expired, is
    /// [`ServeError::UnknownJob`].
    pub fn wait(&self, id: JobId) -> Result<JobResult, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.on_done(id, tx);
        rx.recv()
            .map_or(Err(ServeError::ShuttingDown), |(_, res)| res)
    }

    /// Stops admission and blocks until every pending and running job
    /// has completed.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.accepting = false;
        while !st.pending.is_empty() || st.running.is_some() {
            st = self.shared.done_cv.wait(st).unwrap();
        }
    }

    /// Jobs currently queued (not running).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().pending.len()
    }

    /// This service's cache counters so far.
    pub fn cache_counters(&self) -> CacheCounters {
        self.shared.cache.lock().unwrap().counters()
    }

    /// A metrics registry covering the cache, the job counters, the
    /// per-outcome totals, and the per-stage latency histograms.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(&[("component", "sp-serve")]);
        {
            let st = self.shared.state.lock().unwrap();
            reg.counter(
                "spfc_serve_jobs_submitted_total",
                "Jobs admitted",
                st.next_id,
            );
            reg.counter(
                "spfc_serve_jobs_completed_total",
                "Jobs completed",
                st.completed,
            );
            reg.counter("spfc_serve_jobs_failed_total", "Jobs failed", st.failed);
            reg.gauge(
                "spfc_serve_queue_depth",
                "Jobs pending",
                st.pending.len() as f64,
            );
            reg.gauge(
                "spfc_serve_results_retained",
                "Finished jobs whose results are still held",
                st.done.len() as f64,
            );
        }
        {
            let obs = self.shared.obs.lock().unwrap();
            let executing = obs.stats.stage(JobStage::Execute).map_or(0, |h| h.sum());
            reg.gauge(
                "spfc_serve_pool_busy_ratio",
                "Execute-stage time over the scheduler's wall time since start",
                executing as f64 / since_epoch(self.shared.epoch).max(1) as f64,
            );
            const JOBS_TOTAL: &str = "spfc_serve_jobs_total";
            const JOBS_HELP: &str = "Jobs by terminal outcome";
            reg.labeled_counter(JOBS_TOTAL, JOBS_HELP, ("outcome", "ok"), obs.stats.ok);
            reg.labeled_counter(
                JOBS_TOTAL,
                JOBS_HELP,
                ("outcome", "deadline"),
                obs.stats.deadline,
            );
            reg.labeled_counter(
                JOBS_TOTAL,
                JOBS_HELP,
                ("outcome", "rejected"),
                obs.stats.rejected,
            );
            reg.labeled_counter(JOBS_TOTAL, JOBS_HELP, ("outcome", "quota"), obs.stats.quota);
            for t in &obs.stats.tenants {
                reg.labeled_counter(
                    "spfc_serve_tenant_jobs_total",
                    "Completed jobs by tenant",
                    ("tenant", &t.name),
                    t.ok + t.deadline,
                );
                reg.labeled_counter(
                    "spfc_serve_tenant_quota_total",
                    "Quota rejections by tenant",
                    ("tenant", &t.name),
                    t.quota,
                );
            }
            for stage in JobStage::all() {
                let h = reg.labeled_histogram(
                    "spfc_serve_stage_nanos",
                    "Per-stage job latency in nanoseconds",
                    ("stage", stage.name()),
                );
                if let Some(src) = obs.stats.stage(stage) {
                    h.merge(src);
                }
            }
        }
        self.shared.cache.lock().unwrap().register_metrics(&mut reg);
        register_pass_metrics(&mut reg, &self.shared.pass_timings.lock().unwrap());
        reg
    }

    /// Stage latency histograms and outcome counters accumulated so far.
    pub fn stage_stats(&self) -> StageStats {
        self.shared.obs.lock().unwrap().stats.clone()
    }

    /// The session trace collected so far, when the service was built
    /// with [`ServiceConfig::traced`]. `None` when tracing is off.
    pub fn session_trace(&self) -> Option<SessionTrace> {
        self.shared.obs.lock().unwrap().session.clone()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.accepting = false;
            st.shutdown = true;
            // Fail whatever never started; the running job (if any)
            // finishes — the pool is never interrupted mid-run.
            while let Some(job) = st.pending.pop_front() {
                st.deliver(job.id, Err(ServeError::ShuttingDown));
                st.failed += 1;
            }
            self.shared.work_cv.notify_all();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // Add this service's counts to the lifetime stats `spfc cache
        // stats` reads, when it has a stats directory.
        let (dir, counters) = {
            let cache = self.shared.cache.lock().unwrap();
            (cache.disk_dir().map(Path::to_path_buf), cache.counters())
        };
        if let Some(dir) = dir {
            let stages = std::mem::take(&mut self.shared.obs.lock().unwrap().stats);
            let delta = LifetimeStats {
                cache: counters,
                stages,
            };
            flush_stats(&dir, &delta);
        }
    }
}

/// Fair share: among pending jobs, pick the one whose client has been
/// served least since it last had nothing in flight; FIFO breaks ties
/// (and orders a single client's jobs).
fn pick_next(st: &State) -> Option<usize> {
    st.pending
        .iter()
        .enumerate()
        .min_by_key(|(i, j)| (st.served.get(&j.spec.client).copied().unwrap_or(0), *i))
        .map(|(i, _)| i)
}

fn scheduler_loop(shared: &Shared, mut exec: impl Executor) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(i) = pick_next(&st) {
                    let job = st.pending.remove(i).expect("picked index is pending");
                    st.running = Some(job.id);
                    st.running_client = Some(job.spec.client.clone());
                    *st.served.entry(job.spec.client.clone()).or_insert(0) += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let res = run_job(shared, &mut exec, &job);
        let mut st = shared.state.lock().unwrap();
        st.running = None;
        st.running_client = None;
        if st.in_flight(&job.spec.client) == 0 {
            st.served.remove(&job.spec.client);
        }
        match res {
            Ok(mut r) => {
                st.completed += 1;
                r.order = st.completed;
                st.deliver(job.id, Ok(r));
            }
            Err(e) => {
                st.failed += 1;
                st.deliver(job.id, Err(e));
            }
        }
        shared.done_cv.notify_all();
    }
}

/// Compiles (or fetches) and runs one job on the shared pool, then
/// folds its stage spans into the observability state: every stage
/// duration lands in the histograms, the terminal outcome is counted,
/// and (when tracing) the spans join the session trace.
fn run_job(
    shared: &Shared,
    exec: &mut dyn Executor,
    job: &QueuedJob,
) -> Result<JobResult, ServeError> {
    let mut spans = JobSpans::new(job.id.0, &job.spec.name, &job.spec.client);
    spans.stage(JobStage::Decode, job.decode.0, job.decode.1);
    spans.stage(JobStage::Enqueue, job.enqueue_start, job.enqueue_dur);
    // This thread is processor 0 of every job it runs. The pool already
    // turns a panic inside a parallel run into `WorkerPanic`; a panic
    // anywhere else on the job's path (no lock is held across a stage) is
    // reported the same way rather than taking the scheduler, and every
    // waiter and later job, down with it.
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_job_stages(shared, exec, job, &mut spans)
    }))
    .unwrap_or(Err(ServeError::Exec(ExecError::WorkerPanic { proc: 0 })));
    let mut obs = shared.obs.lock().unwrap();
    for sp in &spans.stages {
        obs.stats.observe(sp.stage, sp.dur_nanos);
    }
    match &res {
        Ok(_) => {
            obs.stats.ok += 1;
            obs.stats.tenant_mut(&job.spec.client).ok += 1;
        }
        Err(ServeError::Deadline { .. }) => {
            obs.stats.deadline += 1;
            obs.stats.tenant_mut(&job.spec.client).deadline += 1;
        }
        Err(_) => {}
    }
    if let Some(session) = obs.session.as_mut() {
        session.push(spans);
    }
    res
}

/// Times a job's stages so that they tile it: one timestamp per boundary,
/// each stage starting at the instant the previous one ended, so nothing
/// the scheduler thread does for a job falls between two spans.
struct StageClock {
    epoch: Instant,
    /// Where the stage now running began, on the session epoch.
    at: u64,
}

impl StageClock {
    /// Records the next `dur` nanoseconds as `stage` (0 for a stage the
    /// job skipped).
    fn advance(&mut self, spans: &mut JobSpans, stage: JobStage, dur: u64) {
        spans.stage(stage, self.at, dur);
        self.at += dur;
    }

    /// Records everything from the last boundary to now as `stage` and
    /// returns its duration; the next stage starts at the same instant.
    fn close(&mut self, spans: &mut JobSpans, stage: JobStage) -> u64 {
        let dur = since_epoch(self.epoch).saturating_sub(self.at);
        self.advance(spans, stage, dur);
        dur
    }
}

/// The staged body of [`run_job`]: each pipeline stage is timed on the
/// session epoch and appended to `spans` as it completes, so even an
/// early deadline return carries the stages the job did reach.
fn run_job_stages(
    shared: &Shared,
    exec: &mut dyn Executor,
    job: &QueuedJob,
    spans: &mut JobSpans,
) -> Result<JobResult, ServeError> {
    let spec = &job.spec;
    let deadline_err = || ServeError::Deadline {
        job: job.id,
        budget: spec.deadline.unwrap_or_default(),
    };
    let mut clock = StageClock {
        epoch: shared.epoch,
        at: job
            .enqueued
            .saturating_duration_since(shared.epoch)
            .as_nanos() as u64,
    };
    // Pre-check: a job that aged out while queued never starts.
    let expired = spec.deadline.is_some_and(|d| job.enqueued.elapsed() > d);
    let queued_nanos = clock.close(spans, JobStage::QueueWait);
    if expired {
        return Err(deadline_err());
    }
    let started = clock.at;

    // The artifact key hashes the text the program holds, and the
    // analysis tier is keyed by the digest made with it; nothing on a
    // job's path renders the program.
    let key = spec.cache_key();
    let akey = spec.seq.digest();
    let hit = shared
        .cache
        .lock()
        .unwrap()
        .lookup(key, &spec.seq, spec.plan.grid());
    clock.close(spans, JobStage::CacheLookup);

    // Analysis and plan. A hit carries both. A miss plans from the
    // analysis tier's entry when it has one, so a dependence analysis
    // computed under a different block size, grid, or backend is reused
    // rather than redone.
    //
    // A hit records its skipped stages as zero-duration spans so every
    // job exports all eight stages and the histograms keep a truthful
    // per-stage sample count.
    let (outcome, deps, plan, cached_tape) = match hit {
        Some(art) => {
            clock.advance(spans, JobStage::Analysis, 0);
            clock.advance(spans, JobStage::Plan, 0);
            (CacheOutcome::Memory, art.deps, art.plan, art.tape)
        }
        None => {
            let tier_hit = shared.cache.lock().unwrap().lookup_analysis(akey);
            let planned = Planner::new(spec.plan_config())
                .plan_with(&spec.seq, tier_hit, &mut NullObserver)
                .map_err(|e| ServeError::Exec(ExecError::Legality(e)))?;
            // The planner's own dependence timing splits the plan_with
            // wall time into analysis vs planning; a tier hit records 0
            // and the rest attributes to plan.
            let analysis = planned
                .timings
                .timing_of(pass::DEPENDENCE)
                .map_or(0, |p| p.nanos);
            clock.advance(spans, JobStage::Analysis, analysis);
            record_pass_timings(shared, &planned.timings);
            clock.close(spans, JobStage::Plan);
            (CacheOutcome::Miss, planned.deps, planned.plan, None)
        }
    };
    // Keep the analysis tier warm for future full-key misses on this
    // sequence.
    shared
        .cache
        .lock()
        .unwrap()
        .insert_analysis(akey, Arc::clone(&deps));

    // Lower: everything between the plan and a runnable configuration —
    // program construction, memory init, and (tape backends) lowering.
    let prog = Program::from_analysis(&spec.seq, Arc::clone(&deps), spec.levels)?;

    let mut mem = Memory::seeded(&spec.seq, LayoutStrategy::Contiguous, spec.seed);

    let mut cfg = RunConfig::from_plan(spec.plan.clone())
        .steps(spec.steps)
        .backend(spec.backend)
        .schedule(spec.schedule);
    if !matches!(spec.plan, ExecPlan::Serial) {
        cfg = cfg.prederived(Arc::clone(&plan));
    }
    if shared.tracing {
        cfg = cfg.traced();
    }
    // Tape backends (compiled, simd): a cached tape skips lowering
    // entirely (`precompiled` → report says cached, lower_nanos 0);
    // otherwise lower here so the tape can be inserted alongside the
    // plan.
    let mut lowered = None;
    if spec.backend != Backend::Interp {
        match cached_tape {
            Some(t) => cfg = cfg.precompiled(t),
            None => {
                let tape = Arc::new(ProgramTape::lower(&spec.seq, &mem.layout));
                lowered = Some(Arc::clone(&tape));
                cfg = cfg.with_tape(tape);
            }
        }
    }
    clock.close(spans, JobStage::Lower);

    spans.exec_offset_nanos = clock.at;
    let mut report = exec.run(&prog, &mut mem, &cfg)?;
    let exec_nanos = clock.close(spans, JobStage::Execute);
    if shared.tracing {
        // The session trace owns the run's worker lanes; the per-job
        // report keeps everything else.
        spans.run_trace = report.trace.take();
    }
    report.queue_wait_nanos = queued_nanos;
    report.exec_nanos = exec_nanos;
    let run_nanos = clock.at - started;

    // Post-check: the run always completes (the pool is never poisoned
    // by a timeout), but an overrun job's result is discarded.
    if spec.deadline.is_some_and(|d| job.enqueued.elapsed() > d) {
        return Err(deadline_err());
    }

    // Respond: cache population, digest, snapshot.
    if outcome == CacheOutcome::Miss {
        shared.cache.lock().unwrap().insert(Artifact {
            key,
            plan,
            deps,
            tape: lowered,
        });
    }

    // The digest reads the live memory; only a reply that carries the
    // arrays pays for a copy of them.
    let digest = memory_digest(&mem, &spec.seq);
    let output = spec.keep_output.then(|| mem.snapshot_all(&spec.seq));
    clock.close(spans, JobStage::Respond);
    Ok(JobResult {
        id: job.id,
        name: spec.name.clone(),
        client: spec.client.clone(),
        key,
        report,
        cache: outcome,
        digest,
        output,
        queued_nanos,
        run_nanos,
        order: 0,
    })
}

pub use sp_exec::digest::snapshot_digest;

/// [`snapshot_digest`] of `mem.snapshot_all(seq)` without the snapshot:
/// the same words in the same logical row-major order, hashed row by row
/// out of the live memory ([`Memory::digest`]), so the respond stage —
/// which sets the service's peak heap — holds no copy of a job's output
/// beside the memory itself.
pub fn memory_digest(mem: &Memory, seq: &LoopSequence) -> u64 {
    mem.digest(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_kernels::jacobi;

    /// Every variant, once: the codes are 1..=7, and the transient ones
    /// are the two load conditions, by code and by value alike.
    #[test]
    fn transience_is_keyed_by_code() {
        let all = [
            ServeError::QueueFull { capacity: 1 },
            ServeError::Deadline {
                job: JobId(1),
                budget: Duration::from_millis(1),
            },
            ServeError::ShuttingDown,
            ServeError::UnknownJob(JobId(1)),
            ServeError::Exec(ExecError::WorkerPanic { proc: 1 }),
            ServeError::Manifest("x".into()),
            ServeError::QuotaExceeded {
                tenant: "t".into(),
                in_flight: 1,
                limit: 1,
            },
        ];
        let codes: Vec<u16> = all.iter().map(ServeError::code).collect();
        assert_eq!(codes, (1..=7).collect::<Vec<u16>>());
        for e in &all {
            // Exhaustive, so a new variant has to be placed here.
            let load = match e {
                ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. } => true,
                ServeError::Deadline { .. }
                | ServeError::ShuttingDown
                | ServeError::UnknownJob(_)
                | ServeError::Exec(_)
                | ServeError::Manifest(_) => false,
            };
            assert_eq!(ServeError::is_transient_code(e.code()), e.is_transient());
            assert_eq!(e.is_transient(), load, "{e}");
        }
        assert!(!ServeError::is_transient_code(0));
        assert!(!ServeError::is_transient_code(100));
        assert!(!ServeError::is_transient_code(101));
    }

    /// The real pool, except that a run of exactly `PANIC_STEPS` timesteps
    /// panics on the thread that called it — an interpreter bug, as far as
    /// the service can tell.
    struct Faulty(PooledExecutor);
    const PANIC_STEPS: usize = 13;

    impl Executor for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn run(
            &mut self,
            prog: &Program<'_>,
            mem: &mut Memory,
            cfg: &RunConfig,
        ) -> Result<RunReport, ExecError> {
            if cfg.step_count() == PANIC_STEPS {
                panic!("injected fault");
            }
            self.0.run(prog, mem, cfg)
        }
    }

    /// The real pool, except that every run first waits for a word on
    /// the gate — a job stays running for as long as a test needs.
    struct Gated(PooledExecutor, mpsc::Receiver<()>);

    impl Executor for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }

        fn run(
            &mut self,
            prog: &Program<'_>,
            mem: &mut Memory,
            cfg: &RunConfig,
        ) -> Result<RunReport, ExecError> {
            let _ = self.1.recv();
            self.0.run(prog, mem, cfg)
        }
    }

    fn watch(service: &Service, id: JobId) -> mpsc::Receiver<Completion> {
        let (tx, rx) = mpsc::channel();
        service.on_done(id, tx);
        rx
    }

    /// `on_done` answers once, from whichever thread settles the job: the
    /// scheduler for a pending job, the caller for a retained result or
    /// an unknown id, `Drop` for a job it fails.
    #[test]
    fn on_done_answers_each_watcher_exactly_once() {
        let (open, gate) = mpsc::channel();
        let service = Service::start(
            ServiceConfig::default().workers(1),
            Gated(PooledExecutor::new(1), gate),
        );
        let spec = JobSpec::new("j", jacobi::sequence(16), ExecPlan::Serial);
        let once = |rx: &mpsc::Receiver<Completion>| {
            let got = rx.recv().expect("answered");
            assert!(rx.recv().is_err(), "answered once, then the sender is gone");
            got
        };

        // Pending: nothing until the scheduler delivers.
        let a = service.submit(spec.clone()).unwrap();
        let rx = watch(&service, a);
        assert_eq!(rx.try_recv().unwrap_err(), mpsc::TryRecvError::Empty);
        open.send(()).unwrap();
        let (id, res) = once(&rx);
        let digest = res.unwrap().digest;
        assert_eq!(id, a);

        // Retained: sent before `on_done` returns.
        let rx = watch(&service, a);
        let (id, res) = rx.try_recv().expect("sent on the caller's thread");
        assert_eq!((id, res.unwrap().digest), (a, digest));

        // Never submitted, and expired: `UnknownJob` at once.
        let never = JobId(1 << 40);
        let rx = watch(&service, never);
        assert_eq!(
            rx.try_recv().unwrap().1.unwrap_err(),
            ServeError::UnknownJob(never)
        );
        {
            let mut st = service.shared.state.lock().unwrap();
            for i in 1..=RESULT_RETENTION as u64 {
                st.deliver(JobId(never.0 + i), Err(ServeError::ShuttingDown));
            }
        }
        let rx = watch(&service, a);
        assert_eq!(
            rx.try_recv().unwrap().1.unwrap_err(),
            ServeError::UnknownJob(a)
        );

        // Dropped: the pending job fails at once, the running one finishes.
        let running = service.submit(spec.clone()).unwrap();
        while service.queue_depth() > 0 {
            thread::yield_now();
        }
        let pending = service.submit(spec).unwrap();
        let (rx_running, rx_pending) = (watch(&service, running), watch(&service, pending));
        let dropper = thread::spawn(move || drop(service));
        let (id, res) = once(&rx_pending);
        assert_eq!((id, res.unwrap_err()), (pending, ServeError::ShuttingDown));
        open.send(()).unwrap();
        dropper.join().unwrap();
        let (id, res) = once(&rx_running);
        assert_eq!((id, res.unwrap().digest), (running, digest));
    }

    /// ROADMAP item 6: a panicking job yields a typed error while pool and
    /// service keep serving.
    #[test]
    fn a_panicking_job_is_a_typed_error_and_the_next_job_is_served() {
        let service = Service::start(
            ServiceConfig::default().workers(2),
            Faulty(PooledExecutor::new(2)),
        );
        let plan = RunConfig::fused([2]).plan().clone();
        let spec = JobSpec::new("j", jacobi::sequence(32), plan);
        let run = |steps| service.wait(service.submit(spec.clone().steps(steps)).unwrap());
        let want = run(2).unwrap().digest;
        assert_eq!(
            run(PANIC_STEPS).unwrap_err(),
            ServeError::Exec(ExecError::WorkerPanic { proc: 0 })
        );
        let again = run(2).unwrap();
        assert_eq!(again.digest, want, "the same pool serves the next job");
        assert_eq!(again.cache, CacheOutcome::Memory);
        let reg = service.metrics();
        assert_eq!(reg.counter_value("spfc_serve_jobs_failed_total"), Some(1));
        assert_eq!(
            reg.counter_value("spfc_serve_jobs_completed_total"),
            Some(2)
        );
    }

    /// Per-tenant state is bounded by a constant, not by how many names
    /// clients sent: a thousand jobs under distinct names leave no
    /// fair-share entries behind, at most `TENANT_ROWS` named stats rows
    /// plus the overflow row, two `/metrics` series a row, and a stats
    /// file in which the empty tenant name survives the round trip.
    #[test]
    fn tenant_state_is_bounded_by_a_constant() {
        use crate::obs::{disk_stats, OTHER_TENANTS, TENANT_ROWS};
        const JOBS: usize = 1000;
        let dir = std::env::temp_dir().join(format!("sp-serve-tenants-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let service = Service::new(
            ServiceConfig::default()
                .workers(1)
                .cache(ArtifactCacheConfig::memory(4).disk(&dir)),
        );
        let seq = SharedProgram::from(jacobi::sequence(6));
        let names = std::iter::once(String::new()).chain((1..JOBS).map(|i| format!("t {i}")));
        for name in names {
            let spec = JobSpec::new("tiny", seq.clone(), ExecPlan::Serial).client(name);
            service.wait(service.submit(spec).unwrap()).unwrap();
        }
        assert!(service.shared.state.lock().unwrap().served.is_empty());
        let rows = service.stage_stats().tenants;
        assert_eq!(rows.len(), TENANT_ROWS + 1);
        assert_eq!(rows.iter().map(|t| t.ok).sum::<u64>(), JOBS as u64);
        let other = rows.iter().find(|t| t.name == OTHER_TENANTS).unwrap();
        assert_eq!(other.ok, (JOBS - TENANT_ROWS) as u64);
        let text = service.metrics().to_prometheus();
        let series = text
            .lines()
            .filter(|l| l.starts_with("spfc_serve_tenant_"))
            .count();
        assert_eq!(series, 2 * (TENANT_ROWS + 1), "{text}");
        drop(service);
        let disk = disk_stats(&dir).stages;
        assert_eq!(disk.tenants, rows, "every row, the empty name included");
        assert_eq!(disk.tenant("").map(|t| t.ok), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

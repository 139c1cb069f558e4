//! Serve-session tracing: one Chrome trace for a whole batch of jobs.
//!
//! A single run's [`RunTrace`](crate::RunTrace) shows worker lanes for
//! that run only, on the run's own epoch. The serve tier executes many
//! jobs back to back on one pool, and the question its observability
//! must answer spans jobs: where did *this job's* latency go — queue
//! wait, cache lookup, analysis, planning, lowering, or execution — and
//! which workers ran it when it finally dispatched?
//!
//! [`SessionTrace`] answers both in one artifact. Every job contributes
//! a lane of [`JobStage`] spans (its lifecycle from enqueue to respond,
//! timestamped on the *session* epoch), each traced run contributes its
//! per-worker lanes (shifted from the run epoch onto the session epoch
//! by the recorded execute offset), and a Chrome *flow event* arrows
//! each job's execute span into the worker lanes that ran it — so
//! `chrome://tracing` renders the whole session as two processes
//! ("jobs" above, "workers" below) connected job by job.

use crate::json::escape;
use crate::tracer::{LowerNote, RunTrace, SpanKind, WorkerTrace, CONTROLLER_LANE, NO_INDEX};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A serve-tier job's lifecycle stage, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobStage {
    /// Reading and decoding the submission frame off the socket
    /// (zero-width for in-process submissions).
    Decode,
    /// Admission into the bounded queue (the submit call itself).
    Enqueue,
    /// Waiting in the queue for the scheduler to pick the job.
    QueueWait,
    /// Artifact-cache lookup.
    CacheLookup,
    /// Dependence analysis (0 when served from a cache tier).
    Analysis,
    /// Fusion-plan derivation (0 on a full cache hit).
    Plan,
    /// Lowering to row programs (0 for cached tapes and interp runs).
    Lower,
    /// The executor run on the worker pool.
    Execute,
    /// Post-run bookkeeping: cache insert, snapshot, digest.
    Respond,
    /// Encoding and writing the result frame back onto the socket
    /// (recorded only for jobs submitted over the wire).
    RespondWire,
}

impl JobStage {
    /// Number of stages (the length of [`JobStage::all`]).
    pub const COUNT: usize = 10;

    /// Every stage, in pipeline order.
    pub fn all() -> [JobStage; Self::COUNT] {
        [
            JobStage::Decode,
            JobStage::Enqueue,
            JobStage::QueueWait,
            JobStage::CacheLookup,
            JobStage::Analysis,
            JobStage::Plan,
            JobStage::Lower,
            JobStage::Execute,
            JobStage::Respond,
            JobStage::RespondWire,
        ]
    }

    /// Stable stage name used in span names, metric labels
    /// (`spfc_serve_stage_nanos{stage=...}`), and the stats file.
    pub fn name(&self) -> &'static str {
        match self {
            JobStage::Decode => "decode",
            JobStage::Enqueue => "enqueue",
            JobStage::QueueWait => "queue_wait",
            JobStage::CacheLookup => "cache_lookup",
            JobStage::Analysis => "analysis",
            JobStage::Plan => "plan",
            JobStage::Lower => "lower",
            JobStage::Execute => "execute",
            JobStage::Respond => "respond",
            JobStage::RespondWire => "respond_wire",
        }
    }

    /// Position in [`JobStage::all`] (for indexing histogram arrays).
    pub fn index(&self) -> usize {
        Self::all().iter().position(|s| s == self).unwrap_or(0)
    }

    /// The stage named `name`, if any (inverse of [`JobStage::name`]).
    pub fn from_name(name: &str) -> Option<JobStage> {
        Self::all().into_iter().find(|s| s.name() == name)
    }
}

/// One timed stage of one job, offsets from the session epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage this span measured.
    pub stage: JobStage,
    /// Start offset from the session epoch.
    pub start_nanos: u64,
    /// Span duration (0 is legal: a stage can be skipped-but-recorded).
    pub dur_nanos: u64,
}

/// Everything recorded about one job's trip through the service.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobSpans {
    /// The service-assigned job id (also the Chrome flow-event id).
    pub job_id: u64,
    /// Display name (kernel or manifest job name).
    pub name: String,
    /// Fair-share client bucket.
    pub client: String,
    /// Stage spans in recording order, on the session epoch.
    pub stages: Vec<StageSpan>,
    /// Offset of the traced run's epoch from the session epoch — worker
    /// lane timestamps shift by this much when merged into the session.
    pub exec_offset_nanos: u64,
    /// The run's per-worker trace, when the run was traced.
    pub run_trace: Option<RunTrace>,
}

impl JobSpans {
    /// An empty span set for job `job_id`.
    pub fn new(job_id: u64, name: impl Into<String>, client: impl Into<String>) -> JobSpans {
        JobSpans {
            job_id,
            name: name.into(),
            client: client.into(),
            ..JobSpans::default()
        }
    }

    /// Appends one stage span.
    pub fn stage(&mut self, stage: JobStage, start_nanos: u64, dur_nanos: u64) {
        self.stages.push(StageSpan {
            stage,
            start_nanos,
            dur_nanos,
        });
    }

    /// Duration of `stage`, if recorded.
    pub fn stage_dur(&self, stage: JobStage) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.dur_nanos)
    }
}

/// All jobs of one serve session, exportable as a single Chrome trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionTrace {
    /// Per-job spans in completion order.
    pub jobs: Vec<JobSpans>,
}

impl SessionTrace {
    /// An empty session.
    pub fn new() -> SessionTrace {
        SessionTrace::default()
    }

    /// Appends one finished job.
    pub fn push(&mut self, job: JobSpans) {
        self.jobs.push(job);
    }

    /// Jobs recorded so far.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job has been recorded.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Events lost to ring overflow across every job's run trace.
    pub fn dropped(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.run_trace.as_ref())
            .map(|t| t.dropped())
            .sum()
    }

    /// Worker lanes (processor ids, controller excluded) that appear in
    /// at least one job's run trace, sorted.
    pub fn worker_lanes(&self) -> Vec<usize> {
        let runs = self.runs();
        let mut procs = busy_lanes(&runs);
        procs.retain(|&p| p != CONTROLLER_LANE);
        procs
    }

    /// Every traced run, with the job it ran for.
    fn runs(&self) -> Vec<(&RunTrace, Option<&JobSpans>)> {
        self.jobs
            .iter()
            .filter_map(|j| Some((j.run_trace.as_ref()?, Some(j))))
            .collect()
    }

    /// The whole session as Chrome trace-event JSON: process 1 carries
    /// one lane per job (stage spans), process 0 carries the merged
    /// worker lanes (every traced run shifted onto the session epoch),
    /// and a flow event per traced job (`ph:"s"` at the job's execute
    /// span, `ph:"f"` at each worker lane's first span of that run)
    /// draws the job → worker linkage. Passes
    /// [`validate_chrome_trace`](crate::validate_chrome_trace).
    pub fn chrome_json(&self) -> String {
        chrome_json(&self.jobs, &self.runs())
    }
}

const WORKERS_PID: u32 = 0;
const JOBS_PID: u32 = 1;

/// The one Chrome trace-event writer, behind both
/// [`SessionTrace::chrome_json`] and [`RunTrace::chrome_json`] (a
/// session of one run, with no job lanes). `jobs` become stage lanes of
/// process 1; each of `runs` adds its worker lanes to process 0, shifted
/// by its job's execute offset and linked to that job by a flow arrow
/// when it has one. `otherData` carries the loss accounting: rings drop
/// their oldest events on overflow, so a viewer must know when a lane's
/// left edge is truncated; per-lane counts appear only when something
/// was lost.
pub(crate) fn chrome_json(jobs: &[JobSpans], runs: &[(&RunTrace, Option<&JobSpans>)]) -> String {
    let lanes = busy_lanes(runs);
    let mut dropped = BTreeMap::new();
    for w in runs.iter().flat_map(|(t, _)| &t.workers) {
        if w.dropped > 0 {
            *dropped.entry(w.proc).or_insert(0) += w.dropped;
        }
    }
    let events: usize = runs.iter().map(|(t, _)| t.event_count()).sum();
    let mut s = String::with_capacity(256 + 256 * jobs.len() + 160 * events);
    let _ = write!(
        s,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"jobs\":{},\"droppedEvents\":{}",
        jobs.len(),
        dropped.values().sum::<u64>()
    );
    if !dropped.is_empty() {
        let by_lane: Vec<String> = dropped
            .iter()
            .map(|(&proc, n)| format!("\"{}\":{n}", lane_name(proc)))
            .collect();
        let _ = write!(s, ",\"droppedByLane\":{{{}}}", by_lane.join(","));
    }
    s.push_str("},\"traceEvents\":[");
    // Lanes carry processor ids; the controller's is numbered after the
    // highest worker's.
    let controller_tid = lanes
        .iter()
        .filter(|&&p| p != CONTROLLER_LANE)
        .max()
        .map_or(0, |m| m + 1);
    let tid = |proc: usize| {
        if proc == CONTROLLER_LANE {
            controller_tid
        } else {
            proc
        }
    };
    write_names(
        &mut s,
        WORKERS_PID,
        "workers",
        lanes.iter().map(|&p| (tid(p) as u64, lane_name(p))),
    );
    if !jobs.is_empty() {
        write_names(
            &mut s,
            JOBS_PID,
            "jobs",
            jobs.iter()
                .map(|j| (j.job_id, format!("job {} {}", j.job_id, escape(&j.name)))),
        );
    }
    // Job lanes: one X span per stage, on the session epoch.
    for job in jobs {
        for sp in &job.stages {
            let _ = write!(
                s,
                ",{{\"name\":\"{}\",\"cat\":\"spfc-serve\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{JOBS_PID},\"tid\":{},\"args\":{{\"job\":{},\"client\":\"{}\"}}}}",
                sp.stage.name(),
                micros(sp.start_nanos),
                micros(sp.dur_nanos),
                job.job_id,
                job.job_id,
                escape(&job.client)
            );
        }
    }
    // Worker lanes, run by run, each arrowed from its job's execute span.
    for &(trace, job) in runs {
        if let Some(job) = job {
            let exec_start = job
                .stages
                .iter()
                .find(|sp| sp.stage == JobStage::Execute)
                .map_or(job.exec_offset_nanos, |sp| sp.start_nanos);
            let _ = write!(
                s,
                ",{{\"name\":\"job\",\"cat\":\"spfc-job\",\"ph\":\"s\",\"id\":{},\"ts\":{},\
                 \"pid\":{JOBS_PID},\"tid\":{}}}",
                job.job_id,
                micros(exec_start),
                job.job_id
            );
        }
        for w in trace.workers.iter().filter(|w| !w.events.is_empty()) {
            write_lane(&mut s, w, tid(w.proc), trace.lower, job);
        }
    }
    s.push_str("]}");
    s
}

/// Processor ids (the controller's included, last) whose lane recorded a
/// span in any of `runs`, sorted.
fn busy_lanes(runs: &[(&RunTrace, Option<&JobSpans>)]) -> Vec<usize> {
    let mut lanes: Vec<usize> = runs
        .iter()
        .flat_map(|(t, _)| &t.workers)
        .filter(|w| !w.events.is_empty())
        .map(|w| w.proc)
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    lanes
}

fn lane_name(proc: usize) -> String {
    if proc == CONTROLLER_LANE {
        "controller".into()
    } else {
        format!("worker {proc}")
    }
}

/// Metadata events naming process `pid` and each of its `(tid, name)`
/// lanes. Like every event, they are comma-led unless one opens the
/// `traceEvents` array.
fn write_names(
    s: &mut String,
    pid: u32,
    process: &str,
    threads: impl Iterator<Item = (u64, String)>,
) {
    if !s.ends_with('[') {
        s.push(',');
    }
    let _ = write!(
        s,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (tid, name) in threads {
        let _ = write!(
            s,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
}

/// One worker lane of one run as `tid` of the workers process: the
/// job's flow finish at the lane's first span, then every span with its
/// full args — `job`, `step`, `group`, `lanes`, and what lowering
/// produced on `lower` spans.
fn write_lane(
    s: &mut String,
    w: &WorkerTrace,
    tid: usize,
    lower: Option<LowerNote>,
    job: Option<&JobSpans>,
) {
    let offset = job.map_or(0, |j| j.exec_offset_nanos);
    if let Some(job) = job {
        let first = w.events.iter().map(|e| e.start_nanos).min().unwrap_or(0);
        let _ = write!(
            s,
            ",{{\"name\":\"job\",\"cat\":\"spfc-job\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\
             \"pid\":{WORKERS_PID},\"tid\":{tid}}}",
            job.job_id,
            micros(first.saturating_add(offset))
        );
    }
    for e in &w.events {
        let _ = write!(
            s,
            ",{{\"name\":\"{}\",\"cat\":\"spfc\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{WORKERS_PID},\"tid\":{tid},\"args\":{{",
            e.kind.name(),
            micros(e.start_nanos.saturating_add(offset)),
            micros(e.dur_nanos)
        );
        if let Some(job) = job {
            let _ = write!(s, "\"job\":{},", job.job_id);
        }
        for (key, v) in [("step", e.step), ("group", e.group), ("lanes", e.lanes)] {
            if v != NO_INDEX {
                let _ = write!(s, "\"{key}\":{v},");
            }
        }
        if let (SpanKind::Lower, Some(n)) = (e.kind, lower) {
            let _ = write!(
                s,
                "\"chains\":{},\"direct_stores\":{},\"isa\":\"{}\",",
                n.chains, n.direct_stores, n.isa
            );
        }
        if s.ends_with(',') {
            s.pop();
        }
        s.push_str("}}");
    }
}

/// Microseconds with nanosecond precision, as Chrome's `ts` and `dur`
/// want.
fn micros(nanos: u64) -> impl fmt::Display {
    fmt::from_fn(move |f| write!(f, "{}.{:03}", nanos / 1_000, nanos % 1_000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{validate_chrome_trace, SpanKind, TraceConfig, WorkerTracer, NO_INDEX};
    use std::time::Instant;

    fn traced_job(id: u64, exec_offset: u64) -> JobSpans {
        let mut job = JobSpans::new(id, format!("job-{id}"), "alice");
        let mut t = 0;
        for stage in JobStage::all() {
            job.stage(stage, t, 100);
            t += 100;
        }
        let epoch = Instant::now();
        let mut lanes = Vec::new();
        for proc in 0..2usize {
            let mut tr = WorkerTracer::new(TraceConfig::with_capacity(16), epoch);
            tr.record(SpanKind::Dispatch, epoch, 400, NO_INDEX, NO_INDEX);
            tr.record(SpanKind::Fused, epoch, 300, 0, 0);
            lanes.push(tr.finish(proc));
        }
        job.exec_offset_nanos = exec_offset;
        job.run_trace = Some(RunTrace::assemble(lanes));
        job
    }

    #[test]
    fn stage_names_round_trip() {
        for (i, stage) in JobStage::all().into_iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(JobStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(JobStage::from_name("nope"), None);
    }

    #[test]
    fn session_chrome_json_passes_the_schema_check() {
        let mut session = SessionTrace::new();
        session.push(traced_job(0, 600));
        session.push(traced_job(1, 1600));
        let json = session.chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        // 8 stages per job plus 2 worker spans per lane per job.
        assert_eq!(summary.span_count, 2 * JobStage::COUNT + 2 * 2 * 2);
        for stage in JobStage::all() {
            assert!(summary.has(stage.name()), "missing {}", stage.name());
        }
        assert!(summary.has("fused"));
        // One flow start per job, one finish per worker lane per job.
        assert_eq!(summary.flow_starts.len(), 2);
        assert_eq!(summary.flow_finishes.len(), 4);
        for (id, pid, _) in &summary.flow_starts {
            assert_eq!(*pid, 1, "flow starts on the jobs process");
            assert!(summary
                .flow_finishes
                .iter()
                .any(|(fid, fpid, _)| fid == id && *fpid == 0));
        }
        assert_eq!(session.worker_lanes(), vec![0, 1]);
    }

    #[test]
    fn untraced_jobs_still_export_stage_lanes() {
        let mut session = SessionTrace::new();
        let mut job = JobSpans::new(7, "solo", "bob");
        job.stage(JobStage::QueueWait, 0, 50);
        job.stage(JobStage::Execute, 50, 500);
        session.push(job);
        let json = session.chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(summary.span_count, 2);
        assert!(summary.flow_starts.is_empty(), "no trace, no flow");
        assert_eq!(session.worker_lanes(), Vec::<usize>::new());
    }

    #[test]
    fn session_worker_spans_keep_their_args_and_losses() {
        let mut session = SessionTrace::new();
        session.push(traced_job(4, 0));
        let epoch = Instant::now();
        let mut t = WorkerTracer::new(TraceConfig::with_capacity(2), epoch);
        t.record_lanes_until_now(SpanKind::Lower, epoch, 8, NO_INDEX, NO_INDEX);
        for step in 0..3 {
            t.record(SpanKind::Fused, epoch, 10, step, 1);
        }
        let mut job = JobSpans::new(5, "lossy", "carol");
        let mut run = RunTrace::assemble(vec![t.finish(0)]);
        run.lower = Some(LowerNote {
            chains: 1,
            direct_stores: 0,
            isa: "baseline",
        });
        job.run_trace = Some(run);
        session.push(job);
        let json = session.chrome_json();
        assert!(
            json.contains("\"args\":{\"job\":4,\"step\":0,\"group\":0}"),
            "{json}"
        );
        assert!(
            json.contains("\"args\":{\"job\":5,\"step\":2,\"group\":1}"),
            "{json}"
        );
        assert!(
            json.contains("\"droppedEvents\":2,\"droppedByLane\":{\"worker 0\":2}"),
            "{json}"
        );
        // The lowering note was dropped with its span: no lower args remain.
        assert!(!json.contains("chains"), "{json}");
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(summary.steps, vec![0, 1, 2]);
        assert_eq!(summary.dropped_events, 2);
    }

    #[test]
    fn worker_events_shift_onto_the_session_epoch() {
        let mut session = SessionTrace::new();
        session.push(traced_job(3, 1_000_000));
        let json = session.chrome_json();
        // The fused span starts at 0 on the run epoch; shifted by 1 ms it
        // must render at ts 1000.000 (microseconds).
        assert!(json.contains("\"name\":\"fused\",\"cat\":\"spfc\",\"ph\":\"X\",\"ts\":1000.000"));
        validate_chrome_trace(&json).expect("valid chrome trace");
    }
}

//! The span API the executors record into, the run trace they collect,
//! and the schema check for exported traces.
//!
//! A run that asks for tracing hands each worker a [`WorkerTracer`]
//! (created at dispatch, before the phase loop) sharing one epoch
//! `Instant`. Workers record [`TraceEvent`] spans — dispatch, fused
//! phase, peeled phase, serial phase, barrier wait, tape lowering — into
//! their private ring, and the executor collects the rings into a
//! [`RunTrace`] when the run ends. [`RunTrace::chrome_json`] exports the
//! run as a session of one run through the crate's one Chrome trace-event
//! writer (one lane per worker plus a controller lane), loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! [`validate_chrome_trace`] is the checked-in schema check CI runs
//! against emitted JSON.

use crate::json::Json;
use crate::ring::EventRing;
use std::time::Instant;

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A worker's whole job: from observing the dispatched run to
    /// finishing its last phase.
    Dispatch,
    /// One fused-phase execution (strip-mined or direct) of one group.
    Fused,
    /// One peeled-phase execution of one group.
    Peeled,
    /// A serial (unfusable) nest executed on processor 0.
    Serial,
    /// Time spent waiting at a phase barrier.
    BarrierWait,
    /// Lowering loop bodies to row programs.
    Lower,
    /// A work-stealing victim search that ended in a successful claim
    /// (`group` holds the stolen chunk's index).
    Steal,
    /// A barrier wait that outlasted its spin and its yields and slept on
    /// the condvar (recorded alongside the enclosing `BarrierWait` span).
    Park,
}

impl SpanKind {
    /// Stable span name used in exporters (`dispatch`, `fused`,
    /// `peeled`, `serial`, `barrier_wait`, `lower`, `steal`, `park`).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Dispatch => "dispatch",
            SpanKind::Fused => "fused",
            SpanKind::Peeled => "peeled",
            SpanKind::Serial => "serial",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::Lower => "lower",
            SpanKind::Steal => "steal",
            SpanKind::Park => "park",
        }
    }
}

/// Marker for events whose step or group is not meaningful (e.g. a
/// dispatch span covers all steps).
pub const NO_INDEX: u32 = u32::MAX;

/// The lane id used for controller-thread events (tape lowering) in
/// place of a worker's processor id.
pub const CONTROLLER_LANE: usize = usize::MAX;

/// One recorded span. `Copy` and 32 bytes: rings of these are cheap to
/// preallocate and record into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Start offset from the run's trace epoch.
    pub start_nanos: u64,
    /// Span duration.
    pub dur_nanos: u64,
    /// Timestep index, or [`NO_INDEX`].
    pub step: u32,
    /// Plan group index (or nest index for dynamic runs), or
    /// [`NO_INDEX`].
    pub group: u32,
    /// Most consecutive iterations the work this span covered
    /// dispatches at once (`lower` spans record the backend's: 1 for
    /// the scalar backends, the widest nest's row width for the SIMD
    /// backend), or
    /// [`NO_INDEX`].
    pub lanes: u32,
}

/// Per-run tracing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity **per worker** in events. With two barriers per
    /// fused group per timestep, a phase records ≲ 4 events per group
    /// per step; the default of 65536 holds ~8000 steps of a two-group
    /// plan before dropping the oldest.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 65536 }
    }
}

impl TraceConfig {
    /// A config with an explicit per-worker ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { capacity }
    }
}

/// A worker's private recorder: one ring plus the shared epoch. Owned
/// exclusively by one worker for the duration of a run — recording takes
/// no locks and performs no allocation.
#[derive(Debug)]
pub struct WorkerTracer {
    ring: EventRing,
    epoch: Instant,
}

impl WorkerTracer {
    /// A tracer whose timestamps are offsets from `epoch` (the same
    /// `Instant` for every worker of a run).
    pub fn new(cfg: TraceConfig, epoch: Instant) -> Self {
        WorkerTracer {
            ring: EventRing::new(cfg.capacity),
            epoch,
        }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span that started at `started` and lasted `dur_nanos`.
    #[inline]
    pub fn record(
        &mut self,
        kind: SpanKind,
        started: Instant,
        dur_nanos: u64,
        step: u32,
        group: u32,
    ) {
        let start_nanos = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.ring.push(TraceEvent {
            kind,
            start_nanos,
            dur_nanos,
            step,
            group,
            lanes: NO_INDEX,
        });
    }

    /// Records a span that started at `started` and ends now.
    #[inline]
    pub fn record_until_now(&mut self, kind: SpanKind, started: Instant, step: u32, group: u32) {
        let dur = started.elapsed().as_nanos() as u64;
        self.record(kind, started, dur, step, group);
    }

    /// As [`record_until_now`](Self::record_until_now), additionally
    /// tagging the span with a vector lane width (exported as the
    /// `lanes` arg in Chrome traces).
    #[inline]
    pub fn record_lanes_until_now(
        &mut self,
        kind: SpanKind,
        started: Instant,
        lanes: u32,
        step: u32,
        group: u32,
    ) {
        let dur_nanos = started.elapsed().as_nanos() as u64;
        let start_nanos = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.ring.push(TraceEvent {
            kind,
            start_nanos,
            dur_nanos,
            step,
            group,
            lanes,
        });
    }

    /// Consumes the tracer into the worker's finished trace.
    pub fn finish(self, proc: usize) -> WorkerTrace {
        let dropped = self.ring.dropped();
        WorkerTrace {
            proc,
            events: self.ring.into_events(),
            dropped,
        }
    }
}

/// One worker's finished event list (oldest first).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Processor id, or [`CONTROLLER_LANE`] for the orchestrating
    /// thread.
    pub proc: usize,
    /// Spans in recording order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (oldest-first).
    pub dropped: u64,
}

/// What a run's lowering produced, exported as the args of its `lower`
/// span, so a trace from another host says which row loops ran and how
/// many passes lowering saved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LowerNote {
    /// Two-operator chains among the tape's row ops.
    pub chains: u64,
    /// Statements whose last op stores its row itself.
    pub direct_stores: u64,
    /// Row-loop ISA of the host (`avx2` / `baseline`).
    pub isa: &'static str,
}

/// Everything recorded about one run, collected from the workers' rings
/// after the run completes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Per-worker traces, sorted by processor id, controller lane last.
    pub workers: Vec<WorkerTrace>,
    /// What the run's `lower` span produced; `None` when nothing was
    /// lowered during the run.
    pub lower: Option<LowerNote>,
}

impl RunTrace {
    /// Assembles a run trace from one lane per worker, sorting the lanes
    /// by processor id (controller last).
    pub fn assemble(mut workers: Vec<WorkerTrace>) -> RunTrace {
        workers.sort_by_key(|w| w.proc);
        RunTrace {
            workers,
            lower: None,
        }
    }

    /// Total events across lanes.
    pub fn event_count(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Total events lost to ring overflow across lanes.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// The end of the latest span, as an offset from the epoch.
    pub fn span_nanos(&self) -> u64 {
        self.workers
            .iter()
            .flat_map(|w| &w.events)
            .map(|e| e.start_nanos + e.dur_nanos)
            .max()
            .unwrap_or(0)
    }

    /// Events of one kind across all lanes.
    pub fn events_of(&self, kind: SpanKind) -> impl Iterator<Item = &TraceEvent> {
        self.workers
            .iter()
            .flat_map(|w| &w.events)
            .filter(move |e| e.kind == kind)
    }

    /// The Chrome trace-event JSON (the `{"traceEvents": [...]}` form),
    /// loadable in `chrome://tracing` and Perfetto: this run exported as
    /// a session of one run, with no job lanes and no flow events (see
    /// [`SessionTrace::chrome_json`](crate::SessionTrace::chrome_json)).
    /// Each worker gets a `tid` lane named after it; the controller lane
    /// is numbered after the workers.
    pub fn chrome_json(&self) -> String {
        crate::session::chrome_json(&[], &[(self, None)])
    }
}

/// What [`validate_chrome_trace`] found in a trace file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Complete (`"ph":"X"`) events seen.
    pub span_count: usize,
    /// Distinct span names, sorted.
    pub names: Vec<String>,
    /// Distinct lanes (`tid`s) carrying at least one span, sorted.
    pub lanes: Vec<u64>,
    /// Distinct `args.step` values across spans, sorted.
    pub steps: Vec<u64>,
    /// Events the producer reported as lost to ring overflow
    /// (`otherData.droppedEvents`); 0 when the file carries no such
    /// metadata.
    pub dropped_events: u64,
    /// Flow-start (`"ph":"s"`) events as `(id, pid, tid)` — serve
    /// sessions anchor one per traced job on the job's lane.
    pub flow_starts: Vec<(u64, u64, u64)>,
    /// Flow-finish (`"ph":"f"`) events as `(id, pid, tid)` — one per
    /// worker lane a traced job executed on.
    pub flow_finishes: Vec<(u64, u64, u64)>,
}

impl TraceSummary {
    /// True when a span with `name` appears.
    pub fn has(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Validates that `json` is a well-formed Chrome trace-event file of the
/// shape [`RunTrace::chrome_json`] emits: a top-level object with a
/// `traceEvents` array whose entries carry `name`/`ph`/`pid`/`tid`, with
/// complete (`X`) events additionally carrying numeric `ts` and `dur`.
/// Returns a [`TraceSummary`] of the spans found.
///
/// This is the schema check CI runs against the `--trace-out` artifact;
/// it deliberately re-parses the JSON from scratch instead of trusting
/// the producer.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let top = Json::parse(json).ok_or("not a well-formed JSON document")?;
    if !matches!(top, Json::Obj(_)) {
        return Err("top level is not an object".into());
    }
    let Some(Json::Arr(events)) = top.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut summary = TraceSummary::default();
    if let Some(Json::Num(n)) = top.get("otherData").and_then(|o| o.get("droppedEvents")) {
        if !n.is_finite() || *n < 0.0 {
            return Err(format!("otherData.droppedEvents is not a counter: {n}"));
        }
        summary.dropped_events = *n as u64;
    }
    let mut names = std::collections::BTreeSet::new();
    let mut lanes = std::collections::BTreeSet::new();
    let mut steps = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Json::Obj(_)) {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        let Some(Json::Str(name)) = ev.get("name") else {
            return Err(format!("traceEvents[{i}] has no string name"));
        };
        let Some(Json::Str(ph)) = ev.get("ph") else {
            return Err(format!("traceEvents[{i}] has no string ph"));
        };
        let (Some(Json::Num(pid)), Some(Json::Num(tid))) = (ev.get("pid"), ev.get("tid")) else {
            return Err(format!("traceEvents[{i}] has no numeric pid and tid"));
        };
        let timestamp = |key: &str| match ev.get(key) {
            Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => Ok(()),
            _ => Err(format!("traceEvents[{i}] ({name}) has no valid {key}")),
        };
        if ph == "s" || ph == "f" {
            // Flow events must carry a numeric id (it is what pairs a
            // start with its finishes) and a timestamp to anchor to.
            let Some(Json::Num(id)) = ev.get("id") else {
                return Err(format!("traceEvents[{i}] ({name}) flow has no numeric id"));
            };
            timestamp("ts")?;
            let entry = (*id as u64, *pid as u64, *tid as u64);
            if ph == "s" {
                summary.flow_starts.push(entry);
            } else {
                summary.flow_finishes.push(entry);
            }
        }
        if ph == "X" {
            timestamp("ts")?;
            timestamp("dur")?;
            summary.span_count += 1;
            names.insert(name.clone());
            lanes.insert(*tid as u64);
            if let Some(Json::Num(s)) = ev.get("args").and_then(|a| a.get("step")) {
                steps.insert(*s as u64);
            }
        }
    }
    summary.names = names.into_iter().collect();
    summary.lanes = lanes.into_iter().collect();
    summary.steps = steps.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_trace() -> RunTrace {
        let epoch = Instant::now();
        let mut lanes = Vec::new();
        for proc in 0..2usize {
            let mut t = WorkerTracer::new(TraceConfig::with_capacity(64), epoch);
            // Synthesize deterministic offsets by recording with the
            // epoch itself as the start (offset 0) plus explicit durs.
            t.record(SpanKind::Dispatch, epoch, 5_000, NO_INDEX, NO_INDEX);
            t.record(SpanKind::Fused, epoch, 1_500, 0, 0);
            t.record(
                SpanKind::BarrierWait,
                epoch + Duration::from_nanos(1_500),
                200,
                0,
                0,
            );
            t.record(
                SpanKind::Peeled,
                epoch + Duration::from_nanos(1_700),
                300,
                0,
                0,
            );
            lanes.push(t.finish(proc));
        }
        let mut ctl = WorkerTracer::new(TraceConfig::with_capacity(8), epoch);
        ctl.record(SpanKind::Lower, epoch, 900, NO_INDEX, NO_INDEX);
        lanes.push(ctl.finish(CONTROLLER_LANE));
        RunTrace::assemble(lanes)
    }

    #[test]
    fn chrome_json_passes_the_schema_check() {
        let trace = sample_trace();
        let json = trace.chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(summary.span_count, 9);
        for name in ["dispatch", "fused", "peeled", "barrier_wait", "lower"] {
            assert!(summary.has(name), "missing {name} in {:?}", summary.names);
        }
        // Two worker lanes plus the controller lane (tid 2).
        assert_eq!(summary.lanes, vec![0, 1, 2]);
        assert_eq!(summary.steps, vec![0]);
    }

    #[test]
    fn dropped_events_surface_in_chrome_metadata() {
        // No drops: the metadata is present but zero, with no per-lane map.
        let clean = sample_trace();
        let json = clean.chrome_json();
        assert!(json.contains("\"droppedEvents\":0"), "{json}");
        assert!(!json.contains("droppedByLane"), "{json}");
        assert_eq!(validate_chrome_trace(&json).unwrap().dropped_events, 0);
        // Overflow a capacity-4 ring with 20 spans: 16 oldest are lost.
        let epoch = Instant::now();
        let mut t = WorkerTracer::new(TraceConfig::with_capacity(4), epoch);
        for step in 0..20u32 {
            t.record(SpanKind::Fused, epoch, 100, step, 0);
        }
        let lane = t.finish(0);
        assert_eq!(lane.dropped, 16);
        assert_eq!(lane.events.len(), 4);
        let trace = RunTrace::assemble(vec![lane]);
        assert_eq!(trace.dropped(), 16);
        let json = trace.chrome_json();
        assert!(json.contains("\"droppedEvents\":16"), "{json}");
        assert!(
            json.contains("\"droppedByLane\":{\"worker 0\":16}"),
            "{json}"
        );
        let summary = validate_chrome_trace(&json).expect("valid trace with drops");
        assert_eq!(summary.dropped_events, 16);
        assert_eq!(summary.span_count, 4);
        // A negative count is rejected by the validator.
        assert!(
            validate_chrome_trace("{\"otherData\":{\"droppedEvents\":-1},\"traceEvents\":[]}")
                .is_err()
        );
    }

    #[test]
    fn assemble_sorts_lanes_by_processor() {
        let epoch = Instant::now();
        let mk = |proc: usize| {
            let mut t = WorkerTracer::new(TraceConfig::with_capacity(8), epoch);
            t.record(SpanKind::Fused, epoch, 10, 0, 0);
            t.finish(proc)
        };
        let trace = RunTrace::assemble(vec![mk(CONTROLLER_LANE), mk(1), mk(0)]);
        let procs: Vec<usize> = trace.workers.iter().map(|w| w.proc).collect();
        assert_eq!(procs, [0, 1, CONTROLLER_LANE]);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // A complete event missing ts is rejected.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"fused\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"dur\":1}]}"
        )
        .is_err());
        let trace = sample_trace();
        let json = trace.chrome_json();
        assert!(validate_chrome_trace(&json[..json.len() - 1]).is_err());
        assert!(validate_chrome_trace(&format!("{json}x")).is_err());
    }

    #[test]
    fn validator_keeps_non_ascii_span_names_intact() {
        let json = "{\"traceEvents\":[{\"name\":\"fus\u{e9}e \u{4e16}\\u754c\",\"ph\":\"X\",\
                    \"pid\":0,\"tid\":0,\"ts\":1.5,\"dur\":2}]}";
        let summary = validate_chrome_trace(json).expect("valid trace");
        assert_eq!(
            summary.names,
            vec!["fus\u{e9}e \u{4e16}\u{754c}".to_string()]
        );
    }

    #[test]
    fn lane_width_surfaces_on_lower_spans() {
        let epoch = Instant::now();
        let mut t = WorkerTracer::new(TraceConfig::with_capacity(8), epoch);
        t.record_lanes_until_now(SpanKind::Lower, epoch, 8, NO_INDEX, NO_INDEX);
        t.record(SpanKind::Fused, epoch, 10, 0, 0);
        let mut trace = RunTrace::assemble(vec![t.finish(CONTROLLER_LANE)]);
        assert_eq!(trace.workers[0].events[0].lanes, 8);
        assert_eq!(trace.workers[0].events[1].lanes, NO_INDEX);
        let json = trace.chrome_json();
        assert!(json.contains("\"lanes\":8}"), "{json}");
        validate_chrome_trace(&json).expect("valid chrome trace");
        // What lowering produced rides on the same span, and on no other.
        trace.lower = Some(LowerNote {
            chains: 3,
            direct_stores: 2,
            isa: "avx2",
        });
        let json = trace.chrome_json();
        let args = "\"lanes\":8,\"chains\":3,\"direct_stores\":2,\"isa\":\"avx2\"}";
        assert_eq!(json.matches(args).count(), 1, "{json}");
        assert_eq!(json.matches("chains").count(), 1, "{json}");
        validate_chrome_trace(&json).expect("valid chrome trace");
    }

    #[test]
    fn events_of_filters_by_kind() {
        let trace = sample_trace();
        assert_eq!(trace.events_of(SpanKind::Fused).count(), 2);
        assert_eq!(trace.events_of(SpanKind::Lower).count(), 1);
        assert!(trace.span_nanos() >= 5_000);
    }
}

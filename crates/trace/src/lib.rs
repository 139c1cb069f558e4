//! # sp-trace — the observability substrate of the shift-peel runtimes
//!
//! The paper's evaluation (Section 5) attributes wall time to barriers,
//! peeled-iteration phases, and cache behaviour; this crate provides the
//! instrumentation layer that makes the same attribution possible inside
//! our executors:
//!
//! * [`ring`] — fixed-capacity, drop-oldest per-worker event ring
//!   buffers. Capacity is allocated once at dispatch; recording a span
//!   on the hot path never allocates and never takes a lock (each worker
//!   owns its ring exclusively for the duration of a run).
//! * [`tracer`] — the [`WorkerTracer`]/[`RunTrace`] span API the
//!   executors thread through their phase loops, and
//!   [`validate_chrome_trace`], the schema check CI runs against emitted
//!   traces.
//! * [`json`] — the workspace's one JSON reader ([`json::Json`]) and
//!   string escaper, shared by the trace validator, `RunReport`, and
//!   the bench-regression gate.
//! * [`metrics`] — a small registry of named counters and log2-bucket
//!   histograms with a Prometheus text exporter.
//! * [`session`] — serve-tier session traces: per-job lifecycle stage
//!   spans ([`JobStage`]) plus every traced run's worker lanes, merged
//!   onto one epoch and exported as a single Chrome trace with flow
//!   events linking jobs to the workers that ran them. Its writer is the
//!   crate's one Chrome trace-event exporter (loadable in
//!   `chrome://tracing` and Perfetto): [`RunTrace::chrome_json`] exports
//!   a run as a session of one run, with no job lanes and no flows.
//!
//! Tracing is opt-in per run and the crate is deliberately free of
//! dependencies: the default (untraced) execution path constructs
//! nothing from this crate beyond an `Option::None`.

pub mod json;
pub mod metrics;
pub mod ring;
pub mod session;
pub mod tracer;

pub use metrics::{Histogram, MetricsRegistry};
pub use ring::EventRing;
pub use session::{JobSpans, JobStage, SessionTrace, StageSpan};
pub use tracer::{
    validate_chrome_trace, LowerNote, RunTrace, SpanKind, TraceConfig, TraceEvent, TraceSummary,
    WorkerTrace, WorkerTracer, CONTROLLER_LANE,
};

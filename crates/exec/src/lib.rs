//! # sp-exec — execution of original and transformed loop programs
//!
//! An interpreter and runtime that executes `sp-ir` programs over real
//! `f64` arrays, under any schedule `shift-peel-core` produces:
//!
//! * [`memory`] — flat backing storage honoring an `sp-cache` layout
//!   (padding and partition gaps physically present), plus the shared
//!   view used by the parallel runtime;
//! * [`digest`] — [`WordDigest`], the lane-parallel hash of a program's
//!   output arrays behind [`Memory::digest`];
//! * [`sink`] — pluggable consumers of the access stream (null, counting,
//!   cache simulators, trace recording);
//! * [`interp`] — the statement/region interpreter and the serial
//!   reference executor;
//! * [`tape`] / [`lower`] — the lowered backends: a lowering pass turns
//!   each statement into one three-address row program (folded
//!   constants, precomputed strides) that one non-recursive runner
//!   executes a column or a row at a time, bit-for-bit identically to
//!   the interpreter, selectable per run via [`RunConfig::backend`];
//! * [`driver`] — the one executor core: fused (strip-mined or direct)
//!   and peeled phase bodies, the per-run phase list, and the single
//!   per-worker phase function every runtime calls;
//! * [`pool`] — the persistent [`WorkerPool`] and its reusable
//!   [`SenseBarrier`];
//! * [`exec`] — [`Program`] (a sequence bound to its analysis) and
//!   [`ExecPlan`] (what to execute);
//! * [`pass`] — the per-stage timing export of the core planner
//!   ([`register_pass_metrics`]);
//! * [`executor`] — the [`Executor`] trait with its three runtimes
//!   ([`ScopedExecutor`], [`PooledExecutor`], [`SimExecutor`]) — thin
//!   entry points that differ only in who provides the threads —
//!   driven by a [`RunConfig`];
//! * [`report`] — per-run [`RunReport`] instrumentation (phase wall
//!   times, barrier waits, imbalance), JSON-serializable, aggregating
//!   into an `sp-trace` metrics registry via [`RunReport::metrics`];
//! * tracing — every runtime threads optional `sp-trace` per-worker
//!   event rings through its phase loop ([`RunConfig::trace`]); traced
//!   runs carry a [`RunTrace`] (Chrome trace-event export) in their
//!   report, and the untraced default records nothing.
//!
//! *Static blocked* scheduling remains the legality unit: the
//! shift-and-peel transformation's legality argument (paper Section 3.2)
//! places peeled iterations at known block boundaries, so claiming
//! iterations below the Theorem-1 `Nt` floor would be illegal for a
//! fused plan. Both schedules in [`schedule`] therefore only assign
//! *whole legal blocks*: each static block is pre-split into chunks that
//! respect `Nt`, and workers claim or steal chunks without ever changing
//! what any chunk computes. [`Schedule::Stealing`] is the one dynamic
//! schedule; [`Schedule::Static`] is its degenerate case — one chunk per
//! block, and nobody steals. Self-scheduling the *unfused*
//! program (whose singleton groups have `Nt = 0`, so any chunk size is
//! legal) is `RunConfig::blocked(grid).schedule(Schedule::Stealing)`.

pub mod digest;
pub mod driver;
pub mod exec;
pub mod executor;
pub mod interp;
pub mod lower;
pub mod memory;
pub mod pass;
pub mod pool;
pub mod report;
pub mod schedule;
pub mod sink;
pub mod tape;

pub use digest::WordDigest;
pub use exec::{ExecError, ExecPlan, Program};
pub use executor::{Backend, Executor, PooledExecutor, RunConfig, ScopedExecutor, SimExecutor};
pub use interp::{run_original, ExecCounters};
pub use memory::{MemView, Memory};
pub use pass::register_pass_metrics;
pub use pool::{SenseBarrier, WorkerPool};
pub use report::{RunReport, WorkerReport};
pub use schedule::{
    simulate_stealing, splitmix64, static_busy, Schedule, SimClock, StealEvent, StealSimReport,
    StealSimSpec, DEFAULT_STEAL_SEED,
};
// Tracing types callers need to configure a traced run and consume its
// result, re-exported so `sp-exec` users don't name `sp-trace` directly.
pub use sink::{AccessSink, CacheSink, ClassifySink, NullSink, RecordingSink};
pub use sp_trace::{MetricsRegistry, RunTrace, SpanKind, TraceConfig, WorkerTrace};
pub use tape::ProgramTape;

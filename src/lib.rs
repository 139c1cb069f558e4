//! # shift-peel — Fusion of Loops for Parallelism and Locality
//!
//! A from-scratch Rust reproduction of Manjikian & Abdelrahman,
//! *"Fusion of Loops for Parallelism and Locality"*, ICPP 1995.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`ir`] — the loop-nest IR (affine subscripts, statements, sequences).
//! * [`dep`] — dependence analysis and dependence chain multigraphs.
//! * [`core`] — the shift-and-peel derivation, legality, fusion planning
//!   and code generation (the paper's primary contribution).
//! * [`cache`] — trace-driven cache simulation, padding, and the cache
//!   partitioning layout algorithm (the paper's second contribution).
//! * [`exec`] — an interpreter and the static-blocked parallel runtimes
//!   (one worker pool dispatch per run, sequential simulation) behind
//!   one `Executor` trait, driven by a `RunConfig` and reporting
//!   per-worker `RunReport` instrumentation; work stealing over
//!   `Nt`-legal chunks via `RunConfig::schedule(Schedule::Stealing)`.
//! * [`machine`] — simulated scalable shared-memory multiprocessors (KSR2
//!   and Convex SPP-1000 presets) for the paper's speedup/miss experiments.
//! * [`kernels`] — the paper's kernels and applications (LL18, calc,
//!   filter, jacobi, tomcatv, hydro2d, spem).
//! * [`baselines`] — the alignment/replication comparator of Figure 26,
//!   lowered to a fusion plan the executors run.
//! * [`serve`] — the content-addressed compilation cache and concurrent
//!   job service (`spfc serve`).
//!
//! ## Quickstart
//!
//! ```
//! use shift_peel::prelude::*;
//!
//! // Build the paper's Figure 9 example: three 1-D loops chained through
//! // arrays a and c with +/-1 stencils.
//! let n = 64usize;
//! let mut b = SeqBuilder::new("fig9");
//! let a = b.array("a", [n]);
//! let bb = b.array("b", [n]);
//! let c = b.array("c", [n]);
//! let d = b.array("d", [n]);
//! let (lo, hi) = (1, n as i64 - 2);
//! b.nest("L1", [(lo, hi)], |x| { let r = x.ld(bb, [0]); x.assign(a, [0], r); });
//! b.nest("L2", [(lo, hi)], |x| { let r = x.ld(a, [1]) + x.ld(a, [-1]); x.assign(c, [0], r); });
//! b.nest("L3", [(lo, hi)], |x| { let r = x.ld(c, [1]) + x.ld(c, [-1]); x.assign(d, [0], r); });
//! let seq = b.finish();
//!
//! // Derive shift-and-peel amounts (paper Figures 9 and 10).
//! let deriv = derive_shift_peel(&seq).unwrap();
//! assert_eq!(deriv.dims[0].shifts, vec![0, 1, 2]);
//! assert_eq!(deriv.dims[0].peels, vec![0, 1, 2]);
//! ```

pub use shift_peel_core as core;
pub use sp_baselines as baselines;
pub use sp_cache as cache;
pub use sp_dep as dep;
pub use sp_exec as exec;
pub use sp_ir as ir;
pub use sp_kernels as kernels;
pub use sp_machine as machine;
pub use sp_serve as serve;
pub use sp_trace as trace;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use shift_peel_core::{
        derive_shift_peel, fusion_plan, CodegenMethod, Derivation, FusionPlan, LegalityError,
        PlanConfig, Planned, Planner, ProfitabilityModel,
    };
    pub use sp_cache::{Cache, CacheConfig, LayoutStrategy, MemoryLayout};
    pub use sp_dep::{analyze_sequence, DepKind, SequenceDeps};
    pub use sp_exec::{
        simulate_stealing, static_busy, Backend, ExecError, ExecPlan, Executor, Memory,
        MetricsRegistry, PooledExecutor, Program, RunConfig, RunReport, RunTrace, Schedule,
        SimExecutor, SpanKind, StealEvent, StealSimReport, StealSimSpec, TraceConfig, WorkerReport,
        DEFAULT_STEAL_SEED,
    };
    pub use sp_ir::{ArrayDecl, ArrayId, Expr, LoopSequence, SeqBuilder};
    pub use sp_machine::{simulate, MachineConfig, SimPlan, SimResult};
    pub use sp_serve::{JobSpec, ServeError, Service, ServiceConfig};
}

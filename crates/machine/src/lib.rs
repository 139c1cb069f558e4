//! # sp-machine — simulated scalable shared-memory multiprocessors
//!
//! Substitute for the paper's KSR2 and Convex SPP-1000 testbeds: a
//! deterministic multiprocessor simulation with per-processor caches
//! (trace-driven via `sp-exec` sinks) and a cycle cost model that prices
//! computation, memory references, cache misses, transformation overhead
//! (strips, guards, peeled iterations) and barriers.
//!
//! * [`config`] — machine models (cache levels plus a cycle cost model)
//!   and the one-level KSR2 / Convex presets;
//! * [`sim`] — whole-program simulation ([`simulate`]);
//! * [`experiment`] — the sweep harnesses behind the paper's figures
//!   (speedup-vs-processors, misses-vs-padding, improvement-vs-size);
//! * [`tune`] — chunk-size bounds for the adaptive schedules from the
//!   cost model (`Nt` floor to cache-capacity) and the skewed-load sweep
//!   harness that runs all three schedules on the real pool.

pub mod config;
pub mod experiment;
pub mod sim;
pub mod tune;

pub use config::{CacheLevel, MachineConfig, CONVEX_SPP1000, KSR2};
pub use experiment::{
    app_speedup_sweep, backend_miss_parity, improvement_ratio, padding_sweep, runtime_sweep,
    speedup_sweep, sum_results, MissParity, RuntimeRow, SweepOptions,
};
pub use sim::{simulate, SimPlan, SimResult};
pub use tune::{chunk_bounds, skewed_sweep, SkewRow};

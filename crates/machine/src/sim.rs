//! Whole-program simulation on a machine model.
//!
//! A simulation executes a sequence under an execution plan with one cache
//! hierarchy per processor (trace-driven, deterministic), then prices each
//! processor's work with the machine's cycle model. The simulated time of
//! a phase-parallel program is the *maximum* processor time plus barrier
//! costs, so load imbalance (e.g. peeled iterations) is captured.

use crate::config::MachineConfig;
use shift_peel_core::FusionPlan;
use sp_cache::{CacheConfig, CacheHierarchy, CacheStats, LayoutStrategy};
use sp_exec::{CacheSink, ExecCounters, ExecError, ExecPlan, Memory, Program, RunConfig};
use sp_ir::LoopSequence;
use std::sync::Arc;

/// Seed of every simulation's deterministic array initialization.
const SEED: u64 = 42;

/// What to simulate.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPlan {
    /// The schedule to run.
    pub exec: ExecPlan,
    /// The data layout in memory.
    pub layout: LayoutStrategy,
    /// Fraction of misses charged an additional remote-access penalty
    /// (NUMA effect; grows with processor count in application runs like
    /// spem). 0 disables the effect.
    pub remote_bias: f64,
    /// A fusion plan derived elsewhere, run in place of the one `exec`
    /// derives (see `RunConfig::prederived`) — how Figure 26's
    /// alignment/replication program runs (`AlignedProgram::plan`).
    pub prederived: Option<Arc<FusionPlan>>,
}

impl SimPlan {
    /// A plan that derives its own fusion plan, no NUMA bias.
    pub fn new(exec: ExecPlan, layout: LayoutStrategy) -> Self {
        SimPlan {
            exec,
            layout,
            remote_bias: 0.0,
            prederived: None,
        }
    }
}

/// Per-processor simulation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcResult {
    /// Work counters from the interpreter.
    pub counters: ExecCounters,
    /// Cache behaviour per level, first level first.
    pub cache: Vec<CacheStats>,
    /// Priced cycles (excluding barrier costs, which are global).
    pub cycles: u64,
}

/// Whole-machine simulation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Per-processor details.
    pub per_proc: Vec<ProcResult>,
    /// Processors used.
    pub procs: usize,
    /// Total simulated cycles (max processor + barriers).
    pub cycles: u64,
    /// Simulated wall-clock seconds at the machine's clock rate.
    pub seconds: f64,
    /// First-level cache misses across processors.
    pub misses: u64,
    /// First-level cache accesses across processors.
    pub accesses: u64,
}

impl SimResult {
    /// Speedup of this run versus a baseline run (`base.seconds /
    /// self.seconds`).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        base.seconds / self.seconds
    }

    /// Prices a finished run on `machine`: each processor's `counters`
    /// and the misses its cache hierarchy in `caches` counted, plus the
    /// barriers every processor crossed.
    fn tally(
        machine: &MachineConfig,
        counters: &[ExecCounters],
        caches: &[CacheSink],
        remote_bias: f64,
    ) -> SimResult {
        let procs = counters.len();
        let per_proc: Vec<ProcResult> = counters
            .iter()
            .zip(caches)
            .map(|(c, s)| {
                let cache = s.stats();
                ProcResult {
                    counters: *c,
                    cycles: price(machine, c, &cache, remote_bias, procs),
                    cache,
                }
            })
            .collect();
        let barrier_cycles = counters
            .first()
            .map(|c| c.barriers * (machine.barrier_base + machine.barrier_per_proc * procs as u64))
            .unwrap_or(0);
        let cycles = per_proc.iter().map(|p| p.cycles).max().unwrap_or(0) + barrier_cycles;
        SimResult {
            procs,
            cycles,
            seconds: machine.seconds(cycles),
            misses: per_proc.iter().map(|p| p.cache[0].misses).sum(),
            accesses: per_proc.iter().map(|p| p.cache[0].accesses).sum(),
            per_proc,
        }
    }
}

/// Prices one processor's work in cycles under the machine's cost model;
/// `cache` holds its counters per level, and each level's misses cost
/// that level's penalty.
fn price(
    machine: &MachineConfig,
    c: &ExecCounters,
    cache: &[CacheStats],
    remote_bias: f64,
    procs: usize,
) -> u64 {
    let mut cycles = 0u64;
    cycles += c.flops * machine.flop_cycles;
    cycles += (c.loads + c.stores) * machine.mem_ref_cycles;
    cycles += c.iters * machine.iter_overhead;
    cycles += c.peeled_iters * (machine.iter_overhead + machine.peeled_iter_overhead);
    cycles += c.strips * machine.strip_overhead;
    cycles += c.guards * machine.guard_overhead;
    // Miss penalties, with an optional NUMA surcharge: with data spread
    // over `procs` memories, a fraction (procs-1)/procs of misses are
    // remote.
    let remote_fraction = if procs > 1 {
        (procs - 1) as f64 / procs as f64
    } else {
        0.0
    };
    for (level, stats) in machine.levels.iter().zip(cache) {
        let miss_cost = level.miss_penalty as f64 * (1.0 + remote_bias * remote_fraction);
        cycles += (stats.misses as f64 * miss_cost) as u64;
    }
    cycles
}

/// Runs a deterministic machine simulation.
pub fn simulate(
    seq: &LoopSequence,
    machine: &MachineConfig,
    plan: &SimPlan,
) -> Result<SimResult, ExecError> {
    let levels = match &plan.exec {
        ExecPlan::Serial => 1,
        ExecPlan::Blocked { grid } | ExecPlan::Fused { grid, .. } => grid.len(),
    };
    let ex = Program::new(seq, levels)?;
    let mut mem = Memory::new(seq, plan.layout);
    mem.init_deterministic(seq, SEED);
    // One cold cache hierarchy per processor, with the machine's levels.
    let geometry: Vec<CacheConfig> = machine.levels.iter().map(|l| l.geometry).collect();
    let mut caches: Vec<CacheSink> = (0..plan.exec.procs())
        .map(|_| CacheSink::new(CacheHierarchy::new(&geometry)))
        .collect();
    let mut cfg = RunConfig::from_plan(plan.exec.clone());
    if let Some(fp) = &plan.prederived {
        cfg = cfg.prederived(Arc::clone(fp));
    }
    let report = ex.run_with_sinks(&mut mem, &cfg, &mut caches)?;
    let counters: Vec<ExecCounters> = report.workers.iter().map(|w| w.counters).collect();
    Ok(SimResult::tally(
        machine,
        &counters,
        &caches,
        plan.remote_bias,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheLevel, CONVEX_SPP1000};
    use shift_peel_core::CodegenMethod;
    use sp_ir::SeqBuilder;

    fn two_pass(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("two");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let c = b.array("c", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, 1]) + x.ld(a, [0, -1]);
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 0]) + x.ld(a, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        b.finish()
    }

    #[test]
    fn simulation_runs_and_accounts() {
        let seq = two_pass(64);
        let plan = SimPlan::new(
            ExecPlan::Blocked { grid: vec![2] },
            LayoutStrategy::Contiguous,
        );
        let r = simulate(&seq, &CONVEX_SPP1000, &plan).unwrap();
        assert_eq!(r.procs, 2);
        assert!(r.cycles > 0);
        assert!(r.misses > 0);
        // Accesses = loads + stores summed over processors.
        let want: u64 = r
            .per_proc
            .iter()
            .map(|p| p.counters.loads + p.counters.stores)
            .sum();
        assert_eq!(r.accesses, want);
    }

    #[test]
    fn more_processors_reduce_time() {
        let seq = two_pass(128);
        let mk = |p: usize| {
            SimPlan::new(
                ExecPlan::Blocked { grid: vec![p] },
                LayoutStrategy::Contiguous,
            )
        };
        let t1 = simulate(&seq, &CONVEX_SPP1000, &mk(1)).unwrap();
        let t4 = simulate(&seq, &CONVEX_SPP1000, &mk(4)).unwrap();
        assert!(
            t4.speedup_over(&t1) > 2.0,
            "speedup {}",
            t4.speedup_over(&t1)
        );
    }

    #[test]
    fn fused_reduces_misses_when_data_exceeds_cache() {
        // 3 arrays of 512x512 f64 = 6 MB >> 1 MB cache.
        let seq = two_pass(512);
        let base = SimPlan::new(
            ExecPlan::Blocked { grid: vec![1] },
            LayoutStrategy::CachePartition(CONVEX_SPP1000.target()),
        );
        let fused = SimPlan::new(
            ExecPlan::Fused {
                grid: vec![1],
                method: CodegenMethod::StripMined,
                strip: 16,
            },
            LayoutStrategy::CachePartition(CONVEX_SPP1000.target()),
        );
        let rb = simulate(&seq, &CONVEX_SPP1000, &base).unwrap();
        let rf = simulate(&seq, &CONVEX_SPP1000, &fused).unwrap();
        assert!(
            rf.misses < rb.misses,
            "fused misses {} !< unfused {}",
            rf.misses,
            rb.misses
        );
    }

    #[test]
    fn each_level_charges_its_own_misses() {
        let two_level = MachineConfig {
            levels: &[
                CacheLevel {
                    geometry: CacheConfig {
                        capacity: 4 << 10,
                        line: 64,
                        assoc: 2,
                    },
                    miss_penalty: 10,
                },
                CacheLevel {
                    geometry: CacheConfig {
                        capacity: 64 << 10,
                        line: 64,
                        assoc: 4,
                    },
                    miss_penalty: 200,
                },
            ],
            flop_cycles: 0,
            mem_ref_cycles: 1,
            iter_overhead: 0,
            strip_overhead: 0,
            guard_overhead: 0,
            peeled_iter_overhead: 0,
            barrier_base: 0,
            barrier_per_proc: 0,
            ..CONVEX_SPP1000
        };
        let seq = two_pass(64);
        let plan = SimPlan::new(
            ExecPlan::Blocked { grid: vec![1] },
            LayoutStrategy::Contiguous,
        );
        let r = simulate(&seq, &two_level, &plan).unwrap();
        let [l1, l2] = r.per_proc[0].cache[..] else {
            panic!("two levels")
        };
        assert_eq!(l2.accesses, l1.misses);
        assert!(l2.misses > 0 && l2.misses < l1.misses);
        assert_eq!(r.accesses, l1.accesses);
        assert_eq!(r.cycles, l1.accesses + 10 * l1.misses + 200 * l2.misses);
    }

    #[test]
    fn remote_bias_increases_time() {
        let seq = two_pass(64);
        let mut plan = SimPlan::new(
            ExecPlan::Blocked { grid: vec![4] },
            LayoutStrategy::Contiguous,
        );
        let t0 = simulate(&seq, &CONVEX_SPP1000, &plan).unwrap();
        plan.remote_bias = 2.0;
        let t1 = simulate(&seq, &CONVEX_SPP1000, &plan).unwrap();
        assert!(t1.cycles > t0.cycles);
    }
}

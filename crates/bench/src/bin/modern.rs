//! Extension experiment: does the 1995 result survive a modern memory
//! hierarchy? Runs LL18 fused vs unfused on a two-level machine (32 KB
//! 8-way L1 + 1 MB 16-way L2, 64 B lines) and prices accesses with
//! modern-ish latencies (L1 4, L2 14, memory 220 cycles).
//!
//! The paper predicts its techniques gain value as the processor-memory
//! gap grows ("we expect our techniques to result in greater performance
//! improvements on future multiprocessor systems") — this experiment
//! checks that extrapolation.

use shift_peel_core::CodegenMethod;
use sp_bench::{Opts, Table};
use sp_cache::{CacheConfig, LayoutStrategy};
use sp_exec::ExecPlan;
use sp_kernels::ll18;
use sp_machine::{simulate, CacheLevel, MachineConfig, SimPlan};

/// Every access costs 4 cycles, an L1 miss 10 more and an L2 miss 206
/// more still (220 in all). Nothing else is charged, so a run's cycles
/// are its memory-system cycles.
const MODERN: MachineConfig = MachineConfig {
    name: "modern",
    max_procs: 1,
    clock_mhz: 1000,
    levels: &[
        CacheLevel {
            geometry: CacheConfig {
                capacity: 32 << 10,
                line: 64,
                assoc: 8,
            },
            miss_penalty: 10,
        },
        CacheLevel {
            geometry: CacheConfig {
                capacity: 1 << 20,
                line: 64,
                assoc: 16,
            },
            miss_penalty: 206,
        },
    ],
    flop_cycles: 0,
    mem_ref_cycles: 4,
    iter_overhead: 0,
    strip_overhead: 0,
    guard_overhead: 0,
    peeled_iter_overhead: 0,
    barrier_base: 0,
    barrier_per_proc: 0,
};

fn main() {
    let opts = Opts::from_args();
    let n = opts.size(512);
    let seq = ll18::sequence(n);
    let layout = LayoutStrategy::CachePartition(MODERN.target());

    let run = |fused: bool, strip: i64| {
        let plan = if fused {
            ExecPlan::Fused {
                grid: vec![1],
                method: CodegenMethod::StripMined,
                strip,
            }
        } else {
            ExecPlan::Blocked { grid: vec![1] }
        };
        let r = simulate(&seq, &MODERN, &SimPlan::new(plan, layout)).expect("run");
        let [l1, l2] = r.per_proc[0].cache[..] else {
            unreachable!("two levels")
        };
        (l1, l2, r.cycles)
    };

    let mut t = Table::new(
        format!("LL18 {n}x{n} on a modern two-level hierarchy"),
        &["version", "L1 misses", "L2 misses", "memory cycles"],
    );
    let (u1, u2, uc) = run(false, 0);
    t.row(vec![
        "unfused".into(),
        u1.misses.to_string(),
        u2.misses.to_string(),
        uc.to_string(),
    ]);
    let (f1, f2, fc) = run(true, 16);
    t.row(vec![
        "fused".into(),
        f1.misses.to_string(),
        f2.misses.to_string(),
        fc.to_string(),
    ]);
    t.print();
    println!(
        "fusion saves {:.1}% of memory-system cycles at a 220-cycle miss penalty \
(the paper's prediction that the gap amplifies the benefit)",
        (1.0 - fc as f64 / uc as f64) * 100.0
    );
}

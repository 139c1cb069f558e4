//! The persistent worker pool against a pool built for one run.
//!
//! The pool reuses OS threads and a sense-reversing barrier across runs
//! and timesteps; nothing about that reuse may be observable in results.
//! These tests pin that down: bit-for-bit equivalence with
//! `ScopedExecutor`'s one-run pool on the paper's kernels, correct multi-timestep reuse of one
//! pool instance, determinism across repeated pooled runs (including
//! property-tested random programs), and surplus-worker handling.

use proptest::prelude::*;
use shift_peel::exec::ScopedExecutor;
use shift_peel::kernels::{calc, jacobi, ll18};
use shift_peel::prelude::*;

fn run_with(
    ex: &mut dyn Executor,
    seq: &LoopSequence,
    levels: usize,
    cfg: &RunConfig,
    seed: u64,
) -> (Vec<Vec<f64>>, RunReport) {
    let prog = Program::new(seq, levels).expect("analysis");
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, seed);
    let report = ex.run(&prog, &mut mem, cfg).expect("run");
    (mem.snapshot_all(seq), report)
}

/// Pooled and scoped execution agree bit-for-bit on the paper's kernels,
/// across fused and blocked plans.
#[test]
fn pooled_matches_scoped_on_paper_kernels() {
    let kernels: Vec<(&str, LoopSequence)> = vec![
        ("ll18", ll18::sequence(96)),
        ("calc", calc::sequence(96)),
        ("jacobi", jacobi::sequence(64)),
    ];
    let mut pool = PooledExecutor::new(4);
    for (name, seq) in &kernels {
        for cfg in [
            RunConfig::fused([4]).strip(8),
            RunConfig::fused([2]).strip(16),
            RunConfig::blocked([4]),
        ] {
            let (want, scoped) = run_with(&mut ScopedExecutor, seq, 1, &cfg, 5);
            let (got, pooled) = run_with(&mut pool, seq, 1, &cfg, 5);
            assert_eq!(got, want, "{name}: pooled diverged from scoped");
            // Work counters (not timings) must agree exactly too.
            assert_eq!(
                pooled.merged_counters(),
                scoped.merged_counters(),
                "{name}: counter mismatch"
            );
        }
    }
}

/// A 2-D grid exercises multi-level decomposition through the pool.
#[test]
fn pooled_matches_scoped_on_2d_grid() {
    let seq = jacobi::sequence(48);
    let mut pool = PooledExecutor::new(6);
    for grid in [[2usize, 2], [3, 2], [1, 4]] {
        let cfg = RunConfig::fused(grid.to_vec()).strip(4);
        let (want, _) = run_with(&mut ScopedExecutor, &seq, 2, &cfg, 11);
        let (got, _) = run_with(&mut pool, &seq, 2, &cfg, 11);
        assert_eq!(got, want, "grid {grid:?}");
    }
}

/// One pool instance survives many multi-timestep runs; every run matches
/// the equivalent sequence of serial steps.
#[test]
fn one_pool_reused_across_multistep_runs() {
    let seq = ll18::sequence(64);
    let prog = Program::new(&seq, 1).expect("analysis");
    let mut pool = PooledExecutor::new(3);
    for steps in [1usize, 4, 16] {
        let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
        want.init_deterministic(&seq, 23);
        for _ in 0..steps {
            prog.run(&mut want, &ExecPlan::Serial).expect("serial step");
        }
        let cfg = RunConfig::fused([3]).strip(8).steps(steps);
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 23);
        let report = pool.run(&prog, &mut mem, &cfg).expect("pooled steps");
        assert_eq!(
            mem.snapshot_all(&seq),
            want.snapshot_all(&seq),
            "steps={steps}"
        );
        assert_eq!(report.steps, steps);
        // Each worker passed one barrier per phase per step.
        let per_step = report.merged_counters().barriers / steps as u64;
        assert!(per_step > 0, "steps={steps}: no barriers recorded");
        assert_eq!(report.merged_counters().barriers, per_step * steps as u64);
    }
}

/// A pool larger than the plan's grid idles its surplus workers without
/// disturbing results.
#[test]
fn oversized_pool_idles_surplus_workers() {
    let seq = calc::sequence(80);
    let cfg = RunConfig::fused([2]).strip(8);
    let (want, _) = run_with(&mut ScopedExecutor, &seq, 1, &cfg, 3);
    let mut pool = PooledExecutor::new(8);
    let (got, report) = run_with(&mut pool, &seq, 1, &cfg, 3);
    assert_eq!(got, want);
    // The report covers exactly the plan's processors, not the pool size.
    assert_eq!(report.procs, 2);
    assert_eq!(report.workers.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Repeated pooled runs of a random configuration are deterministic:
    /// same snapshot and same work counters every time, with the same
    /// pool serving all repetitions.
    #[test]
    fn pooled_runs_are_deterministic(
        procs in 1usize..=5,
        strip in 1i64..=24,
        steps in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let seq = ll18::sequence(48);
        let cfg = RunConfig::fused([procs]).strip(strip).steps(steps);
        let mut pool = PooledExecutor::new(procs);
        let (first_mem, first_report) = run_with(&mut pool, &seq, 1, &cfg, seed);
        for _ in 0..2 {
            let (mem, report) = run_with(&mut pool, &seq, 1, &cfg, seed);
            prop_assert_eq!(&mem, &first_mem);
            prop_assert_eq!(report.merged_counters(), first_report.merged_counters());
        }
        // And the scoped runtime agrees with all of them.
        let (scoped_mem, _) = run_with(&mut ScopedExecutor, &seq, 1, &cfg, seed);
        prop_assert_eq!(&scoped_mem, &first_mem);
    }
}

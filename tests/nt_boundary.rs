//! Theorem-1 boundary pins: behaviour of the executors when a processor
//! block has exactly `Nt` iterations, one fewer, and one more.
//!
//! The legality check (`check_blocks` in shift-peel-core) and the
//! executors' grid clamp (`PhaseList::build` in sp-exec) must agree at
//! the boundary: `block == Nt` is legal
//! (Theorem 1's `floor((u - l + 1)/P) >= Nt` is non-strict), `Nt - 1`
//! is not. On the illegal side the run returns a typed
//! [`ExecError::Legality`] — never a panic, and never a wrong answer.

use shift_peel::core::CodegenMethod;
use shift_peel::exec::ScopedExecutor;
use shift_peel::prelude::*;

/// Two-nest chain whose fusion needs shift/peel of 1 on each side:
/// `Nt = 2`. The fused range is `1..=n-2`, so the trip count is `n - 2`.
fn chain(n: usize) -> LoopSequence {
    let mut b = SeqBuilder::new("ntpin");
    let a = b.array("a", [n]);
    let c = b.array("c", [n]);
    let d = b.array("d", [n]);
    let (lo, hi) = (1, n as i64 - 2);
    b.nest("L1", [(lo, hi)], |x| {
        let r = x.ld(d, [0]);
        x.assign(a, [0], r);
    });
    b.nest("L2", [(lo, hi)], |x| {
        let r = x.ld(a, [1]) + x.ld(a, [-1]);
        x.assign(c, [0], r);
    });
    b.finish()
}

fn fused(procs: usize) -> RunConfig {
    RunConfig::fused([procs]).steps(2)
}

fn run_all(seq: &LoopSequence, cfg: &RunConfig) -> Vec<Result<RunReport, ExecError>> {
    let prog = Program::new(seq, 1).unwrap();
    let mut out = Vec::new();
    for ex in [
        &mut SimExecutor as &mut dyn Executor,
        &mut ScopedExecutor,
        &mut PooledExecutor::new(4),
    ] {
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 9);
        out.push(ex.run(&prog, &mut mem, cfg));
    }
    out
}

/// The whole fused range below `Nt`: no processor count can form a
/// legal block. The planner refuses to *derive* such a plan, so the
/// case reaches the executors the way it does in production — a
/// prederived (cached) plan injected into a run whose range shrank
/// below the threshold. Every executor reports `BlockTooSmall` as a
/// typed error (a panic would fail this test), and reports it before
/// touching memory.
#[test]
fn block_below_nt_is_a_typed_error() {
    use shift_peel::core::fusion_plan;
    use std::sync::Arc;
    // Derive a fused plan (one group, Nt = 2) from a legally sized
    // instance, then run it against an instance whose trip count is 1.
    let big = chain(8);
    let deps = analyze_sequence(&big).unwrap();
    let plan = fusion_plan(&big, &deps, 1, CodegenMethod::StripMined, None).unwrap();
    let seq = chain(3); // trip 1 < Nt
    let cfg = fused(1).prederived(Arc::new(plan));
    for got in run_all(&seq, &cfg) {
        match got {
            Err(ExecError::Legality(LegalityError::BlockTooSmall {
                block_iters, nt, ..
            })) => {
                assert_eq!((block_iters, nt), (1, 2));
            }
            other => panic!("expected BlockTooSmall, got {other:?}"),
        }
    }
}

/// Blocks of exactly `Nt` are legal and compute the right answer, with
/// every requested processor actually used (no over-eager clamping at
/// the boundary).
#[test]
fn block_exactly_nt_runs_and_matches_serial() {
    for (n, procs) in [(4usize, 1usize), (6, 2), (10, 4)] {
        let seq = chain(n); // trip = n - 2 = procs * Nt
        let prog = Program::new(&seq, 1).unwrap();
        let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
        want.init_deterministic(&seq, 9);
        for _ in 0..2 {
            prog.run(&mut want, &ExecPlan::Serial).unwrap();
        }
        for got in run_all(&seq, &fused(procs)) {
            let report = got.expect("block == Nt is legal");
            assert_eq!(
                report
                    .workers
                    .iter()
                    .filter(|w| w.counters.total_iters() > 0)
                    .count(),
                procs,
                "n={n}: all {procs} blocks of exactly Nt iterations ran"
            );
        }
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 9);
        SimExecutor.run(&prog, &mut mem, &fused(procs)).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want.snapshot_all(&seq), "n={n}");
    }
}

/// Stealing at the boundary: blocks of exactly `Nt` cannot be
/// subdivided (any sub-chunk would fall below Theorem 1's floor), so
/// stealing degrades to one whole-block chunk per worker, whether the
/// requested chunk is the floor itself or a non-divisor above it. Every
/// requested worker still ends up busy — work counters attribute to
/// chunk *owners*, so even a stolen block counts toward the worker the
/// static decomposition assigned it to — and results stay bit-for-bit
/// equal to serial.
#[test]
fn adaptive_schedules_keep_all_workers_busy_at_the_nt_boundary() {
    for chunk in [1, 3] {
        for (n, procs) in [(6usize, 2usize), (10, 4)] {
            let seq = chain(n); // trip = n - 2 = procs * Nt
            let prog = Program::new(&seq, 1).unwrap();
            let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
            want.init_deterministic(&seq, 9);
            for _ in 0..2 {
                prog.run(&mut want, &ExecPlan::Serial).unwrap();
            }
            let cfg = fused(procs).schedule(Schedule::Stealing).chunk(chunk);
            for got in run_all(&seq, &cfg) {
                let report = got.expect("block == Nt stays legal under stealing");
                assert_eq!(
                    report
                        .workers
                        .iter()
                        .filter(|w| w.counters.total_iters() > 0)
                        .count(),
                    procs,
                    "chunk {chunk} n={n}: every worker owns work at the boundary"
                );
            }
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 9);
            SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
            assert_eq!(
                mem.snapshot_all(&seq),
                want.snapshot_all(&seq),
                "chunk {chunk} n={n}"
            );
        }
    }
}

/// One past the boundary on both axes: blocks of `Nt + 1` run normally,
/// and asking for one more processor than `floor(trip/Nt)` allows is
/// clamped to a legal decomposition rather than rejected — the clamp
/// and the legality check draw the line at the same place.
#[test]
fn block_above_nt_and_clamped_grids_run() {
    let seq = chain(8); // trip 6, Nt = 2 -> max_procs = 3
    let prog = Program::new(&seq, 1).unwrap();
    let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
    want.init_deterministic(&seq, 9);
    for _ in 0..2 {
        prog.run(&mut want, &ExecPlan::Serial).unwrap();
    }
    // procs=2: blocks of Nt + 1. procs=3: blocks of exactly Nt.
    // procs=4: one past max_procs, clamped back to 3 blocks.
    for procs in [2usize, 3, 4] {
        for got in run_all(&seq, &fused(procs)) {
            let report = got.unwrap_or_else(|e| panic!("P={procs}: {e}"));
            let busy = report
                .workers
                .iter()
                .filter(|w| w.counters.total_iters() > 0)
                .count();
            assert_eq!(busy, procs.min(3), "P={procs} clamps to max_procs");
        }
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 9);
        SimExecutor.run(&prog, &mut mem, &fused(procs)).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want.snapshot_all(&seq), "P={procs}");
    }
}

//! Stress tests of the real threaded runtime: repeated runs at several
//! processor counts must be deterministic and match the serial original
//! — a data race in the fused/peeled phases would show up as flaky
//! mismatches here.

use shift_peel::core::CodegenMethod;
use shift_peel::exec::ScopedExecutor;
use shift_peel::kernels::{calc, filter, jacobi, ll18};
use shift_peel::prelude::*;

fn reference(seq: &LoopSequence, levels: usize) -> Vec<Vec<f64>> {
    let ex = Program::new(seq, levels).expect("analysis");
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, 77);
    ex.run(&mut mem, &ExecPlan::Serial).expect("serial");
    mem.snapshot_all(seq)
}

fn stress(seq: &LoopSequence, levels: usize, grid: Vec<usize>, reps: usize) {
    let want = reference(seq, levels);
    let prog = Program::new(seq, levels).expect("analysis");
    let cfg = RunConfig::fused(grid.clone())
        .method(CodegenMethod::StripMined)
        .strip(8);
    // Exercise a fresh pool every rep (`ScopedExecutor`) and one
    // persistent pool reused across all reps.
    let mut pool = PooledExecutor::new(grid.iter().product());
    for rep in 0..reps {
        for ex in [&mut ScopedExecutor as &mut dyn Executor, &mut pool] {
            let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(seq, 77);
            ex.run(&prog, &mut mem, &cfg).expect("threaded");
            assert_eq!(mem.snapshot_all(seq), want, "rep {rep} grid {grid:?}");
        }
    }
}

#[test]
fn threaded_ll18_is_deterministic() {
    let seq = ll18::sequence(96);
    for p in [2usize, 4, 8] {
        stress(&seq, 1, vec![p], 5);
    }
}

#[test]
fn threaded_calc_is_deterministic() {
    let seq = calc::sequence(96);
    stress(&seq, 1, vec![6], 5);
}

#[test]
fn threaded_filter_deep_chain() {
    let seq = filter::sequence(80, 80);
    stress(&seq, 1, vec![4], 5);
}

#[test]
fn threaded_jacobi_2d_grid() {
    let seq = jacobi::sequence(64);
    for grid in [vec![2usize, 2], vec![3, 2]] {
        stress(&seq, 2, grid, 5);
    }
}

#[test]
fn threaded_blocked_unfused_is_deterministic() {
    let seq = ll18::sequence(96);
    let want = reference(&seq, 1);
    let prog = Program::new(&seq, 1).expect("analysis");
    let cfg = RunConfig::blocked([8]);
    for _ in 0..5 {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 77);
        ScopedExecutor
            .run(&prog, &mut mem, &cfg)
            .expect("threaded blocked");
        assert_eq!(mem.snapshot_all(&seq), want);
    }
}

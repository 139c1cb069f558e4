//! Sequential outer loops: the paper's parallel loop sequences are
//! "often embedded within a sequential outer loop" (Section 1; the outer
//! loop itself is out of the paper's scope — it defers wavefront
//! scheduling to its reference [21]). What *is* in scope: the transformed
//! sequence must be re-executable every time step, with each step's
//! transformed execution equivalent to the original's. These tests drive
//! multi-step relaxations to a fixed point both ways.

use shift_peel::core::CodegenMethod;
use shift_peel::exec::ScopedExecutor;
use shift_peel::kernels::{jacobi, ll18};
use shift_peel::prelude::*;

fn steps(seq: &LoopSequence, plan: &ExecPlan, nsteps: usize, levels: usize) -> Vec<Vec<f64>> {
    let prog = Program::new(seq, levels).expect("analysis");
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, 2024);
    let cfg = RunConfig::from_plan(plan.clone()).steps(nsteps);
    SimExecutor.run(&prog, &mut mem, &cfg).expect("steps");
    mem.snapshot_all(seq)
}

#[test]
fn jacobi_relaxation_over_many_steps() {
    let seq = jacobi::sequence(40);
    let want = steps(&seq, &ExecPlan::Serial, 25, 2);
    for grid in [vec![3usize], vec![2, 2]] {
        let levels = grid.len();
        let plan = ExecPlan::Fused {
            grid,
            method: CodegenMethod::StripMined,
            strip: 4,
        };
        assert_eq!(steps(&seq, &plan, 25, levels), want);
    }
}

#[test]
fn ll18_time_integration() {
    // LL18 is a real time integrator (zu/zv/zr/zz accumulate with S and
    // T); 10 steps propagate any scheduling error into the state.
    let seq = ll18::sequence(48);
    let want = steps(&seq, &ExecPlan::Serial, 10, 1);
    let plan = ExecPlan::Fused {
        grid: vec![5],
        method: CodegenMethod::StripMined,
        strip: 4,
    };
    assert_eq!(steps(&seq, &plan, 10, 1), want);
    let direct = ExecPlan::Fused {
        grid: vec![5],
        method: CodegenMethod::Direct,
        strip: 1,
    };
    assert_eq!(steps(&seq, &direct, 10, 1), want);
}

#[test]
fn threaded_time_stepping_is_deterministic() {
    let seq = jacobi::sequence(64);
    let prog = Program::new(&seq, 1).expect("analysis");
    let cfg = RunConfig::fused([4]).strip(8).steps(8);
    let run = |ex: &mut dyn Executor| {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        ex.run(&prog, &mut mem, &cfg).expect("steps");
        mem.snapshot_all(&seq)
    };
    let first = run(&mut ScopedExecutor);
    for _ in 0..3 {
        assert_eq!(run(&mut ScopedExecutor), first);
    }
    // The persistent pool must agree bit-for-bit, reusing its workers
    // across repeated multi-step runs.
    let mut pool = PooledExecutor::new(4);
    for _ in 0..3 {
        assert_eq!(run(&mut pool), first);
    }
}

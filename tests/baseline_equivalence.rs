//! The alignment/replication baseline must also be semantics-preserving
//! (it is the *comparator* in Figure 26, so an incorrect baseline would
//! invalidate the comparison), and its overhead must be visible — that
//! overhead is the paper's whole point. The aligned program runs as the
//! fusion plan `AlignedProgram::plan` lowers it to, on the one executor.

use shift_peel::baselines::{align_with_replication, AlignedProgram};
use shift_peel::core::CodegenMethod;
use shift_peel::kernels::ll18;
use shift_peel::machine::CONVEX_SPP1000;
use shift_peel::prelude::*;
use std::sync::Arc;

/// Figure 13's swap kernel: alignment conflicts on `b`, which is
/// replicated.
fn swap_seq(n: usize) -> LoopSequence {
    let mut b = SeqBuilder::new("swap");
    let a = b.array("a", [n]);
    let bb = b.array("b", [n]);
    b.nest("L1", [(1, n as i64 - 1)], |x| {
        let r = x.ld(bb, [-1]);
        x.assign(a, [0], r);
    });
    b.nest("L2", [(1, n as i64 - 1)], |x| {
        let r = x.ld(a, [-1]);
        x.assign(bb, [0], r);
    });
    b.finish()
}

/// Machine simulation of `prog`: `sp_machine::simulate` on the
/// replicated sequence with the lowered plan injected.
fn simulate_plan(prog: &AlignedProgram, machine: &MachineConfig, procs: usize) -> SimResult {
    let plan = prog.plan().expect("aligned plan");
    let exec = ExecPlan::Fused {
        grid: vec![procs],
        method: plan.method,
        strip: 1,
    };
    let layout = LayoutStrategy::CachePartition(machine.target());
    let sim = SimPlan {
        prederived: Some(Arc::new(plan)),
        ..SimPlan::new(exec, layout)
    };
    simulate(&prog.seq, machine, &sim).expect("aligned sim")
}

/// Runs `seq`'s aligned program under its lowered plan on the simulator
/// and the pool, both backends, every schedule, either codegen method
/// and P in {1, 2, 3, 6}: the original arrays must equal the serial run
/// bit for bit.
fn assert_aligned_matches_reference(seq: &LoopSequence) {
    // Reference (serial original).
    let ex = Program::new(seq, 1).expect("analysis");
    let mut ref_mem = Memory::new(seq, LayoutStrategy::Contiguous);
    ref_mem.init_deterministic(seq, 21);
    ex.run(&mut ref_mem, &ExecPlan::Serial).expect("serial");
    let want = ref_mem.snapshot_all(seq);

    let prog = align_with_replication(seq, 0).expect("alignment");
    let ex = Program::new(&prog.seq, 1).expect("analysis");
    let mut pooled = PooledExecutor::new(6);
    for method in [CodegenMethod::Direct, CodegenMethod::StripMined] {
        let plan = prog.plan().expect("aligned plan");
        let plan = Arc::new(FusionPlan { method, ..plan });
        for procs in [1usize, 2, 3, 6] {
            for backend in [Backend::Interp, Backend::Simd] {
                let stat = RunConfig::fused([procs])
                    .prederived(Arc::clone(&plan))
                    .backend(backend);
                let stealing = stat.clone().schedule(Schedule::Stealing);
                // Stealing at its default chunks and at the finest legal
                // ones (1 clamps up to the Nt floor).
                for cfg in [stat, stealing.clone(), stealing.chunk(1)] {
                    for runtime in [&mut SimExecutor as &mut dyn Executor, &mut pooled] {
                        let mut mem = Memory::new(&prog.seq, LayoutStrategy::Contiguous);
                        mem.init_deterministic(&prog.seq, 21);
                        runtime.run(&ex, &mut mem, &cfg).expect("aligned run");
                        // The original arrays (replicas are appended after them).
                        for (i, arr) in want.iter().enumerate() {
                            assert_eq!(
                                &mem.snapshot(&prog.seq, ArrayId(i as u32)),
                                arr,
                                "array {i} of {} at P={procs}: {} {method:?} {backend:?} \
                                 {:?} chunk {:?}",
                                seq.name,
                                runtime.name(),
                                cfg.schedule_choice(),
                                cfg.chunk_size()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn aligned_ll18_matches_reference() {
    assert_aligned_matches_reference(&ll18::sequence(40));
}

#[test]
fn aligned_swap_matches_reference() {
    assert_aligned_matches_reference(&swap_seq(64));
}

/// The originals' amounts are derived, not read off the alignment: the
/// swap kernel (alignment `[0, -1]`) peels its second nest by one, and
/// LL18's amounts are all zero — its alignment exactly.
#[test]
fn aligned_plan_amounts_are_derived() {
    let swap = align_with_replication(&swap_seq(64), 0).expect("alignment");
    assert_eq!(swap.align, vec![0, -1]);
    let plan = swap.plan().expect("aligned plan");
    assert_eq!(plan.method, CodegenMethod::Direct);
    assert_eq!(plan.groups.len(), swap.n_copies + 1);
    let originals = &plan.groups[swap.n_copies].derivation.dims[0];
    assert_eq!(
        (&originals.shifts[..], &originals.peels[..]),
        (&[0, 0][..], &[0, 1][..])
    );

    let ll18 = align_with_replication(&ll18::sequence(40), 0).expect("alignment");
    assert!(ll18.align.iter().all(|&a| a == 0));
    let plan = ll18.plan().expect("aligned plan");
    assert_eq!(plan.groups.len(), ll18.n_copies + 1);
    assert_eq!((plan.max_shift(), plan.max_peel()), (0, 0));
}

#[test]
fn aligned_execution_covers_every_iteration_once() {
    let prog = align_with_replication(&swap_seq(64), 0).expect("alignment");
    let ex = Program::new(&prog.seq, 1).expect("analysis");
    let mut mem = Memory::new(&prog.seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&prog.seq, 1);
    let plan = Arc::new(prog.plan().expect("aligned plan"));
    let cfg = RunConfig::fused([4]).prederived(plan);
    let report = SimExecutor.run(&ex, &mut mem, &cfg).expect("aligned run");
    // 2 original nests x 63 iterations + copy nest 64 iterations.
    assert_eq!(report.merged_counters().total_iters(), 2 * 63 + 64);
}

#[test]
fn replication_overhead_is_measurable() {
    let n = 64usize;
    let seq = ll18::sequence(n);
    let prog = align_with_replication(&seq, 0).expect("alignment");
    // Replicas cost memory...
    assert_eq!(prog.replicated.len(), 2);
    assert_eq!(prog.replica_elements(), 2 * n * n);
    // ...and the aligned run issues more loads+stores than shift-and-peel
    // (copy loops + recomputed statements).
    let machine = CONVEX_SPP1000;
    let layout = LayoutStrategy::CachePartition(machine.target());
    let aligned = simulate_plan(&prog, &machine, 4);
    let peel = simulate(
        &seq,
        &machine,
        &SimPlan::new(
            ExecPlan::Fused {
                grid: vec![4],
                method: CodegenMethod::StripMined,
                strip: 8,
            },
            layout,
        ),
    )
    .expect("peel sim");
    assert!(
        aligned.accesses > peel.accesses,
        "aligned {} accesses !> peeling {}",
        aligned.accesses,
        peel.accesses
    );
}

/// Figure 26's headline: peeling beats alignment/replication.
#[test]
fn fig26_shape_peeling_wins() {
    let n = 128usize;
    let seq = ll18::sequence(n);
    let prog = align_with_replication(&seq, 0).expect("alignment");
    let machine = CONVEX_SPP1000;
    let layout = LayoutStrategy::CachePartition(machine.target());
    for procs in [2usize, 8] {
        let aligned = simulate_plan(&prog, &machine, procs);
        let peel = simulate(
            &seq,
            &machine,
            &SimPlan::new(
                ExecPlan::Fused {
                    grid: vec![procs],
                    method: CodegenMethod::StripMined,
                    strip: 8,
                },
                layout,
            ),
        )
        .expect("peel sim");
        assert!(
            peel.seconds < aligned.seconds,
            "P={procs}: peeling {} !< aligned {}",
            peel.seconds,
            aligned.seconds
        );
    }
}

//! The alignment/replication baseline must also be semantics-preserving
//! (it is the *comparator* in Figure 26, so an incorrect baseline would
//! invalidate the comparison), and its overhead must be visible — that
//! overhead is the paper's whole point.

use shift_peel::baselines::{align_with_replication, run_aligned_sim, simulate_aligned};
use shift_peel::core::CodegenMethod;
use shift_peel::exec::NullSink;
use shift_peel::kernels::ll18;
use shift_peel::machine::{simulate, SimPlan, CONVEX_SPP1000};
use shift_peel::prelude::*;

#[test]
fn aligned_ll18_matches_reference() {
    let n = 40usize;
    let seq = ll18::sequence(n);
    // Reference (serial original).
    let ex = Program::new(&seq, 1).expect("analysis");
    let mut ref_mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    ref_mem.init_deterministic(&seq, 21);
    ex.run(&mut ref_mem, &ExecPlan::Serial).expect("serial");
    let want = ref_mem.snapshot_all(&seq);

    let prog = align_with_replication(&seq, 0).expect("alignment");
    for procs in [1usize, 3, 6] {
        let mut mem = Memory::new(&prog.seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&prog.seq, 21);
        let mut sinks = vec![NullSink; procs];
        run_aligned_sim(&prog, &mut mem, &mut sinks);
        // Compare the original arrays (replicas are appended after them).
        for (i, arr) in want.iter().enumerate() {
            assert_eq!(
                &mem.snapshot(&prog.seq, shift_peel::ir::ArrayId(i as u32)),
                arr,
                "array {i} at P={procs}"
            );
        }
    }
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
    let aligned = simulate_aligned(&prog, &machine, 4, layout, 42);
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
        let aligned = simulate_aligned(&prog, &machine, procs, layout, 42);
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

//! Whole-application scenario: the spem ocean circulation model — eleven
//! fusible loop sequences over 3-D fields (the largest program in the
//! paper's evaluation, Table 1). For each sequence the pipeline plans
//! fusion, verifies the transformed execution bit-for-bit, and reports
//! the simulated improvement on the Convex model.
//!
//! Run with: `cargo run --release --example ocean_model`

use shift_peel::core::CodegenMethod;
use shift_peel::kernels::spem;
use shift_peel::machine::{simulate, SimPlan, CONVEX_SPP1000};
use shift_peel::prelude::*;

fn main() {
    let app = spem::app(60, 65, 65); // the paper's size
    let machine = CONVEX_SPP1000;
    let procs = 8usize;
    let layout = LayoutStrategy::CachePartition(machine.target());

    let mut total_unfused = 0.0;
    let mut total_fused = 0.0;
    for seq in &app.sequences {
        // Plan and report.
        let deps = analyze_sequence(seq).expect("analysis");
        let plan = fusion_plan(seq, &deps, 1, CodegenMethod::StripMined, None).expect("plan");
        let d = &plan.groups[0].derivation.dims[0];
        // What the compile-time profitability evaluation (the paper's
        // Section 6 recommendation) says about this sequence.
        let profit = machine.profitability(procs);
        let verdict = if profit.should_fuse(seq, 0, seq.len()) {
            "fuse"
        } else {
            "skip"
        };

        // Verify the transformed execution.
        let ex = Program::new(seq, 1).expect("executor");
        let mut ref_mem = Memory::new(seq, LayoutStrategy::Contiguous);
        ref_mem.init_deterministic(seq, 3);
        ex.run(&mut ref_mem, &ExecPlan::Serial).expect("serial");
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 3);
        let fplan = ExecPlan::Fused {
            grid: vec![procs],
            method: CodegenMethod::StripMined,
            strip: 4,
        };
        ex.run(&mut mem, &fplan).expect("fused");
        assert_eq!(
            mem.snapshot_all(seq),
            ref_mem.snapshot_all(seq),
            "{} fused result mismatch",
            seq.name
        );

        // Simulate both versions.
        let unfused = simulate(
            seq,
            &machine,
            &SimPlan::new(ExecPlan::Blocked { grid: vec![procs] }, layout),
        )
        .expect("unfused sim");
        let fused = simulate(seq, &machine, &SimPlan::new(fplan, layout)).expect("fused sim");
        total_unfused += unfused.seconds;
        total_fused += fused.seconds;
        println!(
            "{:12} {} loops, shifts {:?}, peels {:?}: {:+.1}% (model: {verdict})",
            seq.name,
            seq.len(),
            d.shifts,
            d.peels,
            (unfused.seconds / fused.seconds - 1.0) * 100.0
        );
    }
    println!(
        "application total improvement from fusion at {procs} procs: {:+.1}%",
        (total_unfused / total_fused - 1.0) * 100.0
    );
}

//! The full optimization pipeline on LL18, the way a compiler would run
//! it: dependence analysis, fusion planning with a profitability model,
//! cache-partitioned data layout, strip-size selection from the
//! partition size, and a machine simulation comparing the transformed
//! program against the original on the Convex SPP-1000 model.
//!
//! Run with: `cargo run --release --example ll18_pipeline`

use shift_peel::cache::group_compatibility;
use shift_peel::core::analysis::render_plan;
use shift_peel::core::CodegenMethod;
use shift_peel::dep::describe_deps;
use shift_peel::kernels::ll18;
use shift_peel::machine::{simulate, SimPlan, CONVEX_SPP1000};
use shift_peel::prelude::*;

fn main() {
    let n = 512usize;
    let seq = ll18::sequence(n);
    let machine = CONVEX_SPP1000;
    let procs = 8usize;

    // 1. Analysis + planning with profitability.
    let deps = analyze_sequence(&seq).expect("analysis");
    println!("--- dependences ---\n{}", describe_deps(&seq, &deps));
    let profit = machine.profitability(procs);
    let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, Some(&profit)).expect("plan");
    println!(
        "fusion plan: {} group(s), longest {}, max shift {}, max peel {}",
        plan.groups.len(),
        plan.longest_group(),
        plan.max_shift(),
        plan.max_peel()
    );

    // 2. Cache partitioning, with compatibility verified first.
    let nests: Vec<usize> = (0..seq.len()).collect();
    match group_compatibility(&seq, &nests) {
        None => println!("all references compatible: partitions stay conflict-free"),
        Some(v) => println!("incompatible references: {v:?} (data transformation needed)"),
    }
    let layout = LayoutStrategy::CachePartition(machine.target());

    // 3. Strip size from the partition size (Section 4, last paragraph).
    let strip = profit.strip(&seq, plan.max_shift(), n as i64);
    println!(
        "strip size from partition size: {} outer iterations",
        strip.size
    );
    println!(
        "\n--- generated schedule ---\n{}",
        render_plan(&seq, &plan, strip.size)
    );

    // 4. Simulate original vs transformed on the machine model.
    let base = simulate(
        &seq,
        &machine,
        &SimPlan::new(ExecPlan::Blocked { grid: vec![1] }, layout),
    )
    .expect("baseline sim");
    let unfused = simulate(
        &seq,
        &machine,
        &SimPlan::new(ExecPlan::Blocked { grid: vec![procs] }, layout),
    )
    .expect("unfused sim");
    let fused = simulate(
        &seq,
        &machine,
        &SimPlan::new(
            ExecPlan::Fused {
                grid: vec![procs],
                method: CodegenMethod::StripMined,
                strip: strip.size,
            },
            layout,
        ),
    )
    .expect("fused sim");

    println!(
        "{} @ {procs} procs: unfused speedup {:.2} ({} misses), fused speedup {:.2} ({} misses)",
        machine.name,
        base.seconds / unfused.seconds,
        unfused.misses,
        base.seconds / fused.seconds,
        fused.misses,
    );
    println!(
        "fusion improvement: {:+.1}%",
        (unfused.seconds / fused.seconds - 1.0) * 100.0
    );
}

//! Regenerates **Figure 26**: LL18 parallelized with shift-and-peel
//! (peeling) versus the alignment/replication techniques of Callahan and
//! Appelbe & Smith, on the KSR2 and the Convex.
//!
//! Expected shape: peeling strictly above alignment/replication — the
//! replicated copy loop and recomputed statements cost memory traffic
//! and arithmetic every iteration.
//!
//! Both columns are `sp_machine::simulate` runs; the aligned one runs
//! the replicated sequence under `AlignedProgram::plan`.

use shift_peel_core::CodegenMethod;
use sp_baselines::align_with_replication;
use sp_bench::{f2, Opts, Table};
use sp_cache::LayoutStrategy;
use sp_exec::ExecPlan;
use sp_kernels::ll18;
use sp_machine::{simulate, MachineConfig, SimPlan, CONVEX_SPP1000, KSR2};
use std::sync::Arc;

fn run(machine: &MachineConfig, n: usize, procs: &[usize]) {
    let seq = ll18::sequence(n);
    let layout = LayoutStrategy::CachePartition(machine.target());
    let prog = align_with_replication(&seq, 0).expect("alignment");
    let aligned_plan = Arc::new(prog.plan().expect("aligned plan"));
    println!(
        "alignment/replication for LL18: {} replicated arrays, {} inlined reads, {} extra elements",
        prog.replicated.len(),
        prog.inlined_reads,
        prog.replica_elements()
    );
    // Baseline: unfused on one processor, cache partitioned.
    let base = simulate(
        &seq,
        machine,
        &SimPlan::new(ExecPlan::Blocked { grid: vec![1] }, layout),
    )
    .expect("baseline");

    let mut t = Table::new(
        format!("Figure 26 ({}): LL18 {n}x{n}", machine.name),
        &["procs", "peeling (shift-and-peel)", "alignment/replication"],
    );
    for &p in procs {
        let peel = simulate(
            &seq,
            machine,
            &SimPlan::new(
                ExecPlan::Fused {
                    grid: vec![p],
                    method: CodegenMethod::StripMined,
                    strip: 16,
                },
                layout,
            ),
        )
        .expect("peel sim");
        let aligned = simulate(
            &prog.seq,
            machine,
            &SimPlan {
                prederived: Some(Arc::clone(&aligned_plan)),
                ..SimPlan::new(
                    ExecPlan::Fused {
                        grid: vec![p],
                        method: aligned_plan.method,
                        strip: 1,
                    },
                    layout,
                )
            },
        )
        .expect("aligned sim");
        t.row(vec![
            p.to_string(),
            f2(base.seconds / peel.seconds),
            f2(base.seconds / aligned.seconds),
        ]);
    }
    t.print();
    println!();
}

fn main() {
    let opts = Opts::from_args();
    run(
        &KSR2,
        opts.size(512),
        &opts.procs(&[1, 2, 4, 8, 16, 24, 32, 40, 48, 56]),
    );
    run(
        &CONVEX_SPP1000,
        opts.size(1024),
        &opts.procs(&[1, 2, 4, 8, 12, 16]),
    );
}

//! Regenerates **Figure 21**: application speedups on the Convex with
//! and without cache partitioning (hydro2d and tomcatv), plus the fused
//! version without partitioning — showing conflict avoidance is needed
//! for both the original and the transformed code.

use shift_peel_core::CodegenMethod;
use sp_bench::{f2, Opts, Table};
use sp_cache::LayoutStrategy;
use sp_exec::ExecPlan;
use sp_kernels::{hydro2d, tomcatv, App};
use sp_machine::{app_speedup_sweep, sum_results, SweepOptions, CONVEX_SPP1000};
use sp_machine::{simulate, SimPlan};

fn run(app: &App, procs: &[usize]) {
    let m = &CONVEX_SPP1000;
    // Baseline: unfused, cache partitioning, 1 processor.
    let with_cp = SweepOptions {
        layout: LayoutStrategy::CachePartition(m.target()),
        strip: 0,
        method: CodegenMethod::StripMined,
        remote_bias: 0.0,
        profitability: false,
    };
    let without_cp = SweepOptions {
        layout: LayoutStrategy::Contiguous,
        ..with_cp
    };

    let base = {
        let parts: Vec<_> = app
            .sequences
            .iter()
            .map(|s| {
                simulate(
                    s,
                    m,
                    &SimPlan::new(ExecPlan::Blocked { grid: vec![1] }, with_cp.layout),
                )
                .expect("sim")
            })
            .collect();
        sum_results(&parts)
    };

    let rows_cp = app_speedup_sweep(&app.sequences, m, procs, &with_cp).expect("cp sweep");
    let rows_nocp = app_speedup_sweep(&app.sequences, m, procs, &without_cp).expect("nocp sweep");

    let mut t = Table::new(
        format!("Figure 21 ({}): speedup on Convex", app.name),
        &[
            "procs",
            "orig + cache part.",
            "orig, no cache part.",
            "fused, no cache part.",
        ],
    );
    for (rc, rn) in rows_cp.iter().zip(&rows_nocp) {
        t.row(vec![
            rc.procs.to_string(),
            f2(base.seconds / rc.unfused.seconds),
            f2(base.seconds / rn.unfused.seconds),
            f2(base.seconds / rn.fused.seconds),
        ]);
    }
    t.print();
    println!();
}

fn main() {
    let opts = Opts::from_args();
    let procs = opts.procs(&[1, 2, 4, 8, 12, 16]);
    let tom = App {
        name: "tomcatv",
        sequences: vec![tomcatv::sequence(opts.size(513))],
    };
    run(&tom, &procs);
    let hyd = hydro2d::app(opts.size(802), opts.size(320));
    run(&hyd, &procs);
}

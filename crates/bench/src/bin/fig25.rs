//! Regenerates **Figure 25**: application speedups on the Convex for
//! tomcatv, hydro2d, and spem, fused vs unfused (cache-partitioned
//! layout throughout).
//!
//! Expected shape: consistent fused improvement (paper: 10-12% tomcatv,
//! up to 23% hydro2d tapering as data fits caches, ~20% spem up to 8
//! processors with the remote-access dip at 16).

use sp_bench::{f2, Opts, Table};
use sp_kernels::{hydro2d, spem, tomcatv, App};
use sp_machine::{app_speedup_sweep, SweepOptions, CONVEX_SPP1000};

fn run(app: &App, procs: &[usize], remote_bias: f64) {
    let mut opts = SweepOptions::for_machine(&CONVEX_SPP1000);
    opts.remote_bias = remote_bias;
    // The Section 6 recommendation: evaluate profitability per sequence
    // with knowledge of data size vs cache size.
    opts.profitability = true;
    let rows = app_speedup_sweep(&app.sequences, &CONVEX_SPP1000, procs, &opts).expect("sweep");
    let mut t = Table::new(
        format!("Figure 25 ({}): Convex speedup", app.name),
        &["procs", "speedup fused", "speedup unfused", "improvement"],
    );
    for r in &rows {
        t.row(vec![
            r.procs.to_string(),
            f2(r.speedup_fused),
            f2(r.speedup_unfused),
            format!(
                "{:+.0}%",
                (r.unfused.seconds / r.fused.seconds - 1.0) * 100.0
            ),
        ]);
    }
    t.print();
    println!();
}

fn main() {
    let opts = Opts::from_args();
    let procs = opts.procs(&[1, 2, 4, 8, 16]);
    let tom = App {
        name: "tomcatv",
        sequences: vec![tomcatv::sequence(opts.size(513))],
    };
    run(&tom, &procs, 0.0);
    run(&hydro2d::app(opts.size(802), opts.size(320)), &procs, 0.0);
    // spem: 3-D fields with NUMA remote-access sensitivity (the paper's
    // 16-processor dip comes from remote memory traffic).
    run(
        &spem::app(opts.size(60), opts.size(65), opts.size(65)),
        &procs,
        1.5,
    );
}

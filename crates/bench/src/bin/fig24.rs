//! Regenerates **Figure 24**: the improvement from fusion (ratio of
//! unfused to fused execution time) for LL18 (9 arrays) and calc
//! (6 arrays) at array sizes 256/512/1024 squared, on 8 and 16 Convex
//! processors.
//!
//! Expected shape: ratios above 1 only while the per-processor data
//! exceeds the cache; LL18, touching more arrays, stays profitable at
//! sizes where calc no longer is.

use sp_bench::{f2, Opts, Table};
use sp_kernels::{calc, ll18};
use sp_machine::{improvement_ratio, SweepOptions, CONVEX_SPP1000};

fn main() {
    let opts = Opts::from_args();
    let sizes: Vec<usize> = [256usize, 512, 1024]
        .iter()
        .map(|&s| opts.size(s))
        .collect();
    for &procs in &[8usize, 16] {
        let mut t = Table::new(
            format!("Figure 24 ({procs} processors): improvement from fusion"),
            &[
                "array size",
                "LL18 (9 arrays)",
                "calc (6 arrays)",
                "profitability model",
            ],
        );
        for &n in &sizes {
            let sw = SweepOptions::for_machine(&CONVEX_SPP1000);
            let ll =
                improvement_ratio(&ll18::sequence(n), &CONVEX_SPP1000, procs, &sw).expect("LL18");
            let ca =
                improvement_ratio(&calc::sequence(n), &CONVEX_SPP1000, procs, &sw).expect("calc");
            // What the compile-time profitability evaluation would say.
            let model = CONVEX_SPP1000.profitability(procs);
            let seq_ll = ll18::sequence(n);
            let seq_ca = calc::sequence(n);
            let verdicts = format!(
                "LL18:{} calc:{}",
                if model.should_fuse(&seq_ll, 0, seq_ll.len()) {
                    "fuse"
                } else {
                    "skip"
                },
                if model.should_fuse(&seq_ca, 0, seq_ca.len()) {
                    "fuse"
                } else {
                    "skip"
                },
            );
            t.row(vec![format!("{n}x{n}"), f2(ll), f2(ca), verdicts]);
        }
        t.print();
        println!();
    }
}

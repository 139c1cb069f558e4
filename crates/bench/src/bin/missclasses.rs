//! Extension experiment: classify the fused LL18 loop's misses into
//! compulsory / capacity / conflict under each data layout.
//!
//! This makes the paper's Section 4 argument quantitative: the misses
//! cache partitioning removes are exactly the *conflict* misses, while
//! padding removes them only for lucky pad amounts.

use sp_bench::{Opts, Table};
use sp_cache::{ClassifyingCache, LayoutStrategy};
use sp_exec::{ClassifySink, Memory, Program, RunConfig};
use sp_kernels::ll18;
use sp_machine::CONVEX_SPP1000;

fn main() {
    let opts = Opts::from_args();
    let n = opts.size(512);
    let seq = ll18::sequence(n);
    let ex = Program::new(&seq, 1).expect("analysis");
    let cache = CONVEX_SPP1000.target();

    let mut t = Table::new(
        format!("Miss classes of fused LL18 ({n}x{n}) on the Convex cache"),
        &["layout", "compulsory", "capacity", "conflict", "total"],
    );
    let layouts: Vec<(String, LayoutStrategy)> = vec![
        ("contiguous".into(), LayoutStrategy::Contiguous),
        ("pad 1".into(), LayoutStrategy::InnerPad(1)),
        ("pad 9".into(), LayoutStrategy::InnerPad(9)),
        ("pad 17".into(), LayoutStrategy::InnerPad(17)),
        (
            "cache partitioning".into(),
            LayoutStrategy::CachePartition(cache),
        ),
    ];
    for (name, layout) in layouts {
        let mut mem = Memory::new(&seq, layout);
        mem.init_deterministic(&seq, 42);
        let mut sinks = vec![ClassifySink::new(ClassifyingCache::new(cache))];
        ex.run_with_sinks(&mut mem, &RunConfig::fused([1]).strip(16), &mut sinks)
            .expect("run");
        let c = sinks[0].cache.classes();
        t.row(vec![
            name,
            c.compulsory.to_string(),
            c.capacity.to_string(),
            c.conflict.to_string(),
            c.total().to_string(),
        ]);
    }
    t.print();
    println!("cache partitioning should drive the conflict column toward zero.");
}

//! Regression tests pinning the *shapes* of the paper's headline results
//! at reduced scale, so a change to the analysis, schedule, cost model or
//! cache simulator that silently breaks a reproduction fails CI rather
//! than only showing up in the figure outputs.
//!
//! These run the machine simulation, so they use small arrays; the
//! full-scale numbers live in EXPERIMENTS.md.

use shift_peel::core::CodegenMethod;
use shift_peel::kernels::{calc, ll18};
use shift_peel::machine::{
    improvement_ratio, padding_sweep, simulate, speedup_sweep, SimPlan, SweepOptions,
    CONVEX_SPP1000, KSR2,
};
use shift_peel::prelude::*;

/// Figure 22's crossover: on the KSR2 with the paper's strip, fusion of
/// calc wins at small processor counts and loses at large ones.
#[test]
fn ksr2_calc_crossover_exists() {
    let seq = calc::sequence(256);
    let mut opts = SweepOptions::for_machine(&KSR2);
    opts.strip = 16;
    let rows = speedup_sweep(&seq, &KSR2, &[1, 2, 4, 32, 56], &opts).expect("sweep");
    assert!(
        rows[0].speedup_fused > rows[0].speedup_unfused,
        "fusion must win at P=1"
    );
    let last = rows.last().unwrap();
    assert!(
        last.speedup_fused < last.speedup_unfused,
        "fusion must lose at P=56 (crossover)"
    );
}

/// Figure 23's headline: on the Convex (bigger cache, bigger miss
/// penalty, bigger arrays), fusion wins at every processor count.
#[test]
fn convex_fusion_wins_everywhere() {
    let seq = ll18::sequence(512);
    let opts = SweepOptions::for_machine(&CONVEX_SPP1000);
    let rows = speedup_sweep(&seq, &CONVEX_SPP1000, &[1, 4, 16], &opts).expect("sweep");
    for r in &rows {
        assert!(
            r.speedup_fused > r.speedup_unfused,
            "P={}: fused {} !> unfused {}",
            r.procs,
            r.speedup_fused,
            r.speedup_unfused
        );
    }
}

/// Figure 24's size split: small arrays don't profit, large ones do.
#[test]
fn improvement_grows_with_array_size() {
    let opts = SweepOptions::for_machine(&CONVEX_SPP1000);
    let small = improvement_ratio(&calc::sequence(128), &CONVEX_SPP1000, 8, &opts).unwrap();
    let large = improvement_ratio(&calc::sequence(512), &CONVEX_SPP1000, 8, &opts).unwrap();
    assert!(small < 1.05, "128x128 should not profit much: {small}");
    assert!(large > 1.1, "512x512 must profit: {large}");
    assert!(large > small);
}

/// Figures 18/20: cache partitioning is at least as good as the best
/// padding and far better than the worst.
#[test]
fn partitioning_dominates_padding() {
    let seq = ll18::sequence(192);
    let sweep = padding_sweep(&seq, &CONVEX_SPP1000, &[1, 5, 9, 13, 17], 8).expect("sweep");
    let best = sweep.rows.iter().map(|r| r.misses_fused).min().unwrap();
    let worst = sweep.rows.iter().map(|r| r.misses_fused).max().unwrap();
    assert!(worst > best, "padding must vary");
    assert!(
        sweep.partitioned_fused as f64 <= best as f64 * 1.05,
        "partitioned {} vs best padding {}",
        sweep.partitioned_fused,
        best
    );
}

/// The fused program's misses must undercut the unfused program's when
/// the data exceeds the cache (the entire premise of the paper).
#[test]
fn fusion_reduces_misses_when_data_exceeds_cache() {
    let seq = ll18::sequence(512); // 9 x 2 MB >> 1 MB
    let layout = LayoutStrategy::CachePartition(CONVEX_SPP1000.target());
    let unfused = simulate(
        &seq,
        &CONVEX_SPP1000,
        &SimPlan::new(ExecPlan::Blocked { grid: vec![1] }, layout),
    )
    .unwrap();
    let fused = simulate(
        &seq,
        &CONVEX_SPP1000,
        &SimPlan::new(
            ExecPlan::Fused {
                grid: vec![1],
                method: CodegenMethod::StripMined,
                strip: 16,
            },
            layout,
        ),
    )
    .unwrap();
    assert!(
        (fused.misses as f64) < 0.8 * unfused.misses as f64,
        "fused {} !<< unfused {}",
        fused.misses,
        unfused.misses
    );
}

/// Miss classification: partitioning eliminates conflict misses.
#[test]
fn partitioning_eliminates_conflict_misses() {
    use shift_peel::cache::ClassifyingCache;
    use shift_peel::exec::ClassifySink;
    // Power-of-two arrays (256*256*8 = 512 KB) packed contiguously: on
    // the 1 MB direct-mapped Convex cache every other array aliases.
    let seq = ll18::sequence(256);
    let ex = Program::new(&seq, 1).unwrap();
    let classes = |layout: LayoutStrategy| {
        let mut mem = Memory::new(&seq, layout);
        mem.init_deterministic(&seq, 42);
        let mut sinks = vec![ClassifySink::new(ClassifyingCache::new(
            CONVEX_SPP1000.target(),
        ))];
        ex.run_with_sinks(&mut mem, &RunConfig::fused([1]).strip(8), &mut sinks)
            .unwrap();
        sinks[0].cache.classes()
    };
    let contiguous = classes(LayoutStrategy::Contiguous);
    let partitioned = classes(LayoutStrategy::CachePartition(CONVEX_SPP1000.target()));
    assert!(
        contiguous.conflict > 0,
        "contiguous power-of-two arrays must conflict"
    );
    assert!(
        partitioned.conflict * 20 <= contiguous.conflict,
        "partitioned conflict {} vs contiguous {}",
        partitioned.conflict,
        contiguous.conflict
    );
    // Compulsory misses are layout-independent (same data volume).
    let ratio = partitioned.compulsory as f64 / contiguous.compulsory as f64;
    assert!((0.95..1.05).contains(&ratio), "compulsory drifted: {ratio}");
}

//! Cache-partitioning integration properties (Section 4): partitioned
//! layouts map every array into its own partition, avoid the pathological
//! conflict cases that contiguous power-of-two layouts hit, and realize
//! the fused loop's locality.

use shift_peel::cache::{CacheConfig, CacheHierarchy, LayoutStrategy, MemoryLayout};
use shift_peel::exec::CacheSink;
use shift_peel::kernels::ll18;
use shift_peel::prelude::*;

fn misses(seq: &LoopSequence, layout: LayoutStrategy, cache: CacheConfig, fused: bool) -> u64 {
    let ex = Program::new(seq, 1).expect("analysis");
    let mut mem = Memory::new(seq, layout);
    mem.init_deterministic(seq, 2);
    let cfg = if fused {
        RunConfig::fused([1]).strip(8)
    } else {
        RunConfig::blocked([1])
    };
    let mut sinks = vec![CacheSink::new(CacheHierarchy::new(&[cache]))];
    ex.run_with_sinks(&mut mem, &cfg, &mut sinks).expect("run");
    sinks[0].stats()[0].misses
}

/// Power-of-two arrays laid out contiguously all map on top of each
/// other; cache partitioning must beat that decisively under fusion.
#[test]
fn partitioning_beats_contiguous_pow2() {
    let n = 128usize; // 9 arrays x 128 KB, 64 KB cache
    let seq = ll18::sequence(n);
    let cache = CacheConfig::new(64 << 10, 64, 1);
    let contiguous = misses(&seq, LayoutStrategy::Contiguous, cache, true);
    let partitioned = misses(&seq, LayoutStrategy::CachePartition(cache), cache, true);
    assert!(
        (partitioned as f64) < 0.8 * contiguous as f64,
        "partitioned {partitioned} !<< contiguous {contiguous}"
    );
}

/// Fusion + partitioning must beat the unfused version when the data
/// exceeds the cache (the reuse fusion captures is the whole point).
#[test]
fn fusion_with_partitioning_reduces_misses() {
    let n = 128usize;
    let seq = ll18::sequence(n);
    let cache = CacheConfig::new(64 << 10, 64, 1);
    let layout = LayoutStrategy::CachePartition(cache);
    let unfused = misses(&seq, layout, cache, false);
    let fused = misses(&seq, layout, cache, true);
    assert!(fused < unfused, "fused {fused} !< unfused {unfused}");
}

/// The greedy layout puts each of LL18's nine arrays in its own
/// partition, for both direct-mapped and 2-way caches.
#[test]
fn nine_arrays_nine_partitions() {
    let seq = ll18::sequence(64);
    for assoc in [1usize, 2] {
        let cache = CacheConfig::new(256 << 10, 64, assoc);
        let layout = MemoryLayout::build(&seq.arrays, 8, LayoutStrategy::CachePartition(cache), 0);
        let sp = (cache.capacity / 9) as u64;
        let mut parts: Vec<u64> = layout
            .placements
            .iter()
            .map(|p| {
                let mapped = p.start % cache.map_space() as u64;
                // Which partition-group target this start corresponds to.
                mapped / sp.max(1)
            })
            .collect();
        parts.sort_unstable();
        // Direct-mapped: all 9 distinct. 2-way: pairs may share a target.
        let distinct = {
            let mut d = parts.clone();
            d.dedup();
            d.len()
        };
        if assoc == 1 {
            assert_eq!(distinct, 9, "assoc 1: {parts:?}");
        } else {
            assert!(distinct >= 5, "assoc 2: {parts:?}");
        }
    }
}

/// Inner padding is erratic: the best and worst padding amounts differ
/// substantially, while the partitioned point is at least as good as
/// every padding within 5%.
#[test]
fn padding_is_erratic_partitioning_is_not() {
    let n = 128usize;
    let seq = ll18::sequence(n);
    let cache = CacheConfig::new(64 << 10, 64, 1);
    let padded: Vec<u64> = (0..=8)
        .map(|p| misses(&seq, LayoutStrategy::InnerPad(p), cache, true))
        .collect();
    let best = *padded.iter().min().unwrap();
    let worst = *padded.iter().max().unwrap();
    assert!(
        worst as f64 > 1.2 * best as f64,
        "padding not erratic: {padded:?}"
    );
    let partitioned = misses(&seq, LayoutStrategy::CachePartition(cache), cache, true);
    assert!(
        partitioned as f64 <= best as f64 * 1.05,
        "partitioned {partitioned} worse than best padding {best}"
    );
}

/// The partition-coupled strip: LL18's nine arrays share the 1 MB Convex
/// cache, so a partition holds 1 MiB / 9 / 4 KiB = 28 rows of 512, less
/// the shift of 2: 26 rows a strip.
#[test]
fn ll18_cost_strips_fill_one_of_nine_partitions() {
    let seq = ll18::sequence(512);
    let planned = Planner::fused(1).plan(&seq).expect("plan");
    let max_shift = planned.plan.groups[0].derivation.max_shift();
    assert_eq!(max_shift, 2);
    let strip = shift_peel::machine::CONVEX_SPP1000
        .profitability(1)
        .strip(&seq, max_shift, 512);
    assert_eq!(strip.size, 26);
}

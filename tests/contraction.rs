//! Array contraction integration: contracting intermediate arrays after
//! fusion must preserve every live-out array bit-for-bit (the contracted
//! arrays' final contents are dead by definition) and must shrink the
//! fused loop's cache footprint. Arrays whose halo (initial) values are
//! read must be refused.

use shift_peel::cache::{CacheConfig, CacheHierarchy, LayoutStrategy};
use shift_peel::core::analysis::{derive_levels, find_contractable, ContractionCandidate};
use shift_peel::core::CodegenMethod;
use shift_peel::exec::CacheSink;
use shift_peel::kernels::ll18;
use shift_peel::prelude::*;
use sp_ir::ArrayId;

/// A 2-D smoothing pipeline with shrinking interiors so every stencil
/// read stays inside the producer's written region: src -> t1 -> t2 ->
/// out. t1 and t2 are contractable intermediates.
fn pipeline(n: usize) -> LoopSequence {
    let mut b = SeqBuilder::new("pipeline");
    let src = b.array("src", [n, n]);
    let t1 = b.array("t1", [n, n]);
    let t2 = b.array("t2", [n, n]);
    let out = b.array("out", [n, n]);
    let m = n as i64;
    b.nest("L1", [(1, m - 2), (1, m - 2)], |x| {
        let r = (x.ld(src, [0, 1]) + x.ld(src, [0, -1])) * 0.5;
        x.assign(t1, [0, 0], r);
    });
    b.nest("L2", [(2, m - 3), (2, m - 3)], |x| {
        let r =
            (x.ld(t1, [1, 0]) + x.ld(t1, [-1, 0]) + x.ld(t1, [0, 1]) + x.ld(t1, [0, -1])) * 0.25;
        x.assign(t2, [0, 0], r);
    });
    b.nest("L3", [(2, m - 3), (2, m - 3)], |x| {
        let r = x.ld(t2, [0, 0]) + x.ld(src, [0, 0]);
        x.assign(out, [0, 0], r);
    });
    b.finish()
}

fn candidates(seq: &LoopSequence, live: &[ArrayId]) -> Vec<ContractionCandidate> {
    let deps = analyze_sequence(seq).expect("analysis");
    let deriv = derive_levels(&deps, seq.len(), 1).expect("derivation");
    find_contractable(seq, &deps, &deriv, live)
}

/// Runs the pipeline fused-serial with optional contraction, returning
/// (out snapshot, misses).
fn run_pipeline(n: usize, strip: i64, contract: bool, cache: CacheConfig) -> (Vec<f64>, u64) {
    let seq = pipeline(n);
    let ex = Program::new(&seq, 1).expect("executor");
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&seq, 33);
    if contract {
        let cands = candidates(&seq, &[ArrayId(0), ArrayId(3)]);
        assert_eq!(cands.len(), 2, "t1 and t2 must contract: {cands:?}");
        for c in &cands {
            mem.layout.contract(c.array, c.window(strip));
        }
    }
    let cfg = RunConfig::fused([1]).strip(strip);
    let mut sinks = vec![CacheSink::new(CacheHierarchy::new(&[cache]))];
    ex.run_with_sinks(&mut mem, &cfg, &mut sinks).expect("run");
    (mem.snapshot(&seq, ArrayId(3)), sinks[0].stats()[0].misses)
}

#[test]
fn contraction_preserves_live_out() {
    let cache = CacheConfig::new(32 << 10, 64, 1);
    for strip in [1i64, 4, 16] {
        let (want, _) = run_pipeline(96, strip, false, cache);
        let (got, _) = run_pipeline(96, strip, true, cache);
        assert_eq!(got, want, "strip {strip}");
    }
}

#[test]
fn contraction_reduces_misses() {
    // 4 arrays of 192x192 f64 = 1.2 MB against a 32 KB cache; dropping
    // t1/t2 to a handful of planes must reduce misses.
    let cache = CacheConfig::new(32 << 10, 64, 1);
    let (_, base) = run_pipeline(192, 4, false, cache);
    let (_, contracted) = run_pipeline(192, 4, true, cache);
    assert!(
        contracted < base,
        "contracted misses {contracted} !< uncontracted {base}"
    );
}

#[test]
fn contraction_window_is_tight() {
    // A window two planes below the computed one must corrupt results —
    // guards against the window formula silently over-providing.
    let n = 96usize;
    let strip = 4i64;
    let cache = CacheConfig::new(32 << 10, 64, 1);
    let (want, _) = run_pipeline(n, strip, false, cache);
    let seq = pipeline(n);
    let cands = candidates(&seq, &[ArrayId(0), ArrayId(3)]);
    let ex = Program::new(&seq, 1).expect("executor");
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&seq, 33);
    for c in &cands {
        mem.layout
            .contract(c.array, c.window(strip).saturating_sub(2).max(1));
    }
    let plan = ExecPlan::Fused {
        grid: vec![1],
        method: CodegenMethod::StripMined,
        strip,
    };
    ex.run(&mut mem, &plan).expect("run");
    assert_ne!(
        mem.snapshot(&seq, ArrayId(3)),
        want,
        "undersized window should corrupt the result"
    );
}

#[test]
fn ll18_halo_reads_refuse_contraction() {
    // LL18's za/zb look like intermediates but their stencil reads touch
    // halo elements the producer never writes (zb[k+1] at the last row,
    // za[k][0] at the first column) — contraction must refuse them.
    let seq = ll18::sequence(64);
    let live: Vec<ArrayId> = (0..7).map(ArrayId).collect();
    let cands = candidates(&seq, &live);
    assert!(cands.is_empty(), "{cands:?}");
}

#[test]
fn contraction_memory_saving_reported() {
    let n = 128usize;
    let seq = pipeline(n);
    let cands = candidates(&seq, &[ArrayId(0), ArrayId(3)]);
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    let mut saved = 0usize;
    for c in &cands {
        saved += mem.layout.contract(c.array, c.window(4));
    }
    // Each of t1/t2 keeps a handful of its 128 planes: > 90% of the two
    // arrays' storage is recovered.
    assert!(saved > 2 * n * n * 8 * 9 / 10, "saved {saved}");
}

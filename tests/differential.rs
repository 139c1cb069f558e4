//! Differential fuzzing of the execution backends and schedules.
//!
//! A seeded generator produces random loop sequences with uniform affine
//! references (1-4 nests, 1-3 dimensions, occasional serial recurrences),
//! and every program is run as original / blocked / shift-and-peel fused
//! (strip-mined and direct), under the interpreter, the compiled tape
//! backend, and the row-runner SIMD backend, on the deterministic
//! simulator and the pooled threaded runtime. All of it must agree
//! **bit for bit** with the serial interpreted reference — f64 results,
//! work counters, and (through the simulator's cache sinks)
//! per-processor cache miss counts. A deterministic sweep additionally
//! pins the SIMD backend at every peel width 0..=3 against inner trips on
//! either side of the row runner's chunk width, so short, exact and
//! ragged chunks are always exercised.

use proptest::prelude::*;
use shift_peel::core::CodegenMethod;
use shift_peel::exec::ScopedExecutor;
use shift_peel::exec::{CacheSink, ProgramTape};
use shift_peel::prelude::*;
use sp_cache::{CacheConfig, CacheHierarchy, CacheStats};
use sp_ir::{BinOp, UnaryOp};

/// Splitmix64: one u64 seed fans out into the whole program shape, so a
/// failing case reproduces from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random chain: nest `j` writes `a[j+1]` from 1-3 uniform reads of
/// `a[j]` (offsets in [-2, 2] per dimension) combined by a random mix of
/// shapes: the four arithmetic operators with the running value on either
/// side and constants on either side (what lowering folds into two-operator
/// chains), sums and differences of a chain that lowering folds into
/// three-operator folds — `e ± c * (p ± q)` and `((p ± q) ± c) ± e` —
/// and `abs` / `sqrt` / `min` / `max` nodes between them, which
/// end one chain and let the next begin. Divisors are constants or
/// `|x| + 1`, so every value stays finite and `==` compares results. A
/// nest then has a 50% chance of an in-place update — its destination read
/// at distance 0, as the left or the right operand — and a 25% chance of a
/// self-read recurrence that makes it serial.
fn build(seed: u64) -> LoopSequence {
    let mut r = Rng(seed);
    let nnests = 1 + r.below(4) as usize;
    let depth = 1 + r.below(3) as usize;
    let n = 16 + r.below(9) as usize;
    let mut b = SeqBuilder::new("diff");
    let arrays: Vec<ArrayId> = (0..=nnests)
        .map(|i| b.array(format!("a{i}"), vec![n; depth]))
        .collect();
    let bounds = vec![(4i64, n as i64 - 5); depth];
    let node = |op, a: Expr, b: Expr| Expr::Binary(op, Box::new(a), Box::new(b));
    let abs = |a: Expr| Expr::Unary(UnaryOp::Abs, Box::new(a));
    for j in 0..nnests {
        let (src, dst) = (arrays[j], arrays[j + 1]);
        let nreads = 1 + r.below(3) as usize;
        let offs: Vec<Vec<i64>> = (0..nreads)
            .map(|_| (0..depth).map(|_| r.below(5) as i64 - 2).collect())
            .collect();
        let shapes: Vec<u64> = (1..nreads).map(|_| r.below(16)).collect();
        let in_place = r.below(4);
        let serial = r.below(4) == 0;
        b.nest(format!("L{j}"), bounds.clone(), |x| {
            let mut e = x.ld(src, &offs[0]);
            for (o, shape) in offs[1..].iter().zip(&shapes) {
                let ld = x.ld(src, o);
                e = match shape {
                    0 => e + ld,
                    1 => e * 0.5 + ld,
                    // A product on either side of a sum, and of a
                    // difference.
                    2 => e + ld * Expr::Const(0.25),
                    3 => ld * (Expr::Const(0.5) + Expr::Const(0.25)) + e,
                    4 => ld - e,
                    5 => e - ld * 0.5,
                    // Quotients in both orders, and a chain under one.
                    6 => e / (abs(ld) + 1.0),
                    7 => (e - ld) / 4.0,
                    8 => ld / 2.0 - e,
                    // Nodes no chain crosses.
                    9 => node(BinOp::Max, e * 0.5, ld) - 0.25,
                    10 => 1.5 - node(BinOp::Min, e, ld.clone()) * ld,
                    11 => Expr::Unary(UnaryOp::Sqrt, Box::new(abs(e))) + ld,
                    // A chain and the sum or difference consuming it,
                    // with the first read as a second row.
                    12 => e - (ld - x.ld(src, &offs[0])) * 0.5,
                    13 => 0.25 * (ld + x.ld(src, &offs[0])) + e,
                    14 => e + (ld - x.ld(src, &offs[0]) + 0.75),
                    _ => ld + x.ld(src, &offs[0]) - 0.5 - e,
                };
            }
            let here = vec![0i64; depth];
            e = match in_place {
                0 => x.ld(dst, &here) + e * 0.125,
                1 => e * 0.125 - x.ld(dst, &here),
                _ => e,
            };
            if serial {
                let mut back = vec![0i64; depth];
                back[0] = -1;
                e = e + x.ld(dst, back);
            }
            x.assign(dst, here, e);
        });
    }
    b.finish()
}

fn run_config(
    seq: &LoopSequence,
    prog: &Program<'_>,
    cfg: &RunConfig,
    pooled: Option<&mut PooledExecutor>,
) -> (RunReport, Vec<Vec<f64>>) {
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, 5);
    let report = match pooled {
        Some(ex) => ex.run(prog, &mut mem, cfg).expect("pooled run"),
        None => SimExecutor.run(prog, &mut mem, cfg).expect("sim run"),
    };
    (report, mem.snapshot_all(seq))
}

/// Runs `cfg` on the simulator with a 16 KiB direct-mapped cache per
/// processor: each processor's cache counters, and the results.
fn run_cached(
    seq: &LoopSequence,
    prog: &Program<'_>,
    cfg: &RunConfig,
) -> (Vec<Vec<CacheStats>>, Vec<Vec<f64>>) {
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, 5);
    let cache = CacheConfig::new(16 * 1024, 64, 1);
    let mut sinks: Vec<CacheSink> = (0..cfg.plan().procs())
        .map(|_| CacheSink::new(CacheHierarchy::new(&[cache])))
        .collect();
    prog.run_with_sinks(&mut mem, cfg, &mut sinks)
        .expect("cache-sink run");
    (
        sinks.iter().map(CacheSink::stats).collect(),
        mem.snapshot_all(seq),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_and_schedules_agree(seed in any::<u64>()) {
        let seq = build(seed);
        let prog = Program::new(&seq, 1).expect("analysis");
        let procs = 1 + (seed % 4) as usize;
        let steps = 2;

        // The ground truth: serial execution by the interpreter.
        let (_, want) = run_config(&seq, &prog, &RunConfig::serial().steps(steps), None);

        let configs = [
            ("serial", RunConfig::serial().steps(steps)),
            ("blocked", RunConfig::blocked([procs]).steps(steps)),
            ("fused-sm3", RunConfig::fused([procs]).strip(3).steps(steps)),
            ("fused-sm-max", RunConfig::fused([procs]).steps(steps)),
            ("fused-direct", RunConfig::fused([procs]).method(CodegenMethod::Direct).steps(steps)),
        ];
        let mut pooled = PooledExecutor::new(procs);
        for (name, cfg) in &configs {
            let (ri, si) = run_config(&seq, &prog, cfg, None);
            let ccfg = cfg.clone().backend(Backend::Compiled);
            let (rc, sc) = run_config(&seq, &prog, &ccfg, None);
            let vcfg = cfg.clone().backend(Backend::Simd);
            let (rv, sv) = run_config(&seq, &prog, &vcfg, None);
            prop_assert_eq!(&si, &want, "sim/interp {} diverged (seed {})", name, seed);
            prop_assert_eq!(&sc, &want, "sim/compiled {} diverged (seed {})", name, seed);
            prop_assert_eq!(&sv, &want, "sim/simd {} diverged (seed {})", name, seed);
            // Work accounting is backend-independent, per processor
            // (ExecCounters equality ignores vec_iters, which only the
            // SIMD backend populates).
            prop_assert_eq!(
                ri.merged_counters(), rc.merged_counters(),
                "counters diverged for {} (seed {})", name, seed
            );
            prop_assert_eq!(
                ri.merged_counters(), rv.merged_counters(),
                "simd counters diverged for {} (seed {})", name, seed
            );
            for (wi, wc) in ri.workers.iter().zip(&rc.workers) {
                prop_assert_eq!(&wi.counters, &wc.counters, "proc {} of {}", wi.proc, name);
            }
            for (wi, wv) in ri.workers.iter().zip(&rv.workers) {
                prop_assert_eq!(&wi.counters, &wv.counters, "simd proc {} of {}", wi.proc, name);
            }
            // Threaded runtimes see the same plans through real barriers.
            if *name != "serial" {
                let (_, sp) = run_config(&seq, &prog, cfg, Some(&mut pooled));
                let (_, spc) = run_config(&seq, &prog, &ccfg, Some(&mut pooled));
                let (_, spv) = run_config(&seq, &prog, &vcfg, Some(&mut pooled));
                prop_assert_eq!(&sp, &want, "pooled/interp {} diverged (seed {})", name, seed);
                prop_assert_eq!(&spc, &want, "pooled/compiled {} diverged (seed {})", name, seed);
                prop_assert_eq!(&spv, &want, "pooled/simd {} diverged (seed {})", name, seed);
            }
        }

        // Address streams are identical, so per-processor cache miss
        // counts must match exactly between backends.
        let base = RunConfig::fused([procs]).strip(3).steps(steps);
        let (ki, si) = run_cached(&seq, &prog, &base);
        let (kc, sc) = run_cached(&seq, &prog, &base.clone().backend(Backend::Compiled));
        let (kv, sv) = run_cached(&seq, &prog, &base.clone().backend(Backend::Simd));
        prop_assert_eq!(&si, &sc, "cache-sink runs diverged (seed {})", seed);
        prop_assert_eq!(&si, &sv, "simd cache-sink run diverged (seed {})", seed);
        for (p, (wi, wc)) in ki.iter().zip(&kc).enumerate() {
            prop_assert_eq!(wi, wc, "proc {} miss counts (seed {})", p, seed);
        }
        prop_assert!(ki.iter().any(|k| k[0].accesses > 0), "cache stats present");
        for (p, (wi, wv)) in ki.iter().zip(&kv).enumerate() {
            prop_assert_eq!(wi, wv, "simd proc {} misses (seed {})", p, seed);
        }
    }
}

/// The programs `backends_and_schedules_agree` draws — the same seeds,
/// from its name — lower to folds: the fuzz runs the fold loops against
/// the interpreter, not only the chains. The 24 programs read 11 folds
/// when shapes 12–15 were added; the floor is about half of that.
#[test]
fn fuzzed_programs_lower_to_folds() {
    let mut rng = proptest::test_runner::TestRng::deterministic("backends_and_schedules_agree");
    let folds: u64 = (0..24)
        .map(|_| {
            let seq = build(any::<u64>().new_value(&mut rng));
            let layout = Memory::new(&seq, LayoutStrategy::Contiguous).layout;
            ProgramTape::lower(&seq, &layout).fold_count()
        })
        .sum();
    assert!(folds >= 6, "{folds} folds among the fuzzed programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adaptive-schedule differential: stealing at two chunk sizes must
    /// be bit-for-bit equal to the static interpreter path over the
    /// same corpus — f64 results against the serial reference, per-proc
    /// work counters (attributed to chunk *owners*, so the racy threaded
    /// runtimes must report exactly what the deterministic simulator
    /// reports at the same schedule), across all three backends, the
    /// one-run and persistent pools, 1-4 processors, and per-proc cache
    /// miss parity through the simulator's chunked path.
    #[test]
    fn adaptive_schedules_agree(seed in any::<u64>()) {
        let seq = build(seed);
        let prog = Program::new(&seq, 1).expect("analysis");
        let procs = 1 + (seed % 4) as usize;
        let steps = 2;
        let (_, want) = run_config(&seq, &prog, &RunConfig::serial().steps(steps), None);
        let mut pooled = PooledExecutor::new(procs);
        // The finest legal chunks (1 clamps up to the Nt floor) every
        // time, and a chunk override rotated with the seed: the runtime
        // default (four chunks per block), a fine chunk, a coarse one.
        // `check_blocks` clamps nothing — illegal chunks would error, so
        // every accepted size is Nt-legal by construction.
        for chunk in [Some(1), [None, Some(2), Some(5)][(seed % 3) as usize]] {
            let mut cfg = RunConfig::fused([procs])
                .strip(3)
                .steps(steps)
                .schedule(Schedule::Stealing)
                .steal_seed(seed ^ 0xC0FFEE);
            if let Some(c) = chunk {
                cfg = cfg.chunk(c);
            }
            let (ri, si) = run_config(&seq, &prog, &cfg, None);
            let ccfg = cfg.clone().backend(Backend::Compiled);
            let (rc, sc) = run_config(&seq, &prog, &ccfg, None);
            let vcfg = cfg.clone().backend(Backend::Simd);
            let (rv, sv) = run_config(&seq, &prog, &vcfg, None);
            let name = Schedule::Stealing.name();
            prop_assert_eq!(&si, &want, "sim/interp {} diverged (seed {})", name, seed);
            prop_assert_eq!(&sc, &want, "sim/compiled {} diverged (seed {})", name, seed);
            prop_assert_eq!(&sv, &want, "sim/simd {} diverged (seed {})", name, seed);
            for (wi, wc) in ri.workers.iter().zip(&rc.workers) {
                prop_assert_eq!(&wi.counters, &wc.counters, "{} proc {}", name, wi.proc);
            }
            for (wi, wv) in ri.workers.iter().zip(&rv.workers) {
                prop_assert_eq!(&wi.counters, &wv.counters, "simd {} proc {}", name, wi.proc);
            }
            // Threaded runtimes: same results, and per-proc owner
            // counters identical to the simulator's.
            let (rp, sp) = run_config(&seq, &prog, &cfg, Some(&mut pooled));
            prop_assert_eq!(&sp, &want, "pooled {} diverged (seed {})", name, seed);
            prop_assert_eq!(rp.schedule.as_str(), name, "report schedule label");
            for (wi, wp) in ri.workers.iter().zip(&rp.workers) {
                prop_assert_eq!(
                    &wi.counters, &wp.counters,
                    "pooled {} proc {} counters (seed {})", name, wi.proc, seed
                );
            }
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 5);
            let rs = ScopedExecutor.run(&prog, &mut mem, &cfg).expect("scoped run");
            prop_assert_eq!(&mem.snapshot_all(&seq), &want, "scoped {} (seed {})", name, seed);
            for (wi, ws) in ri.workers.iter().zip(&rs.workers) {
                prop_assert_eq!(
                    &wi.counters, &ws.counters,
                    "scoped {} proc {} counters (seed {})", name, wi.proc, seed
                );
            }
            // Per-proc miss parity at this schedule: the chunked sim
            // path feeds each chunk's accesses to its owner's cache, so
            // all three backends must report identical per-processor
            // miss counts — the same contract the static path pins.
            // (Miss counts are *not* compared across schedules: chunking
            // restarts strip-mining at chunk boundaries, which reorders
            // the access stream as legally as changing `--strip` does.)
            let (rki, ski) = run_cached(&seq, &prog, &cfg);
            let (rkc, skc) = run_cached(&seq, &prog, &ccfg);
            let (rkv, skv) = run_cached(&seq, &prog, &vcfg);
            prop_assert_eq!(&ski, &want, "cache-sink {} diverged (seed {})", name, seed);
            prop_assert_eq!(&ski, &skc, "cache-sink {} compiled diverged (seed {})", name, seed);
            prop_assert_eq!(&ski, &skv, "cache-sink {} simd diverged (seed {})", name, seed);
            for (p, (wi, wc)) in rki.iter().zip(&rkc).enumerate() {
                prop_assert_eq!(
                    wi, wc,
                    "{} proc {} miss counts interp/compiled (seed {})", name, p, seed
                );
            }
            prop_assert!(rki.iter().any(|k| k[0].accesses > 0), "cache stats present");
            for (p, (wi, wv)) in rki.iter().zip(&rkv).enumerate() {
                prop_assert_eq!(
                    wi, wv,
                    "{} proc {} miss counts interp/simd (seed {})", name, p, seed
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// API-redesign differential: across the same corpus the backends
    /// fuzz over, the pipeline's `Planner` must derive exactly the plans
    /// the seed free-function path (`fusion_plan` / `singleton_plan`)
    /// does, for both codegen methods, and surface the same dependence
    /// analysis.
    #[test]
    fn pipeline_plans_equal_seed_path_plans(seed in any::<u64>()) {
        let seq = build(seed);
        let deps = analyze_sequence(&seq).expect("analysis");
        for method in [CodegenMethod::StripMined, CodegenMethod::Direct] {
            let direct = fusion_plan(&seq, &deps, 1, method, None).expect("seed path");
            let planned = Planner::fused(1).method(method).plan(&seq).expect("pipeline");
            prop_assert_eq!(&*planned.plan, &direct, "fused plan diverged (seed {})", seed);
            prop_assert_eq!(&*planned.deps, &deps, "dependence diverged (seed {})", seed);
        }
        let single = shift_peel::core::singleton_plan(&seq, &deps, 1).expect("seed path");
        let planned = Planner::unfused(1).plan(&seq).expect("pipeline");
        prop_assert_eq!(&*planned.plan, &single, "unfused plan diverged (seed {})", seed);
    }
}

/// The sweep's sequence: `depth` nests deep, inner trip `trip`, reads at
/// `±w` in its second nest.
fn peel_sweep(w: i64, trip: usize, depth: usize) -> LoopSequence {
    let n = trip + 8; // bounds (4, n - 5) give exactly `trip` iterations
    let mut b = SeqBuilder::new("peelsweep");
    // The last dimension has the trip under test; a 2-D nest puts
    // 8 rows of it under a fused outer loop.
    let inner = (4, n as i64 - 5);
    let (dims, bounds) = match depth {
        1 => (vec![n], vec![inner]),
        _ => (vec![16, n], vec![(4, 11), inner]),
    };
    let at = |o: i64| match depth {
        1 => vec![o],
        _ => vec![o, 0],
    };
    let a = b.array("a", dims.clone());
    let c = b.array("c", dims);
    b.nest("L1", bounds.clone(), |x| {
        let r = x.ld(a, at(0)) * 0.5;
        x.assign(a, at(0), r);
    });
    // Reads at +/- w force a shift of w and peel of w when fused.
    b.nest("L2", bounds, |x| {
        let r = x.ld(a, at(w)) + x.ld(a, at(-w));
        x.assign(c, at(0), r);
    });
    b.finish()
}

/// Deterministic pin of the row runner's chunking and peel handling:
/// every peel width 0..=3 crossed with inner trips around the old lane
/// width (7, 8, 9, 19) and around the chunk boundary of the row width
/// the tape reports for a long trip (`W - 1`, `W`, `W + 1`, `2 * W + 3`:
/// "one short chunk", "exactly one", "one and a column", "two and a
/// tail"), as a 1-D nest (the chunked loop is the fused, blocked one)
/// and a 2-D nest (chunks along rows, blocks and peels across them),
/// under the static schedule and stealing at its default chunks and at
/// the finest legal ones (1 clamps up to the Nt floor).
#[test]
fn simd_peel_widths_and_ragged_trips_match_interp() {
    let long = peel_sweep(0, 1 << 16, 1);
    let layout = Memory::new(&long, LayoutStrategy::Contiguous).layout;
    let wide = ProgramTape::lower(&long, &layout).max_row_width();
    assert!(
        wide < 1 << 16,
        "the L1 budget, not the trip, sets the width"
    );
    for (w, trip, depth) in (0..=3i64)
        .flat_map(|w| [7, 8, 9, 19, wide - 1, wide, wide + 1, 2 * wide + 3].map(|t| (w, t)))
        .flat_map(|(w, t)| [1usize, 2].map(|d| (w, t, d)))
    {
        let seq = peel_sweep(w, trip, depth);
        let prog = Program::new(&seq, 1).expect("analysis");
        let (_, want) = run_config(&seq, &prog, &RunConfig::serial().steps(3), None);
        for procs in [1usize, 2] {
            let mut pooled = PooledExecutor::new(procs);
            let stat = RunConfig::fused([procs]).steps(3);
            let stealing = stat.clone().schedule(Schedule::Stealing);
            for cfg in [stat, stealing.clone(), stealing.chunk(1)] {
                let at = format!(
                    "w={w} trip={trip} depth={depth} P={procs} {} chunk {:?}",
                    cfg.schedule_choice().name(),
                    cfg.chunk_size()
                );
                let (ri, si) = run_config(&seq, &prog, &cfg, None);
                let vcfg = cfg.clone().backend(Backend::Simd);
                let (rv, sv) = run_config(&seq, &prog, &vcfg, None);
                assert_eq!(si, want, "interp {at}");
                assert_eq!(sv, want, "simd {at}");
                assert_eq!(ri.merged_counters(), rv.merged_counters(), "counters {at}");
                let (_, sp) = run_config(&seq, &prog, &vcfg, Some(&mut pooled));
                assert_eq!(sp, want, "pooled simd {at}");
            }
        }
    }
}

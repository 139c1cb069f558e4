//! Runtime comparison on real host threads: spawn-per-timestep
//! ([`ScopedExecutor`](sp_exec::ScopedExecutor)) versus the persistent worker pool
//! ([`PooledExecutor`]) versus self-scheduling of the unfused program
//! (the pool under `Schedule::Stealing` over four-iteration chunks),
//! across timestep counts — plus the backend
//! ablation: the pooled run repeated with loop bodies lowered to
//! row programs instead of walked as trees by the interpreter.
//!
//! The scoped runtime pays thread creation and barrier construction on
//! *every* timestep; the pool pays it once per process, so its advantage
//! grows with the number of timesteps. The `dynamic` column runs the
//! unfused plan, whose singleton groups put no floor under the chunk
//! size (a fused plan's chunks must respect the Theorem-1 `Nt` floor —
//! paper Section 3.2), and shows what fine-grained self-scheduling
//! costs against static blocks.
//! The compiled backend must beat the interpreter on throughput while
//! producing identical results and identical per-processor cache miss
//! counts (verified here; the run panics on divergence). The `simd`
//! column repeats the pooled run with the row-runner backend
//! ([`Backend::Simd`](sp_exec::Backend)), which must clear ci.sh's
//! floor over the interpreter's throughput on these unit-stride
//! kernels while staying bit-for-bit and miss-for-miss identical.
//!
//! The compiled run is also repeated with per-worker event tracing
//! enabled (`traced` column): the traced/compiled throughput ratio is
//! the recorded cost of span recording, expected to stay within noise.
//!
//! The sweeps above run back to back, so the pool's threads never go to
//! sleep between two runs. A service does the opposite — a few hundred
//! microseconds of other work on the calling thread between two small
//! runs — and the `dispatch_us` column measures that: what one small
//! pooled run costs when the pool was idle before it.
//!
//! A job's input is seeded on the calling thread before its run, and the
//! `seed_ns_per_value` column times that on the scalar kernel and on the
//! wide one (AVX-512, where the host has it), which `spfc bench check`
//! holds to at most 0.6 of the scalar time.
//!
//! Before any of that runs, a program is compiled: the `compile` entry
//! times the front end over 23 texts (the paper's suite at scale 0.125,
//! rendered, and `examples/programs/*.loop`) — parse, plan (its
//! dependence stage reported apart), layout, lower — as
//! texts a second, which `spfc bench check` gates, and µs a text per
//! stage.
//!
//! Prints a table per kernel and writes every run's full `RunReport`
//! (per-worker counters, barrier waits, imbalance) to
//! `results/BENCH_runtime.json`.

use shift_peel_core::pipeline::pass;
use shift_peel_core::{CodegenMethod, Planner};
use sp_bench::{f2, Opts, Table};
use sp_cache::{CacheConfig, LayoutStrategy};
use sp_exec::memory::SeedIsa;
use sp_exec::{
    Backend, Executor, Memory, PooledExecutor, Program, ProgramTape, RunConfig, RunReport,
    Schedule, DEFAULT_STEAL_SEED,
};
use sp_ir::display::render_sequence;
use sp_ir::{parse_sequence, LoopSequence};
use sp_kernels::{all_programs, jacobi, skewed, tomcatv};
use sp_machine::{
    backend_miss_parity, chunk_bounds, runtime_sweep, skewed_sweep, MissParity, SkewRow,
    CONVEX_SPP1000,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Runs behind each `dispatch_us` median.
const DISPATCH_RUNS: usize = 201;
/// Work the calling thread does between two of them.
const DISPATCH_GAP: Duration = Duration::from_micros(300);

/// Median wall time, in µs, of a two-step 34² jacobi run on `procs`
/// processors of a two-processor pool, each run after [`DISPATCH_GAP`]
/// of work on the calling thread alone — `serve-mixed`'s most popular job
/// as the service's scheduler issues it, with the pool's other thread
/// long asleep by the time the run starts.
fn dispatch_us(procs: usize) -> f64 {
    let seq = jacobi::sequence(34);
    let prog = Program::new(&seq, 1).expect("jacobi analyses");
    let cfg = RunConfig::fused([procs])
        .strip(16)
        .steps(2)
        .backend(Backend::Simd);
    let mut pool = PooledExecutor::new(2);
    let mut us: Vec<f64> = (0..DISPATCH_RUNS)
        .map(|run| {
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, run as u64);
            let gap = Instant::now();
            while gap.elapsed() < DISPATCH_GAP {
                std::hint::spin_loop();
            }
            let t = Instant::now();
            pool.run(&prog, &mut mem, &cfg).expect("pooled run");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Seedings behind each `seed_ns_per_value`, alternating the kernels.
const SEED_RUNS: usize = 31;

/// Fastest of [`SEED_RUNS`] seedings of a 258² tomcatv store —
/// `serve-mixed`'s largest job — per value, in ns, on the scalar kernel
/// and on the wide one (`None` on a host without it). The store is
/// allocated once, so the time is the kernel's and the row walk's.
fn seed_ns_per_value() -> (f64, Option<f64>) {
    let seq = tomcatv::sequence(258);
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    let isas = [SeedIsa::Scalar, SeedIsa::detect()];
    let mut best = [f64::INFINITY; 2];
    for run in 0..SEED_RUNS {
        for (best, &isa) in best.iter_mut().zip(&isas) {
            let t = Instant::now();
            mem.init_on(isa, &seq, run as u64);
            *best = best.min(t.elapsed().as_secs_f64() * 1e9);
        }
    }
    let per_value = |ns: f64| ns / mem.data.len() as f64;
    let wide = (isas[1] != SeedIsa::Scalar).then(|| per_value(best[1]));
    (per_value(best[0]), wide)
}

/// Rounds over the compile texts; the first is warm-up.
const COMPILE_ROUNDS: usize = 301;

/// The texts `compile` times: every sequence of the paper's suite at
/// scale 0.125, rendered, then `examples/programs/*.loop` by name.
fn compile_texts() -> Vec<String> {
    let mut texts: Vec<String> = all_programs()
        .iter()
        .flat_map(|entry| (entry.build)(0.125).sequences)
        .map(|seq| render_sequence(&seq))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    texts.extend(
        files
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("a .loop file")),
    );
    texts
}

/// Median front-end cost over [`COMPILE_ROUNDS`] rounds of the compile
/// texts: texts a second, and µs a text in each stage.
struct CompileRate {
    texts: usize,
    texts_per_sec: f64,
    /// parse, plan, dependence (within plan), layout, lower.
    us_per_text: [f64; 5],
}

const COMPILE_STAGES: [&str; 5] = ["parse", "plan", "dependence", "layout", "lower"];

fn compile_rate() -> CompileRate {
    let texts = compile_texts();
    let planner = Planner::fused(1).method(CodegenMethod::StripMined);
    let mut rounds: Vec<(f64, [f64; 5])> = (0..COMPILE_ROUNDS)
        .map(|_| {
            let mut stages = [0f64; 5];
            let round = Instant::now();
            for text in &texts {
                let t = Instant::now();
                let seq = parse_sequence(text).expect("suite text parses");
                stages[0] += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let planned = planner.plan(&seq).expect("suite text plans");
                stages[1] += t.elapsed().as_secs_f64();
                let dependence = planned.timings.timing_of(pass::DEPENDENCE);
                stages[2] += dependence.map_or(0, |d| d.nanos) as f64 * 1e-9;
                let t = Instant::now();
                let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                stages[3] += t.elapsed().as_secs_f64();
                let t = Instant::now();
                std::hint::black_box(ProgramTape::lower(&seq, &mem.layout));
                stages[4] += t.elapsed().as_secs_f64();
            }
            (round.elapsed().as_secs_f64(), stages)
        })
        .skip(1)
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (seconds, stages) = rounds[rounds.len() / 2];
    CompileRate {
        texts: texts.len(),
        texts_per_sec: texts.len() as f64 / seconds,
        us_per_text: stages.map(|s| s * 1e6 / texts.len() as f64),
    }
}

struct KernelRun {
    name: &'static str,
    rows: Vec<sp_machine::RuntimeRow>,
    parity: MissParity,
}

fn sweep(
    name: &'static str,
    seq: &LoopSequence,
    grid: &[usize],
    strip: i64,
    steps: &[usize],
    reps: usize,
) -> KernelRun {
    // Best-of-`reps` per (steps, runtime) cell: one noisy descheduling on
    // a shared host would otherwise dominate a single measurement.
    let mut rows = runtime_sweep(seq, grid, strip, steps).expect("runtime sweep");
    for _ in 1..reps {
        let again = runtime_sweep(seq, grid, strip, steps).expect("runtime sweep");
        for (best, r) in rows.iter_mut().zip(again) {
            if r.scoped.iters_per_sec() > best.scoped.iters_per_sec() {
                best.scoped = r.scoped;
            }
            if r.pooled.iters_per_sec() > best.pooled.iters_per_sec() {
                best.pooled = r.pooled;
            }
            if r.compiled.iters_per_sec() > best.compiled.iters_per_sec() {
                best.compiled = r.compiled;
            }
            if r.simd.iters_per_sec() > best.simd.iters_per_sec() {
                best.simd = r.simd;
            }
            if r.traced.iters_per_sec() > best.traced.iters_per_sec() {
                best.traced = r.traced;
            }
            if r.stealing.iters_per_sec() > best.stealing.iters_per_sec() {
                best.stealing = r.stealing;
            }
            if r.dynamic.iters_per_sec() > best.dynamic.iters_per_sec() {
                best.dynamic = r.dynamic;
            }
        }
    }
    // Per-processor cache miss parity between the backends: the compiled
    // tapes must emit the *same address stream* as the interpreter. A few
    // simulated steps suffice — the stream repeats per timestep.
    let parity = backend_miss_parity(seq, grid, strip, 2, CacheConfig::new(16 * 1024, 64, 1))
        .expect("miss parity run");
    assert!(
        parity.equal(),
        "{name}: compiled backend changed per-processor miss counts: {parity:?}"
    );
    let mut t = Table::new(
        format!(
            "{name}: threaded runtimes, grid {grid:?} (iters/s; pool advantage grows with steps)"
        ),
        &[
            "steps",
            "scoped it/s",
            "pooled it/s",
            "pooled/scoped",
            "compiled it/s",
            "compiled/interp",
            "simd it/s",
            "simd/compiled",
            "traced it/s",
            "traced/compiled",
            "stealing it/s",
            "dynamic it/s",
            "pool imbalance",
            "pool max barrier us",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.steps.to_string(),
            format!("{:.0}", r.scoped.iters_per_sec()),
            format!("{:.0}", r.pooled.iters_per_sec()),
            f2(r.pooled.iters_per_sec() / r.scoped.iters_per_sec()),
            format!("{:.0}", r.compiled.iters_per_sec()),
            f2(r.compiled.iters_per_sec() / r.pooled.iters_per_sec()),
            format!("{:.0}", r.simd.iters_per_sec()),
            f2(r.simd.iters_per_sec() / r.compiled.iters_per_sec()),
            format!("{:.0}", r.traced.iters_per_sec()),
            f2(r.traced.iters_per_sec() / r.compiled.iters_per_sec()),
            format!("{:.0}", r.stealing.iters_per_sec()),
            format!("{:.0}", r.dynamic.iters_per_sec()),
            f2(r.pooled.imbalance()),
            format!("{:.1}", r.pooled.max_barrier_wait_nanos() as f64 / 1e3),
        ]);
    }
    t.print();
    println!();
    KernelRun { name, rows, parity }
}

struct SkewRun {
    steps: usize,
    chunk: i64,
    rows: Vec<SkewRow>,
}

/// The skewed-load comparison: the `skewed` kernel (one worker owns the
/// narrow heavy nest) run under every schedule on the same seed. Static
/// blocking reports the structural imbalance; stealing should converge
/// toward 1.0. Repeated `reps` times keeping the repetition whose
/// stealing row is least perturbed by host noise, mirroring the
/// best-of-reps policy of the throughput columns.
fn skew_sweep(n: usize, procs: usize, steps: usize, reps: usize) -> SkewRun {
    let seq = skewed::sequence(n);
    let bounds = chunk_bounds(&seq, &CONVEX_SPP1000, procs);
    let chunk = bounds.pick();
    let mut rows =
        skewed_sweep(&seq, &[procs], 16, steps, chunk, DEFAULT_STEAL_SEED).expect("skewed sweep");
    for _ in 1..reps {
        let again = skewed_sweep(&seq, &[procs], 16, steps, chunk, DEFAULT_STEAL_SEED)
            .expect("skewed sweep");
        let imb = |r: &[SkewRow]| {
            r.iter()
                .find(|x| x.schedule == Schedule::Stealing)
                .map(|x| x.report.time_imbalance())
                .unwrap_or(f64::MAX)
        };
        if imb(&again) < imb(&rows) {
            rows = again;
        }
    }
    let mut t = Table::new(
        format!(
            "skewed: schedule comparison, {procs} workers, chunk {chunk} \
(nt floor {}, capacity {}; busy-time imbalance should converge to 1.0)",
            bounds.nt_floor, bounds.capacity
        ),
        &[
            "schedule",
            "it/s",
            "time imbalance",
            "steals",
            "yields",
            "parks",
            "max barrier us",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.schedule.name().to_string(),
            format!("{:.0}", r.report.iters_per_sec()),
            f2(r.report.time_imbalance()),
            r.report.total_steals().to_string(),
            r.report.total_yields().to_string(),
            r.report.total_parks().to_string(),
            format!("{:.1}", r.report.max_barrier_wait_nanos() as f64 / 1e3),
        ]);
    }
    t.print();
    println!();
    SkewRun { steps, chunk, rows }
}

fn emit_json(
    kernels: &[KernelRun],
    skew: &SkewRun,
    dispatch: [f64; 2],
    seed: (f64, Option<f64>),
    compile: &CompileRate,
) -> String {
    let wide = seed.1.map_or("null".into(), |ns| format!("{ns:.3}"));
    let mut out = format!(
        "{{\"dispatch_us\":{{\"p1\":{:.1},\"p2\":{:.1}}},\
         \"seed_ns_per_value\":{{\"scalar\":{:.3},\"wide\":{wide}}},",
        dispatch[0], dispatch[1], seed.0
    );
    let _ = write!(
        out,
        "\"compile\":{{\"texts\":{},\"rounds\":{},\"texts_per_sec\":{:.0},\"us_per_text\":{{",
        compile.texts,
        COMPILE_ROUNDS - 1,
        compile.texts_per_sec
    );
    for (i, (stage, us)) in COMPILE_STAGES.iter().zip(compile.us_per_text).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{stage}\":{us:.2}");
    }
    out.push_str("}},\"kernels\":[");
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"kernel\":\"{}\",\"rows\":[", k.name);
        for (j, r) in k.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let reports: Vec<(&str, &RunReport)> = vec![
                ("scoped", &r.scoped),
                ("pooled", &r.pooled),
                ("compiled", &r.compiled),
                ("simd", &r.simd),
                ("traced", &r.traced),
                ("stealing", &r.stealing),
                ("dynamic", &r.dynamic),
            ];
            let _ = write!(out, "{{\"steps\":{},", r.steps);
            for (n, (label, rep)) in reports.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{label}\":{}", rep.to_json());
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"miss_parity\":{{\"procs\":{},\"interp\":{:?},\"compiled\":{:?},\"simd\":{:?},\"equal\":{}}}}}",
            k.parity.interp.len(),
            k.parity.interp,
            k.parity.compiled,
            k.parity.simd,
            k.parity.equal()
        );
    }
    out.push_str("],");
    let _ = write!(
        out,
        "\"skewed\":{{\"kernel\":\"skewed\",\"steps\":{},\"chunk\":{},\"rows\":[",
        skew.steps, skew.chunk
    );
    for (i, r) in skew.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"schedule\":\"{}\",\"report\":{}}}",
            r.schedule.name(),
            r.report.to_json()
        );
    }
    out.push_str("]}}");
    out
}

fn main() {
    let opts = Opts::from_args();
    let steps: Vec<usize> = if opts.quick {
        vec![1, 10, 100]
    } else {
        vec![1, 10, 100, 200]
    };
    // Small arrays: the runtimes differ in *per-step* overhead (thread
    // spawns, barrier setup), which large per-step compute would drown.
    let n = opts.size(64);
    // At least 2 workers so barrier waits and imbalance are exercised
    // even on single-core hosts (the barrier yields, so oversubscription
    // is safe); at most 8 to keep the sweep fast on big machines.
    let procs = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    // Best of three in quick mode too: ci.sh gates on these ratios, and a
    // run whose barriers fall into parking reads several times slower
    // than the same code a second later.
    let reps = 3;
    let kernels = vec![
        sweep(
            "jacobi",
            &jacobi::sequence(n + 2),
            &[procs],
            16,
            &steps,
            reps,
        ),
        sweep("tomcatv", &tomcatv::sequence(n), &[procs], 16, &steps, reps),
    ];
    // Longer than the throughput sweep's quick steps: the imbalance
    // ratio needs enough per-step work for busy times to dominate
    // scheduling jitter.
    let skew = skew_sweep(n, procs, if opts.quick { 30 } else { 100 }, reps);
    let dispatch = [dispatch_us(1), dispatch_us(2)];
    println!(
        "dispatch: a 2-step 34x34 jacobi run after {} us of caller-side work = \
{:.1} us at p=1, {:.1} us at p=2 (median of {DISPATCH_RUNS})\n",
        DISPATCH_GAP.as_micros(),
        dispatch[0],
        dispatch[1]
    );
    let compile = compile_rate();
    println!(
        "compile: {:.0} texts/s over {} texts; us a text: {} (median of {} rounds)\n",
        compile.texts_per_sec,
        compile.texts,
        COMPILE_STAGES
            .iter()
            .zip(compile.us_per_text)
            .map(|(stage, us)| format!("{stage} {us:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
        COMPILE_ROUNDS - 1
    );
    let seed = seed_ns_per_value();
    println!(
        "seed: {:.3} ns a value scalar, {} (a 258x258 tomcatv store, best of {SEED_RUNS})\n",
        seed.0,
        seed.1.map_or(
            format!("no {} kernel", SeedIsa::Avx512.name()),
            |ns| format!("{ns:.3} {}", SeedIsa::detect().name())
        )
    );
    let json = emit_json(&kernels, &skew, dispatch, seed, &compile);
    let path = "results/BENCH_runtime.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    // The skewed-load acceptance line: stealing must report strictly
    // lower busy-time imbalance than static on the same seed (the CI
    // gate parses this line).
    {
        let by = |s: Schedule| {
            skew.rows
                .iter()
                .find(|r| r.schedule == s)
                .expect("schedule row")
        };
        let st = by(Schedule::Static).report.time_imbalance();
        let stealing = by(Schedule::Stealing).report.time_imbalance();
        println!(
            "skewed: time imbalance static={st:.2} stealing={stealing:.2} steals={}",
            by(Schedule::Stealing).report.total_steals()
        );
    }
    // The acceptance checks: with enough timesteps the persistent pool
    // should at least match the spawn-per-step runtime, and the compiled
    // tapes should clearly beat the interpreter at identical results and
    // identical per-processor miss counts.
    for k in &kernels {
        for r in k.rows.iter().filter(|r| r.steps >= 100) {
            let ratio = r.pooled.iters_per_sec() / r.scoped.iters_per_sec();
            println!(
                "{}: pooled/scoped throughput at {} steps = {:.2}x",
                k.name, r.steps, ratio
            );
            println!(
                "{}: compiled/interp throughput at {} steps = {:.2}x (miss parity: {})",
                k.name,
                r.steps,
                r.compiled.iters_per_sec() / r.pooled.iters_per_sec(),
                if k.parity.equal() { "exact" } else { "BROKEN" }
            );
            // The SIMD acceptance bar: lane-blocked interiors should at
            // least double interpreter throughput on these kernels.
            println!(
                "{}: simd/interp throughput at {} steps = {:.2}x ({} of {} iters vectorized)",
                k.name,
                r.steps,
                r.simd.iters_per_sec() / r.pooled.iters_per_sec(),
                r.simd.merged_counters().vec_iters,
                r.simd.merged_counters().iters,
            );
            // Tracing overhead: the traced run records a handful of
            // spans per timestep into per-worker rings, so it should
            // stay within noise of the untraced compiled run.
            let overhead = 1.0 - r.traced.iters_per_sec() / r.compiled.iters_per_sec();
            println!(
                "{}: tracing overhead at {} steps = {:.1}% ({} events recorded)",
                k.name,
                r.steps,
                overhead * 100.0,
                r.traced
                    .trace
                    .as_ref()
                    .map(|t| t.event_count())
                    .unwrap_or(0)
            );
        }
    }
}

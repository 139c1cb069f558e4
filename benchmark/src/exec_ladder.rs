//! The three run workloads — `stream-jacobi`, `stream-ll18`,
//! `steps-small` — and the ladder their traced pass climbs: hand-written
//! kernel -> backend -> executor, on one kernel and one extent.
//!
//! An op is one `PooledExecutor::run` of the fused, strip-mined plan on
//! two processors with the simd backend, lowering included, as a user
//! pays it. Every op starts from the same seeded arrays (restored
//! outside the clock) and its result is compared, bit for bit, with the
//! hand-written unfused serial kernel's.

use crate::front_end::{self, ProgramText};
use crate::span::Recorder;
use crate::spec::{Metrics, PER_LAYER};
use crate::stats::{median, Summary};
use crate::{
    after_warm_up, decks::DeckLog, end_to_end, host, instrument_metrics, median_setup, Outcome,
    Pass,
};
use shift_peel::cache::{CacheConfig, LayoutStrategy};
use shift_peel::exec::{
    Backend, Executor, Memory, PooledExecutor, Program, RunConfig, RunReport, Schedule,
    ScopedExecutor,
};
use shift_peel::ir::LoopSequence;
use shift_peel::kernels::{jacobi, ll18, manual};
use std::time::Instant;

/// Processors every parallel rung runs on (the host has two).
const PROCS: usize = 2;
/// Rows per strip, for the executor's fused plan and the hand-written
/// fused kernels alike, so the two are compared like with like.
const STRIP: i64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Jacobi,
    Ll18,
}

/// One run workload: which kernel, how large, how many steps per op.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub kernel: Kernel,
    /// Arrays are `n x n`.
    pub n: usize,
    /// Timesteps per op.
    pub steps: usize,
    /// Percentile the tail is read at once enough ops fit in a pass.
    pub tail_cap: u32,
    /// What the reference — the hand-written fused parallel kernel on the
    /// same extents for the same steps — takes on this sandbox's host
    /// when the neighbours are quiet, in ms.
    pub nominal_ref_ms: f64,
}

/// The shape of the run workload called `name`.
///
/// # Panics
/// Panics on any other name.
pub fn shape(name: &str, smoke: bool) -> Shape {
    let (name, kernel, n, steps, tail_cap, nominal_ref_ms) = match name {
        // Two 134 MB arrays, rows not a power of two: out of every cache
        // level, two streams; the backend's inner loop is all there is.
        "stream-jacobi" => ("stream-jacobi", Kernel::Jacobi, 4098, 2, 50, 80.0),
        // Nine 8 MiB power-of-two arrays, three nests, shift 2 / peel 1.
        "stream-ll18" => ("stream-ll18", Kernel::Ll18, 1024, 3, 50, 26.0),
        // Cache-resident and 200 steps: pool, barrier and per-step
        // dispatch are what is left to measure.
        "steps-small" => ("steps-small", Kernel::Jacobi, 130, 200, 90, 23.0),
        other => panic!("{other} is not a run workload"),
    };
    let (n, steps) = if smoke {
        (40, steps.min(4))
    } else {
        (n, steps)
    };
    Shape {
        name,
        kernel,
        n,
        steps,
        tail_cap,
        nominal_ref_ms,
    }
}

impl Shape {
    fn sequence(&self) -> LoopSequence {
        match self.kernel {
            Kernel::Jacobi => jacobi::sequence(self.n),
            Kernel::Ll18 => ll18::sequence(self.n),
        }
    }
}

/// The hand-written kernels' state, seeded exactly as
/// `Memory::init_deterministic` seeds the IR program's arrays.
enum Manual {
    Jacobi(manual::Jacobi),
    Ll18(manual::Ll18),
}

#[derive(Clone, Copy)]
enum ManualKernel {
    Unfused,
    Fused,
    UnfusedPar,
    FusedPar,
}

impl Manual {
    fn seeded(shape: &Shape, seed: u64) -> Manual {
        match shape.kernel {
            Kernel::Jacobi => {
                let mut d = manual::Jacobi::new(shape.n);
                d.init(seed);
                Manual::Jacobi(d)
            }
            Kernel::Ll18 => {
                let mut d = manual::Ll18::new(shape.n);
                d.init(seed);
                Manual::Ll18(d)
            }
        }
    }

    /// The arrays, moved out, in the IR program's declaration order.
    fn into_arrays(mut self) -> Vec<Vec<f64>> {
        self.arrays_mut().into_iter().map(std::mem::take).collect()
    }

    /// The arrays in the IR program's declaration order.
    fn arrays_mut(&mut self) -> Vec<&mut Vec<f64>> {
        match self {
            Manual::Jacobi(d) => vec![&mut d.a, &mut d.b],
            Manual::Ll18(d) => vec![
                &mut d.zp, &mut d.zq, &mut d.zr, &mut d.zm, &mut d.zu, &mut d.zv, &mut d.zz,
                &mut d.za, &mut d.zb,
            ],
        }
    }

    fn snapshot(&mut self) -> Vec<Vec<f64>> {
        self.arrays_mut().into_iter().map(|a| a.clone()).collect()
    }

    fn step(&mut self, which: ManualKernel) {
        use ManualKernel::*;
        match (self, which) {
            (Manual::Jacobi(d), Unfused) => manual::jacobi_unfused(d),
            (Manual::Jacobi(d), Fused) => manual::jacobi_fused(d, STRIP),
            (Manual::Jacobi(d), UnfusedPar) => manual::jacobi_unfused_parallel(d, PROCS),
            (Manual::Jacobi(d), FusedPar) => manual::jacobi_fused_parallel(d, PROCS, STRIP),
            (Manual::Ll18(d), Unfused) => manual::ll18_unfused(d),
            (Manual::Ll18(d), Fused) => manual::ll18_fused(d, STRIP),
            (Manual::Ll18(d), UnfusedPar) => manual::ll18_unfused_parallel(d, PROCS),
            (Manual::Ll18(d), FusedPar) => manual::ll18_fused_parallel(d, PROCS, STRIP),
        }
    }
}

/// Where array `i` of `mem` lives in its flat store. Arrays are never
/// padded inside, under either layout used here.
fn array_range(mem: &Memory, i: usize) -> std::ops::Range<usize> {
    let p = &mem.layout.placements[i];
    let at = p.start as usize / mem.layout.elem_bytes;
    at..at + p.dims.iter().product::<usize>()
}

/// Resets `mem` to the seeded state held in `pristine`, array by array.
fn restore(mem: &mut Memory, pristine: &[Vec<f64>]) {
    for (i, src) in pristine.iter().enumerate() {
        let range = array_range(mem, i);
        mem.data[range].copy_from_slice(src);
    }
}

fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Bit-for-bit equality of `mem`'s arrays with `want`.
fn arrays_equal(mem: &Memory, want: &[Vec<f64>]) -> bool {
    want.iter()
        .enumerate()
        .all(|(i, w)| same_bits(&mem.data[array_range(mem, i)], w))
}

/// What set-up builds for a timed pass.
struct State {
    mem: Memory,
    /// The seeded arrays every op starts from.
    pristine: Vec<Vec<f64>>,
    /// The hand-written unfused serial kernel's arrays after one step
    /// (kept only by the traced pass) and after the op's step count.
    after_one: Option<Vec<Vec<f64>>>,
    after_all: Vec<Vec<f64>>,
    /// The hand-written kernels' own arrays: the timed pass's reference
    /// and the traced pass's bottom rungs run on these.
    hand: Manual,
    pool: PooledExecutor,
}

fn build_state(shape: &Shape, seq: &LoopSequence, pass: &Pass) -> State {
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, pass.seed);
    let pristine = (0..seq.arrays.len())
        .map(|i| mem.data[array_range(&mem, i)].to_vec())
        .collect();
    let mut reference = Manual::seeded(shape, pass.seed);
    let mut after_one = None;
    for step in 0..shape.steps {
        reference.step(ManualKernel::Unfused);
        if pass.trace && step == 0 {
            after_one = Some(reference.snapshot());
        }
    }
    State {
        mem,
        pristine,
        after_one,
        after_all: reference.into_arrays(),
        hand: Manual::seeded(shape, pass.seed),
        pool: PooledExecutor::new(PROCS),
    }
}

/// `steps` steps of one hand-written kernel from the seeded arrays.
/// Returns the kernel's time in ms (the restore is outside it) and whether
/// it left the reference's arrays behind.
fn hand_run(
    hand: &mut Manual,
    kernel: ManualKernel,
    steps: usize,
    pristine: &[Vec<f64>],
    want: &[Vec<f64>],
) -> (f64, bool) {
    for (dst, src) in hand.arrays_mut().into_iter().zip(pristine) {
        dst.copy_from_slice(src);
    }
    let t = Instant::now();
    for _ in 0..steps {
        hand.step(kernel);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = hand
        .arrays_mut()
        .into_iter()
        .zip(want)
        .all(|(got, want)| same_bits(got, want));
    (ms, ok)
}

/// The op's configuration with `backend`.
fn fused(shape: &Shape, procs: usize, backend: Backend) -> RunConfig {
    RunConfig::fused([procs])
        .strip(STRIP)
        .steps(shape.steps)
        .backend(backend)
}

/// One timed, checked run. Returns the wall time in ms and the report,
/// or `None` when the run errored or its arrays are wrong.
#[allow(clippy::too_many_arguments)]
fn checked_run(
    exec: &mut dyn Executor,
    prog: &Program<'_>,
    mem: &mut Memory,
    cfg: &RunConfig,
    pristine: &[Vec<f64>],
    want: &[Vec<f64>],
    rec: &mut Recorder,
    span: (&'static str, &'static str, u64),
) -> Option<(f64, RunReport)> {
    let (parent, name, op) = span;
    let open = rec.begin(parent, op);
    rec.time("harness.restore", op, || restore(mem, pristine));
    let leaf = rec.begin(name, op);
    let t = Instant::now();
    let report = exec.run(prog, mem, cfg);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    rec.end(leaf);
    let ok = rec.time("harness.check", op, || arrays_equal(mem, want));
    rec.end(open);
    match report {
        Ok(r) if ok => Some((ms, r)),
        Ok(_) => {
            eprintln!("{name}: arrays differ from the hand-written reference");
            None
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            None
        }
    }
}

/// Runs one pass of `shape`.
pub fn run(shape: &Shape, pass: &Pass) -> Outcome {
    let seq = shape.sequence();
    let prog = Program::new(&seq, 1).expect("the suite kernels analyse");
    let cfg = fused(shape, PROCS, Backend::Simd);
    let mut rec = Recorder::new();
    rec.on = false;

    let mut attempted = 0;
    let mut failed = 0;
    let (mut st, setup_s) = median_setup(pass, || {
        let mut st = build_state(shape, &seq, pass);
        // Untimed warm-up: first touch of every page, pool threads up.
        attempted += 1;
        let warm = checked_run(
            &mut st.pool,
            &prog,
            &mut st.mem,
            &cfg,
            &st.pristine,
            &st.after_all,
            &mut rec,
            ("op", "sp-exec.run.simd", 0),
        );
        failed += u64::from(warm.is_none());
        st
    });

    if pass.trace {
        return ladder(shape, pass, &seq, &prog, &mut st, rec, attempted, failed);
    }

    let mut decks = DeckLog::new(shape.nominal_ref_ms);
    let mut iters_per_op = 0.0;
    let deadline = pass.deadline();
    while decks.len() < 2 || Instant::now() < deadline {
        attempted += 1;
        match checked_run(
            &mut st.pool,
            &prog,
            &mut st.mem,
            &cfg,
            &st.pristine,
            &st.after_all,
            &mut rec,
            ("op", "sp-exec.run.simd", attempted),
        ) {
            Some((ms, report)) => {
                let (ref_ms, ok) = hand_run(
                    &mut st.hand,
                    ManualKernel::FusedPar,
                    shape.steps,
                    &st.pristine,
                    &st.after_all,
                );
                failed += u64::from(!ok);
                decks.push_op(ms, ref_ms);
                iters_per_op = report.total_iters() as f64;
            }
            None => failed += 1,
        }
        if failed > 8 {
            break;
        }
    }
    if decks.is_empty() {
        decks.push_op(f64::INFINITY, shape.nominal_ref_ms);
    }
    Outcome {
        attempted,
        failed,
        metrics: end_to_end(setup_s, &decks, shape.tail_cap, iters_per_op),
        trace_json: None,
    }
}

/// A rung of the traced pass: its span name and how it runs.
struct Rung {
    span: &'static str,
    how: How,
}

enum How {
    /// An executor run: on the pool or spawn-per-step, on the contiguous
    /// or the cache-partitioned memory.
    Exec {
        cfg: RunConfig,
        scoped: bool,
        partitioned: bool,
    },
    /// A hand-written kernel on its own arrays.
    Hand(ManualKernel),
}

/// A host-shaped cache for `LayoutStrategy::CachePartition`: the
/// per-core level the strips are sized for (L2 here), from sysfs.
fn host_cache() -> CacheConfig {
    let l2 = host::caches().into_iter().find(|c| c.level == 2);
    let (bytes, line, ways) = l2.map_or((1 << 20, 64, 8), |c| (c.bytes, c.line, c.ways.max(1)));
    if line.is_power_of_two() && bytes % (line * ways) == 0 {
        CacheConfig::new(bytes, line, ways)
    } else {
        CacheConfig::new(1 << 20, 64, 8)
    }
}

/// The traced pass: every rung once per round, round after round, so
/// host drift lands on all rungs alike and cancels out of their ratios.
/// The end-to-end rung runs twice a round, once with the recorder on and
/// once with it off, taking turns at going first: the ratio of the two
/// is what recording costs.
#[allow(clippy::too_many_arguments)]
fn ladder(
    shape: &Shape,
    pass: &Pass,
    seq: &LoopSequence,
    prog: &Program<'_>,
    st: &mut State,
    mut rec: Recorder,
    mut attempted: u64,
    mut failed: u64,
) -> Outcome {
    let simd = fused(shape, PROCS, Backend::Simd);
    let p1 = fused(shape, 1, Backend::Simd);
    let on = |span, cfg: &RunConfig, scoped, partitioned| Rung {
        span,
        how: How::Exec {
            cfg: cfg.clone(),
            scoped,
            partitioned,
        },
    };
    let exec = |span, cfg: RunConfig| on(span, &cfg, false, false);
    let hand = |span, kernel| Rung {
        span,
        how: How::Hand(kernel),
    };
    let rungs = [
        exec("sp-exec.run.simd", simd.clone()),
        exec("sp-exec.run.simd", simd.clone()),
        exec(
            "sp-exec.run.compiled",
            fused(shape, PROCS, Backend::Compiled),
        ),
        exec("sp-exec.run.interp", fused(shape, PROCS, Backend::Interp)),
        exec(
            "sp-exec.run.unfused",
            RunConfig::blocked([PROCS])
                .steps(shape.steps)
                .backend(Backend::Simd),
        ),
        exec(
            "sp-exec.run.serial",
            RunConfig::serial()
                .steps(shape.steps)
                .backend(Backend::Simd),
        ),
        on("sp-exec.run.scoped", &simd, true, false),
        exec(
            "sp-exec.run.stealing",
            simd.clone().schedule(Schedule::Stealing),
        ),
        on("sp-cache.run.partitioned", &simd, false, true),
        exec("sp-exec.run.p1", p1.clone()),
        exec("sp-exec.run.one_step.p1", p1.steps(1)),
        exec("sp-exec.run.one_step.p2", simd.clone().steps(1)),
        hand("sp-kernels.manual.unfused", ManualKernel::Unfused),
        hand("sp-kernels.manual.fused", ManualKernel::Fused),
        hand("sp-kernels.manual.unfused_par", ManualKernel::UnfusedPar),
        hand("sp-kernels.manual.fused_par", ManualKernel::FusedPar),
    ];

    let mut partitioned = Memory::new(seq, LayoutStrategy::CachePartition(host_cache()));
    let after_one = st.after_one.take().expect("the traced pass keeps step one");

    let mut ms: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut simd_reports: Vec<RunReport> = Vec::new();
    let mut mem_init_ms = Vec::new();
    let (mut traced_ms, mut control_ms) = (Vec::new(), Vec::new());
    let deadline = pass.deadline();
    let mut round = 0u64;
    while round < 2 || Instant::now() < deadline {
        for (i, (slot, rung)) in ms.iter_mut().zip(&rungs).enumerate() {
            attempted += 1;
            let span = rung.span;
            rec.on = span != "sp-exec.run.simd" || (i as u64 + round).is_multiple_of(2);
            let sample = match &rung.how {
                How::Exec {
                    cfg,
                    scoped,
                    partitioned: on_partitioned,
                } => {
                    let exec: &mut dyn Executor = if *scoped {
                        &mut ScopedExecutor
                    } else {
                        &mut st.pool
                    };
                    let mem = if *on_partitioned {
                        &mut partitioned
                    } else {
                        &mut st.mem
                    };
                    let want = if cfg.step_count() == shape.steps {
                        &st.after_all
                    } else {
                        &after_one
                    };
                    let parent = if span == "sp-exec.run.simd" {
                        "op"
                    } else {
                        "rung"
                    };
                    checked_run(
                        exec,
                        prog,
                        mem,
                        cfg,
                        &st.pristine,
                        want,
                        &mut rec,
                        (parent, span, round),
                    )
                    .map(|(ms, report)| {
                        if span == "sp-exec.run.simd" {
                            if rec.on {
                                traced_ms.push(ms);
                            } else {
                                control_ms.push(ms);
                            }
                            simd_reports.push(report);
                        }
                        ms
                    })
                }
                How::Hand(kernel) => {
                    let open = rec.begin(span, round);
                    let (ms, ok) = hand_run(
                        &mut st.hand,
                        *kernel,
                        shape.steps,
                        &st.pristine,
                        &st.after_all,
                    );
                    rec.end(open);
                    ok.then_some(ms)
                }
            };
            match sample {
                Some(v) => slot.push(v),
                None => failed += 1,
            }
        }
        // Per-job memory set-up, as the serve tier pays it on every job.
        let t = rec.begin("sp-exec.mem_init", round);
        let began = Instant::now();
        let mut fresh = Memory::new(seq, LayoutStrategy::Contiguous);
        fresh.init_deterministic(seq, pass.seed);
        mem_init_ms.push(began.elapsed().as_secs_f64() * 1e3);
        rec.end(t);
        drop(fresh);
        round += 1;
        if failed > 8 {
            break;
        }
    }

    // Both end-to-end rungs are one series.
    let second = std::mem::take(&mut ms[1]);
    ms[0].extend(second);

    let mut m = Metrics::zeroed(&PER_LAYER);
    let med = |span: &str| {
        let i = rungs.iter().position(|r| r.span == span).expect(span);
        if ms[i].is_empty() {
            f64::NAN
        } else {
            median(after_warm_up(&ms[i]))
        }
    };
    let simd_ms = med("sp-exec.run.simd");
    let steps = shape.steps as f64;
    m.set("sp-exec.run_ms.simd", simd_ms);
    m.set("sp-exec.run_ms.compiled", med("sp-exec.run.compiled"));
    m.set("sp-exec.run_ms.interp", med("sp-exec.run.interp"));
    if !ms[0].is_empty() {
        m.set(
            "sp-exec.run_ms_tail",
            Summary::of(after_warm_up(&ms[0]), shape.tail_cap).tail,
        );
    }
    m.set("sp-exec.unfused_run_ms", med("sp-exec.run.unfused"));
    m.set(
        "sp-exec.fusion_speedup",
        med("sp-exec.run.unfused") / simd_ms,
    );
    m.set("sp-exec.serial_run_ms", med("sp-exec.run.serial"));
    m.set(
        "sp-exec.par_efficiency",
        med("sp-exec.run.serial") / (PROCS as f64 * simd_ms),
    );
    m.set("sp-exec.scoped_run_ms", med("sp-exec.run.scoped"));
    m.set("sp-exec.stealing_run_ms", med("sp-exec.run.stealing"));
    m.set(
        "sp-exec.run_overhead_us.p1",
        (med("sp-exec.run.one_step.p1") - med("sp-exec.run.p1") / steps) * 1e3,
    );
    m.set(
        "sp-exec.run_overhead_us.p2",
        (med("sp-exec.run.one_step.p2") - simd_ms / steps) * 1e3,
    );
    m.set("sp-exec.mem_init_ms", median(after_warm_up(&mem_init_ms)));
    m.set(
        "sp-cache.layout_bytes",
        partitioned.layout.total_bytes as f64,
    );
    m.set("sp-cache.partition_run_ms", med("sp-cache.run.partitioned"));
    m.set(
        "sp-cache.partition_speedup",
        simd_ms / med("sp-cache.run.partitioned"),
    );
    m.set(
        "sp-kernels.manual_unfused_ms",
        med("sp-kernels.manual.unfused"),
    );
    m.set("sp-kernels.manual_fused_ms", med("sp-kernels.manual.fused"));
    m.set(
        "sp-kernels.manual_unfused_par_ms",
        med("sp-kernels.manual.unfused_par"),
    );
    let hand_ms = med("sp-kernels.manual.fused_par");
    m.set("sp-kernels.manual_fused_par_ms", hand_ms);
    m.set(
        "sp-kernels.manual_fusion_speedup",
        med("sp-kernels.manual.unfused_par") / hand_ms,
    );
    m.set("sp-exec.simd_over_manual", simd_ms / hand_ms);

    // What the end-to-end rung's own reports say about where its time went.
    if let Some(last) = simd_reports.last() {
        let per_report = |f: &dyn Fn(&RunReport) -> f64| {
            median(&simd_reports.iter().map(f).collect::<Vec<f64>>())
        };
        m.set(
            "sp-exec.step_overhead_us",
            per_report(&|r| {
                let busy = r.workers.iter().map(|w| w.counters.busy_nanos()).max();
                r.wall_nanos.saturating_sub(busy.unwrap_or(0)) as f64 / steps / 1e3
            }),
        );
        m.set(
            "sp-exec.barrier_wait_share",
            per_report(&|r| r.max_barrier_wait_nanos() as f64 / r.wall_nanos.max(1) as f64),
        );
        m.set(
            "sp-exec.time_imbalance",
            per_report(&|r| r.time_imbalance()),
        );
        let c = last.merged_counters();
        let iters = last.total_iters().max(1) as f64;
        // Computed from the load and store counts, not measured traffic:
        // cache misses and write-allocate are not in it.
        let bytes = 8.0 * (c.loads + c.stores) as f64;
        m.set("sp-exec.vec_iter_share", c.vec_iters as f64 / iters);
        m.set("sp-exec.peeled_iter_share", c.peeled_iters as f64 / iters);
        m.set("sp-exec.bytes_per_iter", bytes / iters);
        m.set("sp-exec.gbytes_per_s", bytes / (simd_ms / 1e3) / 1e9);
        m.set(
            "sp-kernels.manual_gbytes_per_s",
            bytes / (hand_ms / 1e3) / 1e9,
        );
    }

    // The front-end cost of the program this workload runs.
    let texts = [ProgramText::of(shape.name, seq)];
    let (a, f) = front_end::trace_briefly(&texts, &mut rec, &mut m);
    attempted += a;
    failed += f;
    instrument_metrics(&rec, &traced_ms, &control_ms, round, pass.smoke, &mut m);
    Outcome {
        attempted,
        failed,
        metrics: m,
        trace_json: Some(rec.chrome_json(shape.name)),
    }
}

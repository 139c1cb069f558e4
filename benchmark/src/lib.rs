//! The repository benchmark: five workloads that together cover the path
//! from `.loop` text to a wire reply, each checked against an
//! independent reference, each priced layer by layer.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading what those calls return. See `README.md` for
//! the layers, the metrics and what each is expected to move.

pub mod compile_cold;
pub mod decks;
pub mod driver;
pub mod exec_ladder;
pub mod front_end;
pub mod heap;
pub mod host;
pub mod rng;
pub mod serve_mixed;
pub mod span;
pub mod spec;
pub mod stats;

use decks::DeckLog;
use span::Recorder;
use spec::{Metrics, END_TO_END};
use stats::{median, Summary};
use std::time::{Duration, Instant};

/// One pass over one workload, as the command line asks for it.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Shapes the generated inputs; never shown to the program.
    pub seed: u64,
    /// How long the pass measures for.
    pub seconds: f64,
    /// Timed pass (end-to-end metrics) or traced pass (per-layer).
    pub trace: bool,
    /// Shrinks every problem to a size a debug-build test can run. The
    /// numbers of a smoke pass mean nothing; its checks are the real ones.
    pub smoke: bool,
}

impl Pass {
    /// When this pass stops starting new ops.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What a pass reports.
pub struct Outcome {
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that errored, were refused, or whose output differed from the
    /// reference.
    pub failed: u64,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The traced pass's spans as a Chrome trace.
    pub trace_json: Option<String>,
}

/// Runs one pass of the workload called `name`.
pub fn run_workload(name: &str, pass: &Pass) -> Result<Outcome, String> {
    match name {
        "stream-jacobi" | "stream-ll18" | "steps-small" => Ok(exec_ladder::run(
            &exec_ladder::shape(name, pass.smoke),
            pass,
        )),
        "compile-cold" => Ok(compile_cold::run(pass)),
        "serve-mixed" => serve_mixed::run(&serve_mixed::Config::new(pass.smoke), pass),
        other => Err(format!(
            "unknown workload {other}; expected one of {:?}",
            spec::WORKLOADS
        )),
    }
}

/// Builds a workload's state and prices the build.
///
/// A timed pass builds several times and reports the median, because
/// `setup_s` is a gated metric and one build is one noisy sample: it
/// repeats until a second has gone by (five builds at least, two hundred
/// at most). Each build is followed by the single-threaded reference and
/// read against it, like every deck (see [`decks`]). A traced or smoke
/// pass builds once. Each state is dropped before the next is built, so
/// peak memory stays that of one.
pub fn median_setup<T>(pass: &Pass, mut build: impl FnMut() -> T) -> (T, f64) {
    const REFERENCE_ITERS: u64 = 1_000_000;
    let nominal_ms = REFERENCE_ITERS as f64 * decks::SPIN_MS_PER_ITER;
    let once = pass.trace || pass.smoke;
    let began = Instant::now();
    let (mut measured, mut corrected) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let state = build();
        let seconds = t.elapsed().as_secs_f64();
        measured.push(seconds);
        corrected.push(seconds * nominal_ms / decks::spin_ms(REFERENCE_ITERS));
        let enough = measured.len() >= 5 && began.elapsed().as_secs_f64() >= 1.0;
        if once || enough || measured.len() >= 200 {
            println!(
                "# set-up as measured: {} builds, p50 {:.6} s",
                measured.len(),
                median(&measured)
            );
            return (state, median(&corrected));
        }
    }
}

/// Drops the warm-up sample of a series that has more than one.
pub fn after_warm_up<T>(samples: &[T]) -> &[T] {
    if samples.len() > 1 {
        &samples[1..]
    } else {
        samples
    }
}

/// The end-to-end metrics of a timed pass, from its deck log.
///
/// `op_ms` is the typical op and `op_ms_slowest` the slowest op of the
/// mix: the median over decks of each deck's median and maximum, in
/// milliseconds at the reference's nominal speed (see [`decks`]). The
/// first deck is warm-up. A workload whose deck is a single op has one
/// class of op, so the two coincide. The uncorrected median and tail of
/// the same series are printed beside them, not gated.
pub fn end_to_end(setup_s: f64, log: &DeckLog, tail_cap: u32, work_per_deck: f64) -> Metrics {
    let raw = Summary::of(after_warm_up(&log.raw_mid_ms), tail_cap);
    println!(
        "# as measured: {} decks, deck-median op p50 {:.4} ms, p{} {:.4} ms; reference p50 {:.4} ms (nominal {:.4})",
        raw.n,
        raw.p50,
        raw.tail_pct,
        raw.tail,
        median(after_warm_up(&log.ref_ms)),
        log.nominal_ref_ms,
    );
    println!(
        "# VmHWM {:.1} MB (not a metric: see heap.rs)",
        host::peak_rss_mb()
    );
    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set("op_ms", median(after_warm_up(&log.mid_ms)));
    m.set("op_ms_slowest", median(after_warm_up(&log.max_ms)));
    m.set(
        "work_per_s",
        work_per_deck / median(after_warm_up(&log.wall_s)),
    );
    m.set("peak_heap_mb", heap::peak_mb());
    m
}

/// The metrics every traced pass reports about the instrument itself.
///
/// `traced_ms` and `control_ms` are the same op's wall times with the
/// recorder on and off, alternating; their medians' ratio is what
/// recording costs.
pub fn instrument_metrics(
    rec: &Recorder,
    traced_ms: &[f64],
    control_ms: &[f64],
    ops: u64,
    smoke: bool,
    m: &mut Metrics,
) {
    if !traced_ms.is_empty() && !control_ms.is_empty() {
        m.set(
            "bench.trace_overhead_share",
            median(after_warm_up(traced_ms)) / median(after_warm_up(control_ms)) - 1.0,
        );
    }
    let selfs = rec.self_nanos();
    let op_selfs: Vec<f64> = rec
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "op")
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    if !op_selfs.is_empty() {
        m.set("bench.op_self_us", median(&op_selfs));
    }
    m.set("bench.spans", rec.spans().len() as f64);
    m.set("bench.ops", ops as f64);
    // The roofline base: 256 MB, well past every cache level here.
    let elems = if smoke { 1 << 16 } else { 32 << 20 };
    m.set(
        "host.copy_gbytes_per_s",
        median(&host::copy_gbytes_per_s(elems, 5)),
    );
}

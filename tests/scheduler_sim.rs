//! Deterministic pins of the adaptive scheduler.
//!
//! An adaptive scheduler is nondeterministic by construction — which
//! worker executes which chunk depends on host timing. These tests pin
//! the parts that are *not* allowed to vary: the claim policy itself
//! (own list front to back, seeded victim selection stealing from the
//! back, deterministic sweep fallback) replayed under the `SimClock`
//! discrete-event simulation with scripted per-chunk durations, where a
//! fixed seed must reproduce an identical steal log run after run; and
//! the runtime invariants that hold regardless of timing — every chunk
//! executes exactly once, no worker starves the phase, and results stay
//! bit-for-bit equal to serial even when one worker is pathologically
//! slow.

use shift_peel::exec::ScopedExecutor;
use shift_peel::prelude::*;

/// A skewed scripted load: worker 0 owns four heavy chunks, the other
/// three workers own two light chunks each.
fn skewed_spec(seed: u64) -> StealSimSpec {
    StealSimSpec {
        workers: 4,
        seed,
        costs: vec![100, 100, 100, 100, 10, 10, 10, 10, 10, 10],
        owners: vec![0, 0, 0, 0, 1, 1, 2, 2, 3, 3],
    }
}

/// A fixed seed reproduces the entire schedule — steal log, per-worker
/// execution order, busy times, makespan — identically on every run.
#[test]
fn fixed_seed_reproduces_an_identical_steal_log() {
    let spec = skewed_spec(DEFAULT_STEAL_SEED);
    let first = simulate_stealing(&spec);
    let second = simulate_stealing(&spec);
    assert!(
        !first.steal_log.is_empty(),
        "the skewed load must provoke steals"
    );
    assert_eq!(first, second, "same seed, same schedule");
    // A different seed is allowed to schedule differently (and here
    // does — different victim-probe order), while executing the same
    // chunks exactly once.
    let other = simulate_stealing(&skewed_spec(DEFAULT_STEAL_SEED ^ 1));
    let mut a: Vec<usize> = first.executed.concat();
    let mut b: Vec<usize> = other.executed.concat();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "every chunk executes exactly once under any seed");
}

/// Stealing flattens the scripted skew: the static assignment's busy
/// imbalance is far above the stolen schedule's, which must approach
/// 1.0 and finish strictly sooner than the slowest static worker.
#[test]
fn stealing_converges_where_static_cannot() {
    let spec = skewed_spec(DEFAULT_STEAL_SEED);
    let stolen = simulate_stealing(&spec);
    let per_worker = static_busy(&spec);
    let static_makespan = *per_worker.iter().max().unwrap();
    let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len() as f64;
    let static_imbalance = static_makespan as f64 / mean;
    assert!(
        static_imbalance > 1.5,
        "the scripted load is skewed: {static_imbalance}"
    );
    assert!(
        stolen.time_imbalance() < static_imbalance,
        "stealing {} vs static {static_imbalance}",
        stolen.time_imbalance()
    );
    assert!(
        stolen.makespan < static_makespan,
        "stolen makespan {} vs static {static_makespan}",
        stolen.makespan
    );
}

/// Starvation: one worker is scripted to be enormously slow on its
/// first chunk. The phase still completes — the other workers drain the
/// slow worker's remaining chunks — and every chunk executes exactly
/// once, with the slow worker never executing more than its first.
#[test]
fn a_slow_worker_cannot_starve_the_phase() {
    let spec = StealSimSpec {
        workers: 4,
        seed: DEFAULT_STEAL_SEED,
        // Worker 0's first chunk takes 1000x a light chunk; it owns
        // five more that it will never get to.
        costs: vec![10_000, 10, 10, 10, 10, 10, 10, 10, 10],
        owners: vec![0, 0, 0, 0, 0, 0, 1, 2, 3],
    };
    let report = simulate_stealing(&spec);
    let mut all: Vec<usize> = report.executed.concat();
    all.sort_unstable();
    assert_eq!(all, (0..spec.costs.len()).collect::<Vec<_>>());
    assert_eq!(
        report.executed[0],
        vec![0],
        "the slow worker finishes only its first chunk"
    );
    assert_eq!(
        report.makespan, 10_000,
        "the phase ends with the slow chunk, not after it"
    );
    assert!(
        report.steal_log.iter().any(|e| e.victim == 0),
        "the slow worker's list was drained by thieves"
    );
}

/// The same starvation shape on real threads: a heavily skewed kernel
/// (the narrow second nest makes the low blocks expensive) under the
/// stealing schedule completes every chunk exactly once — total work
/// counters match the static run exactly, results match serial — no
/// matter how the host schedules the workers.
#[test]
fn threaded_stealing_completes_all_chunks_under_skew() {
    let seq = shift_peel::kernels::skewed::sequence(32);
    let prog = Program::new(&seq, 1).unwrap();
    let steps = 3;
    let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
    want.init_deterministic(&seq, 11);
    for _ in 0..steps {
        prog.run(&mut want, &ExecPlan::Serial).unwrap();
    }
    let static_cfg = RunConfig::fused([4]).strip(4).steps(steps);
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&seq, 11);
    let static_report = SimExecutor.run(&prog, &mut mem, &static_cfg).unwrap();
    let mut pooled = PooledExecutor::new(4);
    for chunk in [None, Some(2), Some(3)] {
        let mut cfg = static_cfg.clone().schedule(Schedule::Stealing);
        if let Some(c) = chunk {
            cfg = cfg.chunk(c);
        }
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 11);
        let report = pooled.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(
            mem.snapshot_all(&seq),
            want.snapshot_all(&seq),
            "chunk {chunk:?}"
        );
        // Chunk boundaries legally move iterations between the fused
        // and peeled phases (interior boundaries peel like block
        // boundaries), so compare phase-independent totals: every
        // iteration, load, store, and flop happens exactly once.
        let (c, s) = (report.merged_counters(), static_report.merged_counters());
        assert_eq!(
            (c.total_iters(), c.flops, c.loads, c.stores),
            (s.total_iters(), s.flops, s.loads, s.stores),
            "chunk {chunk:?}: every chunk executed exactly once"
        );
    }
}

/// The degenerate case of the one executor core: under the static
/// schedule every block is a chunk list of one that nobody steals from.
/// On the skewed kernel the low blocks take about twice as long, so a
/// thief would have every opportunity — yet a fast worker must never
/// take a slow worker's block. That is what keeps the paper's static
/// model, per-processor miss parity, and the static-vs-stealing
/// imbalance comparison meaningful. Asserted on counters and spans
/// only, never on wall-clock, so a loaded host cannot flake it.
#[test]
fn static_schedule_never_steals_on_a_skewed_load() {
    let seq = shift_peel::kernels::skewed::sequence(48);
    let prog = Program::new(&seq, 1).unwrap();
    let cfg = RunConfig::fused([4]).strip(4).steps(5).traced();
    assert_eq!(cfg.schedule_choice(), Schedule::Static);
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&seq, 11);
    let sim = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
    let executors: [&mut dyn Executor; 2] = [&mut PooledExecutor::new(4), &mut ScopedExecutor];
    for ex in executors {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 11);
        let report = ex.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.total_steals(), 0, "{}", ex.name());
        let trace = report.trace.as_ref().expect("traced run");
        assert_eq!(trace.dropped(), 0, "ring overflow would hide steals");
        assert_eq!(
            trace.events_of(SpanKind::Steal).count(),
            0,
            "{}: static runs record no steal spans",
            ex.name()
        );
        // Every worker executed exactly its own block, every step.
        for (w, s) in report.workers.iter().zip(&sim.workers) {
            assert_eq!(w.counters, s.counters, "{} proc {}", ex.name(), w.proc);
        }
        // One fused span per worker per step: nobody ran a second block.
        for w in trace.workers.iter().filter(|w| w.proc < 4) {
            let fused = w.events.iter().filter(|e| e.kind == SpanKind::Fused);
            assert_eq!(fused.count(), 5, "{} proc {}", ex.name(), w.proc);
        }
    }
}

//! End-to-end tests of the serving subsystem.
//!
//! The acceptance bar: a second identical submission must be a
//! cache hit whose report says so (`cached`, `lower_nanos == 0`); cached
//! results must be bit-for-bit identical to uncached runs across kernels
//! and backends; deadlines, backpressure, fair share, and drain must all
//! behave without ever poisoning the shared worker pool.

use shift_peel_core::CodegenMethod;
use sp_cache::LayoutStrategy;
use sp_exec::{Backend, ExecPlan, Executor, Memory, PooledExecutor, Program, RunConfig, RunReport};
use sp_ir::LoopSequence;
use sp_kernels::{calc, jacobi, ll18};
use sp_serve::service::snapshot_digest;
use sp_serve::{
    disk_stats, ArtifactCacheConfig, CacheOutcome, JobId, JobSpec, ServeError, Service,
    ServiceConfig, RESULT_RETENTION,
};
use std::sync::mpsc;
use std::time::Duration;

fn fused(grid: &[usize]) -> ExecPlan {
    ExecPlan::Fused {
        grid: grid.to_vec(),
        method: CodegenMethod::StripMined,
        strip: 8,
    }
}

/// Reference: the same work done directly on a fresh executor, no cache,
/// no service.
fn fresh_run(seq: &LoopSequence, spec: &JobSpec) -> Vec<Vec<f64>> {
    let prog = Program::new(seq, spec.levels).expect("analysis");
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, spec.seed);
    let cfg = RunConfig::from_plan(spec.plan.clone())
        .steps(spec.steps)
        .backend(spec.backend);
    PooledExecutor::new(spec.plan.procs())
        .run(&prog, &mut mem, &cfg)
        .expect("run");
    mem.snapshot_all(seq)
}

/// Differential acceptance: for several kernels under both backends, the
/// miss run and the hit runs produce byte-identical outputs, which are in
/// turn identical to a cache-free executor run. The backend is not keyed,
/// so a kernel misses once, under the first backend, and hits after.
#[test]
fn cached_results_are_bit_identical_to_uncached() {
    let kernels: Vec<(&str, LoopSequence, Vec<usize>)> = vec![
        ("jacobi", jacobi::sequence(48), vec![2, 2]),
        ("ll18", ll18::sequence(64), vec![4]),
        ("calc", calc::sequence(64), vec![2]),
    ];
    let service = Service::new(ServiceConfig::default().workers(4));
    for (name, seq, grid) in &kernels {
        for backend in [Backend::Interp, Backend::Compiled] {
            let spec = JobSpec::new(*name, seq.clone(), fused(grid))
                .backend(backend)
                .steps(2)
                .seed(11)
                .keep_output();
            let want = fresh_run(seq, &spec);

            let a = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
            let b = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
            let cold = if backend == Backend::Interp {
                CacheOutcome::Miss
            } else {
                CacheOutcome::Memory
            };
            assert_eq!(a.cache, cold, "{name}/{backend:?}: first submission");
            assert_eq!(
                b.cache,
                CacheOutcome::Memory,
                "{name}/{backend:?}: warm is a hit"
            );
            assert_eq!(a.key, b.key, "identical specs share a content address");

            assert_eq!(
                a.output.as_deref(),
                Some(&want[..]),
                "{name}/{backend:?}: first output"
            );
            assert_eq!(
                b.output.as_deref(),
                Some(&want[..]),
                "{name}/{backend:?}: hit output"
            );
            assert_eq!(a.digest, b.digest);
            assert_eq!(
                a.digest,
                snapshot_digest(&want),
                "digest covers the snapshot"
            );
            // A reply without the arrays is digested from the live memory
            // and never snapshots: same digest, no output.
            let mut bare = spec.clone();
            bare.keep_output = false;
            let c = service.wait(service.submit(bare).unwrap()).unwrap();
            assert_eq!((c.digest, c.output), (a.digest, None));
        }
    }
    let c = service.cache_counters();
    assert_eq!(c.misses, kernels.len() as u64, "one miss per kernel");
    assert_eq!(
        c.hits,
        kernels.len() as u64 * 5,
        "every other submission of a kernel hits, under either backend"
    );
}

/// The headline acceptance check: the second identical compiled
/// submission reuses the tape — the report says `cached` and spends zero
/// time lowering — while the first lowered for real.
#[test]
fn second_identical_submission_skips_compilation() {
    let service = Service::new(ServiceConfig::default().workers(4));
    let spec = JobSpec::new("jacobi", jacobi::sequence(48), fused(&[2, 2])).steps(2);
    let cold = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
    let warm = service.wait(service.submit(spec).unwrap()).unwrap();

    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert!(!cold.report.cached, "cold report is honest about compiling");
    assert!(cold.report.lower_nanos > 0, "cold run lowered a tape");

    assert_eq!(warm.cache, CacheOutcome::Memory);
    assert!(warm.report.cached, "warm report marks the cached tape");
    assert_eq!(warm.report.lower_nanos, 0, "warm run lowered nothing");

    // The service metrics surface the same story.
    let reg = service.metrics();
    assert_eq!(reg.counter_value("spfc_cache_hits_total"), Some(1));
    assert_eq!(reg.counter_value("spfc_cache_misses_total"), Some(1));
    assert_eq!(
        reg.counter_value("spfc_serve_jobs_completed_total"),
        Some(2)
    );
    assert!(
        reg.to_prometheus().contains("spfc_cache_hits_total"),
        "prometheus rendering"
    );
}

/// A restarted service sharing the first one's cache directory derives
/// its plan again: the job is a miss and reproduces the output
/// bit-for-bit, and the lifetime stats add up both services' counts.
#[test]
fn a_restarted_service_derives_the_same_answer() {
    let dir = std::env::temp_dir().join(format!("sp-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || {
        ServiceConfig::default()
            .workers(4)
            .cache(ArtifactCacheConfig::memory(8).disk(&dir))
    };
    let spec = JobSpec::new("jacobi", jacobi::sequence(48), fused(&[2, 2]))
        .steps(2)
        .keep_output();
    let run_once = || {
        let service = Service::new(cfg());
        service.wait(service.submit(spec.clone()).unwrap()).unwrap()
    };

    let first = run_once();
    assert_eq!(first.cache, CacheOutcome::Miss);
    let again = run_once();
    assert_eq!(
        again.cache,
        CacheOutcome::Miss,
        "no plan outlives a service"
    );
    assert_eq!(again.digest, first.digest);
    assert_eq!(
        again.output, first.output,
        "the rederived plan reproduces the output"
    );
    let total = disk_stats(&dir).cache;
    assert_eq!((total.misses, total.inserts), (2, 2), "{total:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 6: a deadline that elapses *mid-execution* fails the job
/// with `ServeError::Deadline` — and the worker pool survives to run the
/// next job normally.
#[test]
fn deadline_mid_execution_does_not_poison_the_pool() {
    let service = Service::new(ServiceConfig::default().workers(4));
    // Big enough that the interpreter cannot finish within 1ms; the
    // queue is idle, so the deadline elapses during the run (a pre-start
    // expiry would be the same error either way).
    let slow = JobSpec::new("slow", jacobi::sequence(96), fused(&[2, 2]))
        .backend(Backend::Interp)
        .steps(100)
        .deadline(Duration::from_millis(1));
    let err = service.wait(service.submit(slow).unwrap()).unwrap_err();
    assert!(
        matches!(err, ServeError::Deadline { budget, .. } if budget == Duration::from_millis(1)),
        "expected Deadline, got {err:?}"
    );

    // A zero budget expires before the scheduler even starts the job.
    let stillborn =
        JobSpec::new("stillborn", jacobi::sequence(32), fused(&[2, 2])).deadline(Duration::ZERO);
    let err = service
        .wait(service.submit(stillborn).unwrap())
        .unwrap_err();
    assert!(matches!(err, ServeError::Deadline { .. }), "{err:?}");

    // The pool is intact: ordinary work still completes and is correct.
    let ok = JobSpec::new("after", jacobi::sequence(48), fused(&[2, 2]))
        .steps(2)
        .keep_output();
    let res = service.wait(service.submit(ok.clone()).unwrap()).unwrap();
    assert_eq!(
        res.output.as_deref(),
        Some(&fresh_run(&ok.seq.clone(), &ok)[..])
    );
}

/// The bounded queue pushes back instead of growing without bound.
#[test]
fn full_queue_rejects_with_queue_full() {
    let service = Service::new(ServiceConfig::default().workers(4).queue_capacity(2));
    // Occupy the scheduler with a long job so submissions stay queued.
    let long = JobSpec::new("long", jacobi::sequence(96), fused(&[2, 2]))
        .backend(Backend::Interp)
        .steps(50);
    let long_id = service.submit(long).unwrap();
    // Wait for the scheduler to pick it up so the queue is empty again.
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let quick = JobSpec::new("quick", jacobi::sequence(32), fused(&[2, 2]));
    let q1 = service.submit(quick.clone()).unwrap();
    let q2 = service.submit(quick.clone()).unwrap();
    let err = service.submit(quick.clone()).unwrap_err();
    assert_eq!(err, ServeError::QueueFull { capacity: 2 });
    // Backpressure is transient: once the queue drains, admission resumes.
    for id in [long_id, q1, q2] {
        service.wait(id).unwrap();
    }
    service.submit(quick).unwrap();
}

/// Fair share: while one client floods the queue, a second client's jobs
/// are interleaved rather than starved behind the flood.
#[test]
fn fair_share_interleaves_clients() {
    let service = Service::new(ServiceConfig::default().workers(4).queue_capacity(16));
    // Hold the scheduler so every submission below lands in the queue
    // before scheduling decisions are made.
    let blocker = JobSpec::new("blocker", jacobi::sequence(96), fused(&[2, 2]))
        .backend(Backend::Interp)
        .steps(30)
        .client("blocker");
    service.submit(blocker).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }

    let quick = |name: &str, client: &str| {
        JobSpec::new(name, jacobi::sequence(32), fused(&[2, 2])).client(client)
    };
    let a: Vec<JobId> = (0..3)
        .map(|i| service.submit(quick(&format!("a{i}"), "alice")).unwrap())
        .collect();
    let b: Vec<JobId> = (0..2)
        .map(|i| service.submit(quick(&format!("b{i}"), "bob")).unwrap())
        .collect();

    let order = |id: JobId| service.wait(id).unwrap().order;
    // FIFO would run a0 a1 a2 b0 b1; fair share interleaves: each of
    // bob's jobs starts before alice's flood finishes.
    assert!(
        order(b[0]) < order(a[1]),
        "bob's first job beats alice's second"
    );
    assert!(
        order(b[1]) < order(a[2]),
        "bob's second job beats alice's third"
    );
    // FIFO still breaks ties within one client.
    assert!(order(a[0]) < order(a[1]));
    assert!(order(a[1]) < order(a[2]));
}

/// Graceful drain: everything admitted completes, nothing new enters.
#[test]
fn drain_completes_pending_work_and_stops_admission() {
    let service = Service::new(ServiceConfig::default().workers(4));
    let spec = JobSpec::new("j", jacobi::sequence(48), fused(&[2, 2])).steps(2);
    let ids: Vec<JobId> = (0..5)
        .map(|_| service.submit(spec.clone()).unwrap())
        .collect();
    service.drain();
    // Every result is delivered before drain returns: a watcher
    // registered now is answered at once, without blocking.
    for id in ids {
        let (tx, rx) = mpsc::channel();
        service.on_done(id, tx);
        let (got, res) = rx.try_recv().expect("delivered before drain returned");
        assert_eq!(got, id);
        assert!(res.is_ok(), "drained job completed");
    }
    assert_eq!(service.submit(spec).unwrap_err(), ServeError::ShuttingDown);
}

#[test]
fn waiting_on_an_unsubmitted_id_is_an_error() {
    let service = Service::new(ServiceConfig::default());
    assert_eq!(
        service.wait(JobId(99)).unwrap_err(),
        ServeError::UnknownJob(JobId(99))
    );
}

/// The service remembers the most recent `RESULT_RETENTION` results and
/// no more: older ids answer `UnknownJob` at once — `wait` would
/// otherwise block for ever on an id that nothing will complete again —
/// and the retained ones are untouched.
#[test]
fn delivered_results_expire_oldest_first() {
    const EXTRA: usize = 5;
    let service = Service::new(ServiceConfig::default().workers(1));
    let spec = JobSpec::new("tiny", jacobi::sequence(8), ExecPlan::Serial);
    let ids: Vec<JobId> = (0..RESULT_RETENTION + EXTRA)
        .map(|_| {
            let id = service.submit(spec.clone()).unwrap();
            service.wait(id).expect("tiny job runs");
            id
        })
        .collect();
    let (expired, retained) = ids.split_at(EXTRA);
    for &id in expired {
        assert_eq!(service.wait(id).unwrap_err(), ServeError::UnknownJob(id));
    }
    for &id in retained {
        assert_eq!(service.wait(id).unwrap().id, id);
    }
    let reg = service.metrics();
    assert_eq!(
        reg.gauge_value("spfc_serve_results_retained"),
        Some(RESULT_RETENTION as f64)
    );
}

/// A block-size change — a different processor grid over the same
/// sequence — hits the artifact: the grid is not keyed. A different
/// planning configuration (blocked instead of fused) misses the artifact
/// but reuses the dependence analysis: the job plans from the analysis
/// tier instead of re-analyzing, and the per-pass metrics expose where
/// planning time went.
#[test]
fn analysis_artifact_survives_a_plan_config_change() {
    let service = Service::new(ServiceConfig::default().workers(8));
    let seq = jacobi::sequence(48);
    let run = |plan: ExecPlan| {
        service
            .wait(
                service
                    .submit(JobSpec::new("jacobi", seq.clone(), plan).keep_output())
                    .unwrap(),
            )
            .unwrap()
    };
    let a = run(fused(&[2, 2]));
    let b = run(fused(&[2, 4]));
    let blocked = run(ExecPlan::Blocked { grid: vec![2, 2] });
    assert_eq!(a.cache, CacheOutcome::Miss);
    assert_eq!(b.cache, CacheOutcome::Memory, "the grid is not keyed");
    assert_eq!(a.key, b.key);
    assert_eq!(
        blocked.cache,
        CacheOutcome::Miss,
        "the plan configuration is keyed"
    );
    assert_ne!(blocked.key, a.key);
    assert_eq!(a.digest, b.digest, "grid shape never changes results");
    assert_eq!(a.digest, blocked.digest, "fusion never changes results");
    let c = service.cache_counters();
    assert_eq!((c.hits, c.misses), (1, 2), "{c:?}");
    assert_eq!(
        c.analysis_hits, 1,
        "dependence analysis reused across the config change: {c:?}"
    );
    let reg = service.metrics();
    assert_eq!(
        reg.counter_value("spfc_cache_analysis_hits_total"),
        Some(1),
        "analysis hit surfaces in metrics"
    );
    assert!(
        reg.labeled_counter_value("spfc_pass_nanos", ("pass", "dependence"))
            .is_some(),
        "per-pass planning time is exported"
    );
}

/// One artifact serves every grid and every backend. jacobi(8)'s fused
/// range has 6 iterations a level and `Nt = 2`, so a level fits at most 3
/// blocks: on `[1, 4]` and `[4, 1]` the executor clamps the 4 to 3, and
/// nothing about the cached plan has to know. The first job misses, every
/// later one hits, every digest is the serial interpreter's, and each
/// hit does per worker exactly the work of a cache-free run on its grid.
#[test]
fn one_artifact_serves_every_grid_and_backend() {
    let seq = jacobi::sequence(8);
    let service = Service::new(ServiceConfig::default().workers(4));
    let serial = {
        let spec = JobSpec::new("jacobi", seq.clone(), ExecPlan::Serial)
            .backend(Backend::Interp)
            .steps(2)
            .seed(5);
        fresh_run(&seq, &spec)
    };
    let grids = [vec![1, 4], vec![4, 1], vec![2, 2], vec![4, 1]];
    let backends = [Backend::Interp, Backend::Compiled, Backend::Simd];
    let jobs = grids
        .iter()
        .map(|g| (g.clone(), Backend::Compiled))
        .chain(backends.iter().map(|&b| (vec![2, 2], b)));
    for (i, (grid, backend)) in jobs.enumerate() {
        let spec = JobSpec::new("jacobi", seq.clone(), fused(&grid))
            .backend(backend)
            .steps(2)
            .seed(5);
        let r = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
        let want = if i == 0 {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Memory
        };
        assert_eq!(r.cache, want, "job {i}: {grid:?} {backend:?}");
        assert_eq!(
            r.digest,
            snapshot_digest(&serial),
            "{grid:?} {backend:?}: equals serial"
        );
        if i == 0 {
            continue;
        }
        let prog = Program::new(&seq, spec.levels).expect("analysis");
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, spec.seed);
        let cfg = RunConfig::from_plan(spec.plan.clone())
            .steps(spec.steps)
            .backend(backend);
        let fresh = PooledExecutor::new(spec.plan.procs())
            .run(&prog, &mut mem, &cfg)
            .expect("run");
        let counters = |r: &RunReport| r.workers.iter().map(|w| w.counters).collect::<Vec<_>>();
        assert_eq!(
            counters(&r.report),
            counters(&fresh),
            "{grid:?} {backend:?}: per-worker work"
        );
        let busy = r
            .report
            .workers
            .iter()
            .filter(|w| w.counters.total_iters() > 0)
            .count();
        assert_eq!(busy, if grid == [2, 2] { 4 } else { 3 }, "{grid:?}: clamp");
    }
    let c = service.cache_counters();
    assert_eq!((c.misses, c.hits), (1, 6), "{c:?}");
}

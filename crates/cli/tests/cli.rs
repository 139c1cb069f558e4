//! End-to-end tests of the `spfc` driver, exercising every subcommand on
//! a temp program file (through the same code path as the binary).

use sp_cli::{run_command, Options};
use std::io::Write as _;

const PROGRAM: &str = r"
! sequence demo
! array A0 a(96)
! array A1 b(96)
! array A2 c(96)
! array A3 d(96)
L1:
  do i0 = 1, 94
    a[i0] = b[i0]
  end do
L2:
  do i0 = 1, 94
    c[i0] = (a[i0+1] + a[i0-1])
  end do
L3:
  do i0 = 1, 94
    d[i0] = (c[i0+1] + c[i0-1])
  end do
";

fn with_program(f: impl FnOnce(&str)) {
    // Tests run on parallel threads of one process: one file per call.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("spfc-test-{}-{call}.loop", std::process::id()));
    let mut file = std::fs::File::create(&path).expect("create temp program");
    file.write_all(PROGRAM.as_bytes()).expect("write");
    drop(file);
    f(path.to_str().expect("utf-8 path"));
    let _ = std::fs::remove_file(&path);
}

fn run(args: &[&str]) -> Result<String, sp_cli::CliError> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_command(&Options::parse(&owned)?)
}

#[test]
fn analyze_reports_dependences() {
    with_program(|path| {
        let out = run(&["analyze", path]).expect("analyze");
        assert!(out.contains("L1 -> L2: flow on a"), "{out}");
        assert!(out.contains("distance (-1)"), "{out}");
        assert!(out.contains("i0:doall"), "{out}");
    });
}

#[test]
fn derive_prints_table2_style_amounts() {
    with_program(|path| {
        let out = run(&["derive", path]).expect("derive");
        assert!(out.contains("L2: shift 1, peel 1"), "{out}");
        assert!(out.contains("L3: shift 2, peel 2"), "{out}");
        assert!(out.contains("Nt = 4"), "{out}");
    });
}

#[test]
fn fuse_emits_pseudocode() {
    with_program(|path| {
        let out = run(&["fuse", path, "--strip", "8"]).expect("fuse");
        assert!(out.contains("do ii0 = istart0, iend0, 8"), "{out}");
        assert!(out.contains("<BARRIER>"), "{out}");
    });
}

#[test]
fn run_verifies_fused_execution() {
    with_program(|path| {
        let out = run(&["run", path, "--procs", "3"]).expect("run");
        assert!(out.starts_with("OK:"), "{out}");
        assert!(out.contains("3 procs"), "{out}");
        assert!(out.contains("backend interp"), "{out}");
    });
}

/// Every threaded run is one pool dispatch: the pool is the default,
/// and the spawn-per-step name is refused with a pointer to it.
#[test]
fn run_defaults_to_the_pool_and_refuses_scoped() {
    with_program(|path| {
        let out = run(&["run", path, "--procs", "2", "--steps", "3"]).expect("default run");
        assert!(out.starts_with("OK: pooled result matches serial"), "{out}");
        let e = run(&["run", path, "--executor", "scoped"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--executor pooled"), "{}", e.message);
    });
}

#[test]
fn run_supports_the_adaptive_schedules() {
    with_program(|path| {
        let out = run(&[
            "run",
            path,
            "--procs",
            "3",
            "--executor",
            "pooled",
            "--schedule",
            "stealing",
            "--chunk",
            "2",
        ])
        .expect("stealing run");
        assert!(out.starts_with("OK:"), "{out}");
        assert!(out.contains("schedule stealing"), "{out}");
        assert!(out.contains("steals"), "{out}");
        let e = run(&["run", path, "--schedule", "lottery"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown schedule"), "{}", e.message);
        let e = run(&["run", path, "--schedule", "stealing", "--chunk", "0"]).unwrap_err();
        assert_eq!((e.code, e.message.as_str()), (2, "--chunk must be >= 1"));
        // The guided schedule is gone, with no alias: stealing replaces it.
        let e = run(&["run", path, "--schedule", "guided"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--schedule stealing"), "{}", e.message);
        // Self-scheduling is a schedule now, not an executor.
        let e = run(&["run", path, "--executor", "dynamic"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--schedule stealing"), "{}", e.message);
    });
}

#[test]
fn run_supports_the_compiled_backend() {
    with_program(|path| {
        let out =
            run(&["run", path, "--procs", "3", "--backend", "compiled"]).expect("compiled run");
        assert!(out.starts_with("OK:"), "{out}");
        assert!(out.contains("backend compiled"), "{out}");
        assert!(out.contains("lowered"), "{out}");
        let e = run(&["run", path, "--backend", "jit"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown backend"), "{}", e.message);
    });
}

#[test]
fn simulate_reports_both_machines() {
    with_program(|path| {
        for machine in ["ksr2", "convex"] {
            let out =
                run(&["simulate", path, "--machine", machine, "--procs", "2"]).expect("simulate");
            assert!(out.contains("speedup"), "{out}");
            assert!(out.contains("fusion improvement"), "{out}");
        }
    });
}

/// Loop fission went with PR 24, and its verb with it: no tombstone.
#[test]
fn distribute_is_an_unknown_command() {
    with_program(|path| {
        let e = run(&["distribute", path]).unwrap_err();
        assert_eq!(e.code, 2);
        let expected = format!("unknown command distribute\n{}", sp_cli::USAGE);
        assert_eq!(e.message, expected);
        assert!(!sp_cli::USAGE.contains("distribute"));
    });
}

#[test]
fn explain_narrates_fusion_decisions() {
    // A .loop file path works...
    with_program(|path| {
        let out = run(&["explain", path]).expect("explain file");
        assert!(out.contains("group @ L1:"), "{out}");
        assert!(out.contains("+ L2 joins"), "{out}");
        assert!(out.contains("shift[0] L1->L2 flow on a d=-1"), "{out}");
        assert!(out.contains("threshold (Theorem 1)"), "{out}");
        assert!(out.contains("plan: 1 group(s), 1 fused"), "{out}");
    });
    // ...and so does a suite kernel name, case-insensitively.
    let out = run(&["explain", "jacobi"]).expect("explain kernel");
    assert!(out.contains("explain jacobi: 2 nests"), "{out}");
    // Unknown names list the suite.
    let e = run(&["explain", "nosuchkernel"]).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("LL18"), "{}", e.message);
}

#[test]
fn run_exports_trace_and_metrics() {
    with_program(|path| {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("spfc-trace-{}.json", std::process::id()));
        let metrics = dir.join(format!("spfc-metrics-{}.prom", std::process::id()));
        let out = run(&[
            "run",
            path,
            "--procs",
            "2",
            "--steps",
            "2",
            "--executor",
            "pooled",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .expect("traced run");
        assert!(out.starts_with("OK:"), "{out}");
        assert!(out.contains("events across 3 lanes"), "{out}");

        // The written trace passes `spfc trace-check`. The interp run
        // records no lowering span, so the controller lane is empty and
        // only the two worker lanes carry events.
        let check = run(&["trace-check", trace.to_str().unwrap()]).expect("trace-check");
        assert!(check.starts_with("OK:"), "{check}");
        assert!(check.contains("2 lane(s), 2 step(s)"), "{check}");
        assert!(check.contains("barrier_wait"), "{check}");

        // The metrics file is Prometheus text with the run's counters.
        let text = std::fs::read_to_string(&metrics).expect("metrics file");
        assert!(text.contains("# TYPE spfc_iters_total counter"), "{text}");
        assert!(text.contains("executor=\"pooled\""), "{text}");
        assert!(text.contains("spfc_barrier_wait_nanos_bucket"), "{text}");

        // Corrupt traces are rejected with a useful message.
        std::fs::write(&trace, "{\"traceEvents\":{}}").unwrap();
        let e = run(&["trace-check", trace.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("traceEvents"), "{}", e.message);

        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&metrics);
    });
}

#[test]
fn bad_inputs_are_reported() {
    // Unknown command.
    with_program(|path| {
        let e = run(&["explode", path]).unwrap_err();
        assert_eq!(e.code, 2);
    });
    // Missing file.
    let e = run(&["analyze", "/nonexistent/prog.loop"]).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("cannot read"));
    // Missing args.
    let e = Options::parse(&[]).unwrap_err();
    assert_eq!(e.code, 2);
}

/// Counts below 1 are usage errors at parse time: `--procs 0` would
/// otherwise reach the worker pool, which cannot be built without
/// workers, before the run's own validation.
#[test]
fn zero_procs_is_a_usage_error() {
    with_program(|path| {
        let e = run(&["run", path, "--procs", "0"]).unwrap_err();
        assert_eq!((e.code, e.message.as_str()), (2, "--procs must be >= 1"));
    });
}

/// `fuse` would otherwise print a strip loop with a step of 0.
#[test]
fn zero_strip_is_a_usage_error() {
    with_program(|path| {
        for strip in ["0", "-3"] {
            let e = run(&["fuse", path, "--strip", strip]).unwrap_err();
            assert_eq!((e.code, e.message.as_str()), (2, "--strip must be >= 1"));
        }
    });
}

#[test]
fn zero_steps_is_a_usage_error() {
    with_program(|path| {
        let e = run(&["run", path, "--steps", "0"]).unwrap_err();
        assert_eq!((e.code, e.message.as_str()), (2, "--steps must be >= 1"));
    });
}

/// The simulator builds one cache hierarchy per processor: a count above
/// the machine's is refused before any is built, naming the machine's.
#[test]
fn simulate_refuses_more_procs_than_the_machine_has() {
    with_program(|path| {
        let e = run(&["simulate", path, "--machine", "convex", "--procs", "17"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("16 processors"), "{}", e.message);
        let out = run(&["simulate", path, "--machine", "convex", "--procs", "16"])
            .expect("the machine's own count");
        assert!(out.contains("@ 16 procs"), "{out}");
    });
}

#[test]
fn binary_runs_end_to_end() {
    // Drive the actual binary once to cover main().
    with_program(|path| {
        let exe = env!("CARGO_BIN_EXE_spfc");
        let out = std::process::Command::new(exe)
            .args(["derive", path])
            .output()
            .expect("spawn spfc");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("shift 2"), "{text}");
    });
}

#[test]
fn list_prints_the_suite() {
    let out = run(&["list"]).expect("list");
    for name in [
        "LL18", "calc", "filter", "tomcatv", "hydro2d", "spem", "jacobi",
    ] {
        assert!(out.contains(name), "{name} missing from:\n{out}");
    }
    assert!(
        out.contains("kernel="),
        "points at the manifest syntax: {out}"
    );
}

/// `serve` + `cache` round trip: two runs of the same manifest against
/// one cache dir — each run derives its plans afresh and hits only via
/// repeat=, `cache stats` aggregates lifetime counters across both
/// processes, and `cache clear` resets them.
#[test]
fn serve_and_cache_round_trip() {
    let dir = std::env::temp_dir().join(format!("spfc-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = dir.join("jobs.manifest");
    std::fs::write(
        &manifest,
        "# two copies of each job: the second is a memory hit\n\
         job warm kernel=jacobi grid=2x2 steps=2 repeat=2\n\
         job cold kernel=ll18 client=alice procs=2 repeat=2\n",
    )
    .expect("write manifest");
    let cache_dir = dir.join("cache");
    let serve = |tag: &str| {
        run(&[
            "serve",
            "--jobs",
            manifest.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .unwrap_or_else(|e| panic!("{tag}: {e}"))
    };

    let first = serve("first run");
    assert_eq!(first.matches(" miss ").count(), 2, "{first}");
    assert_eq!(
        first.matches(" hit ").count(),
        2,
        "repeat= jobs hit in memory: {first}"
    );
    assert!(first.contains("4 ok, 0 failed"), "{first}");

    // A second process derives its plans again.
    let second = serve("second run");
    assert_eq!(second.matches(" miss ").count(), 2, "{second}");
    assert_eq!(second.matches(" hit ").count(), 2, "{second}");
    assert!(
        second.contains("cache: 2 hits, 2 misses, 2 inserts"),
        "{second}"
    );

    // Identical digests across runs: rederived plans reproduce outputs.
    let digest_of = |out: &str, job: &str| -> String {
        out.lines()
            .find(|l| l.contains(job))
            .and_then(|l| l.split("digest=").nth(1))
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("no digest for {job}"))
            .to_string()
    };
    assert_eq!(digest_of(&first, "warm"), digest_of(&second, "warm"));
    assert_eq!(digest_of(&first, "cold"), digest_of(&second, "cold"));

    let stats =
        run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()]).expect("cache stats");
    // 2 hits and 2 misses from each run.
    assert!(stats.contains("lifetime: 4 hits, 4 misses"), "{stats}");

    let cleared =
        run(&["cache", "clear", "--cache-dir", cache_dir.to_str().unwrap()]).expect("cache clear");
    assert!(cleared.contains("cleared the lifetime stats"), "{cleared}");
    let stats = run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .expect("stats after clear");
    assert!(stats.contains("lifetime: 0 hits"), "{stats}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_cache_report_usage_errors() {
    let e = run(&["serve"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--jobs"), "{}", e.message);
    let e = run(&["cache", "stats"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--cache-dir"), "{}", e.message);
    let e = run(&["cache", "shrink", "--cache-dir", "/tmp"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("unknown cache action"), "{}", e.message);
    let e = run(&["serve", "--jobs", "/nonexistent.manifest"]).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("cannot read"), "{}", e.message);
}

/// ISSUE 8 tentpole, CLI surface: a traced multi-job serve run exports
/// one session Chrome trace that `spfc trace-check` validates, reports
/// stage latencies and outcomes inline, and `cache stats` surfaces the
/// persisted stage latencies afterwards.
#[test]
fn traced_serve_exports_a_session_trace_and_stage_stats() {
    let dir = std::env::temp_dir().join(format!("spfc-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = dir.join("jobs.manifest");
    std::fs::write(
        &manifest,
        "job a kernel=jacobi grid=2x2 steps=2 repeat=2\n\
         job b kernel=ll18 client=alice procs=2\n",
    )
    .expect("write manifest");
    let cache_dir = dir.join("cache");
    let trace = dir.join("session.trace.json");
    let metrics = dir.join("serve.prom");

    let out = run(&[
        "serve",
        "--jobs",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("traced serve");
    assert!(out.contains("3 ok, 0 failed"), "{out}");
    assert!(
        out.contains("outcomes: 3 ok, 0 deadline, 0 rejected"),
        "{out}"
    );
    assert!(out.contains("stage latency"), "{out}");
    assert!(out.contains("execute"), "{out}");
    assert!(out.contains("wrote"), "{out}");
    assert!(out.contains("3 jobs across"), "{out}");

    // The session trace passes the same schema gate single-run traces do.
    let check = run(&["trace-check", trace.to_str().unwrap()]).expect("trace-check");
    assert!(check.starts_with("OK:"), "{check}");
    for stage in ["enqueue", "queue_wait", "execute", "respond"] {
        assert!(check.contains(stage), "missing {stage}: {check}");
    }

    // The Prometheus snapshot has the stage histograms + outcome totals.
    let prom = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(
        prom.contains("spfc_serve_jobs_total{component=\"sp-serve\",outcome=\"ok\"} 3"),
        "{prom}"
    );
    assert!(prom.contains("spfc_serve_stage_nanos_bucket"), "{prom}");

    // Stage latencies persisted beside the cache stats.
    let stats =
        run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()]).expect("cache stats");
    assert!(stats.contains("serve outcomes: 3 ok"), "{stats}");
    assert!(stats.contains("serve stage latency"), "{stats}");
    assert!(stats.contains("queue_wait"), "{stats}");

    // `cache clear` also resets the stage stats.
    run(&["cache", "clear", "--cache-dir", cache_dir.to_str().unwrap()]).expect("clear");
    let stats = run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .expect("stats after clear");
    assert!(!stats.contains("serve stage latency"), "{stats}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `spfc bench check` reads `BENCH_runtime.json` and nothing else: a
/// pair of directories holding only that file passes, a stale artifact
/// of a deleted instrument in the baseline is ignored, an injected simd
/// collapse fails with a nonzero exit and a machine-readable verdict,
/// and an empty baseline is an error rather than a pass.
#[test]
fn bench_check_gates_regressions() {
    let dir = std::env::temp_dir().join(format!("spfc-bench-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (base, cur, empty) = (dir.join("base"), dir.join("cur"), dir.join("empty"));
    for d in [&base, &cur, &empty] {
        std::fs::create_dir_all(d).expect("mkdir");
    }
    let runtime = r#"{"kernels":[{"kernel":"jacobi","rows":[
        {"steps":4,"pooled":{"iters_per_sec":100.0},"compiled":{"iters_per_sec":200.0},
         "simd":{"iters_per_sec":400.0}}]}]}"#;
    for d in [&base, &cur] {
        std::fs::write(d.join("BENCH_runtime.json"), runtime).expect("write");
    }
    let verdict = dir.join("verdict.json");
    let check = |baseline: &std::path::Path| {
        run(&[
            "bench",
            "check",
            "--baseline-dir",
            baseline.to_str().unwrap(),
            "--current-dir",
            cur.to_str().unwrap(),
            "--json-out",
            verdict.to_str().unwrap(),
        ])
    };

    let out = check(&base).expect("identical artifacts pass");
    assert!(out.contains("bench check: PASS (3 metrics"), "{out}");
    let json = std::fs::read_to_string(&verdict).expect("verdict");
    assert!(json.contains("\"passed\":true"), "{json}");

    // A copy of a pre-PR-24 results/ as the baseline: the serve artifact
    // is not read, so nothing is "missing from current artifacts".
    std::fs::write(
        base.join("BENCH_serve.json"),
        r#"{"warm":{"jobs_per_sec":1400.0},"warm_over_cold":1.3,"digest_match":true}"#,
    )
    .expect("write");
    let out = check(&base).expect("a stale serve artifact is ignored");
    assert!(out.contains("bench check: PASS (3 metrics"), "{out}");

    // Inject a collapse in the current artifact: the gate must fail.
    std::fs::write(
        cur.join("BENCH_runtime.json"),
        runtime.replace("400.0", "4.0"),
    )
    .expect("write");
    let err = check(&base).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(
        err.message.contains("bench regression detected"),
        "{}",
        err.message
    );
    assert!(
        err.message
            .contains("FAIL runtime.jacobi.simd.iters_per_sec"),
        "{}",
        err.message
    );
    let json = std::fs::read_to_string(&verdict).expect("verdict");
    assert!(json.contains("\"passed\":false"), "{json}");

    // Nothing to gate against is a failure too.
    let err = check(&empty).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(
        err.message.contains("no gated metrics found in baseline"),
        "{}",
        err.message
    );

    // Usage errors.
    let e = run(&["bench", "check"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--baseline-dir"), "{}", e.message);
    let e = run(&["bench", "tune", "--baseline-dir", "/tmp"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("unknown bench action"), "{}", e.message);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--listen-metrics` binds an ephemeral port and reports it; the serve
/// output confirms the endpoint lived for the run.
#[test]
fn serve_listen_metrics_binds_and_reports() {
    let dir = std::env::temp_dir().join(format!("spfc-serve-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = dir.join("jobs.manifest");
    std::fs::write(&manifest, "job a kernel=jacobi grid=2x2\n").expect("write manifest");
    let out = run(&[
        "serve",
        "--jobs",
        manifest.to_str().unwrap(),
        "--listen-metrics",
        "127.0.0.1:0",
    ])
    .expect("serve with endpoint");
    assert!(
        out.contains("metrics endpoint served on 127.0.0.1:"),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire tier end to end through the CLI: `serve --listen` on an
/// ephemeral port (discovered via --addr-file), kernel and .loop
/// submissions with a warm resubmit, ping, and a drain that unblocks
/// the server and yields the per-tenant summary.
#[test]
fn serve_listen_and_submit_round_trip() {
    let dir = std::env::temp_dir().join(format!("spfc-net-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let addr_file = dir.join("addr");
    let metrics = dir.join("metrics.prom");

    let serve_args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--workers",
        "2",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || {
        run_command(&Options::parse(&serve_args).expect("parse serve")).expect("serve --listen")
    });

    // Port discovery: the server writes its bound address once up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never wrote {addr_file:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };

    // A suite kernel by name, cold then warm.
    let cold = run(&[
        "submit",
        "--connect",
        &addr,
        "jacobi",
        "--tenant",
        "alice",
        "--procs",
        "2",
    ])
    .expect("cold submit");
    assert!(cold.contains("tenant=alice"), "{cold}");
    assert!(cold.contains("miss"), "{cold}");
    assert!(cold.contains("report:"), "{cold}");
    assert!(cold.contains("digest="), "{cold}");
    let warm = run(&[
        "submit",
        "--connect",
        &addr,
        "jacobi",
        "--tenant",
        "alice",
        "--procs",
        "2",
    ])
    .expect("warm submit");
    assert!(warm.contains("hit"), "{warm}");

    // A window: the job list twice, every job reported, then the
    // throughput line.
    let windowed = run(&[
        "submit",
        "--connect",
        &addr,
        "jacobi",
        "--tenant",
        "alice",
        "--procs",
        "2",
        "--window",
        "3",
        "--repeat",
        "2",
    ])
    .expect("windowed submit");
    let reports = windowed.lines().filter(|l| l.starts_with("job ")).count();
    assert_eq!(reports, 2, "one report per job:\n{windowed}");
    assert!(
        windowed.contains("pipelined 2 jobs, window 3: "),
        "{windowed}"
    );
    assert!(windowed.contains(" jobs/s)"), "{windowed}");

    // A .loop file goes over the wire too, under another tenant.
    with_program(|path| {
        let out = run(&[
            "submit",
            "--connect",
            &addr,
            path,
            "--tenant",
            "bob",
            "--backend",
            "compiled",
            "--procs",
            "2",
        ])
        .expect("file submit");
        assert!(out.contains("tenant=bob"), "{out}");
        assert!(out.contains("backend compiled"), "{out}");
    });

    let ping = run(&["submit", "--connect", &addr, "ping"]).expect("ping");
    assert!(ping.contains("us"), "{ping}");

    let drain = run(&["submit", "--connect", &addr, "drain"]).expect("drain");
    assert!(drain.contains("drained"), "{drain}");

    let summary = server.join().expect("server thread");
    assert!(summary.contains("drained:"), "{summary}");
    assert!(summary.contains("tenant alice"), "{summary}");
    assert!(summary.contains("tenant bob"), "{summary}");
    // Listen mode ends with the same tail as manifest mode.
    assert!(summary.contains("\nanalysis: "), "{summary}");
    let prom = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(prom.contains("spfc_serve_tenant_jobs_total"), "{prom}");
    assert!(prom.contains("spfc_net_text_hits_total"), "{prom}");
    assert!(prom.contains("tenant=\"alice\""), "{prom}");
    assert!(prom.contains("tenant=\"bob\""), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Usage errors for the wire commands: submit without --connect, serve
/// with both modes at once, and unreachable servers fail cleanly.
#[test]
fn wire_commands_report_usage_errors() {
    let e = run(&["submit", "jacobi"]).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--connect"), "{}", e.message);

    let e = run(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--jobs",
        "/nonexistent.manifest",
    ])
    .unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("not both"), "{}", e.message);

    // Nothing listens on a reserved port of the discard range.
    let e = run(&["submit", "--connect", "127.0.0.1:9", "jacobi"]).unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("cannot connect"), "{}", e.message);
}

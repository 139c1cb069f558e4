//! # sp-cli — the `spfc` command-line tool
//!
//! A small driver exposing the library's pipeline over textual loop
//! programs (the dialect of `sp_ir::parse`):
//!
//! ```text
//! spfc analyze  prog.loop             # dependences + parallelism
//! spfc derive   prog.loop             # shift/peel amounts per dimension
//! spfc fuse     prog.loop [--strip N] # emit the fused pseudocode
//! spfc run      prog.loop [--procs N] # execute fused vs serial, verify
//! spfc simulate prog.loop [--machine ksr2|convex] [--procs N]
//! spfc serve --listen ADDR            # SPFC wire server until drained
//! spfc submit --connect ADDR jacobi   # run a job on a remote server
//! ```
//!
//! The logic lives here (returning strings) so both `main` and the
//! integration tests drive exactly the same code.

use shift_peel_core::analysis::{derive_levels, render_plan};
use shift_peel_core::{CodegenMethod, Planner};
use sp_cache::LayoutStrategy;
use sp_dep::{analyze_sequence, describe_deps};
use sp_exec::{
    register_pass_metrics, Backend, ExecPlan, Executor, Memory, PooledExecutor, Program, RunConfig,
    Schedule, SimExecutor,
};
use sp_ir::{parse_sequence, LoopSequence};
use sp_machine::{simulate, SimPlan, CONVEX_SPP1000, KSR2};
use sp_net::{Client, ClientConfig, NetServer};
use sp_serve::{
    clear_disk, disk_stats, parse_manifest, ArtifactCacheConfig, JobSpec, LifetimeStats,
    MetricsRender, MetricsServer, ServeError, Service, ServiceConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn fail<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError {
        message: message.into(),
        code: 1,
    })
}

fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError {
        message: message.into(),
        code: 2,
    })
}

/// The value of a count flag (`--procs`, `--strip`, ...): a number of at
/// least 1, or a usage error naming the flag.
fn count<T: std::str::FromStr + PartialOrd + From<u8>>(flag: &str, v: &str) -> Result<T, CliError> {
    match v.parse() {
        Ok(n) if n >= T::from(1) => Ok(n),
        Ok(_) => usage(format!("{flag} must be >= 1")),
        Err(_) => usage(format!("bad {flag}")),
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The subcommand.
    pub command: String,
    /// The program source path.
    pub path: String,
    /// `--procs N` (default 4).
    pub procs: usize,
    /// `--strip N` (default 16).
    pub strip: i64,
    /// `--machine ksr2|convex` (default convex).
    pub machine: String,
    /// `--executor pooled|sim` (default pooled).
    pub executor: String,
    /// `--steps N` timesteps (default 1).
    pub steps: usize,
    /// `--backend interp|compiled|simd` (default interp).
    pub backend: String,
    /// `--schedule static|stealing` (default static).
    pub schedule: String,
    /// `--chunk N`: chunk rows for the stealing schedule (default
    /// auto: four chunks per static block).
    pub chunk: Option<i64>,
    /// `--trace-out FILE`: run with per-worker event tracing enabled and
    /// write the Chrome trace-event JSON here.
    pub trace_out: Option<String>,
    /// `--metrics-out FILE`: write the run's Prometheus metrics here.
    pub metrics_out: Option<String>,
    /// `--jobs FILE`: the job manifest for `serve`.
    pub jobs: Option<String>,
    /// `--cache-dir DIR`: where `serve` adds up and `cache` reads its
    /// lifetime stats.
    pub cache_dir: Option<String>,
    /// `--workers N`: worker-pool size for `serve` (default 4, grown to
    /// the widest grid in the manifest).
    pub workers: usize,
    /// `--queue N`: bounded queue capacity for `serve` (default 64).
    pub queue: usize,
    /// `--listen-metrics ADDR`: serve `/metrics` + `/healthz` over HTTP
    /// for the duration of the `serve` run.
    pub listen_metrics: Option<String>,
    /// `--listen ADDR`: run `serve` as a wire server for remote
    /// `spfc submit` clients instead of a job manifest.
    pub listen: Option<String>,
    /// `--addr-file FILE`: write the bound listen address here once the
    /// wire server is up (port discovery for scripts and tests).
    pub addr_file: Option<String>,
    /// `--connect ADDR`: the wire server `submit` talks to.
    pub connect: Option<String>,
    /// `--tenant NAME`: the tenant id `submit` runs under (fair-share
    /// bucket and quota key on the server; default "default").
    pub tenant: String,
    /// `--deadline-ms N`: round-trip deadline budget for `submit`.
    pub deadline_ms: Option<u64>,
    /// `--window N`: keep up to N submissions in flight on the one
    /// `submit` connection (1 = one request at a time).
    pub window: usize,
    /// `--repeat N`: submit the resolved job list N times (gives a
    /// pipelining window something to fill).
    pub repeat: usize,
    /// `--baseline-dir DIR`: committed bench artifacts for `bench check`.
    pub baseline_dir: Option<String>,
    /// `--current-dir DIR`: fresh bench artifacts for `bench check`
    /// (default `results`).
    pub current_dir: Option<String>,
    /// `--tolerance F`: fractional regression band override for
    /// `bench check`.
    pub tolerance: Option<f64>,
    /// `--json-out FILE`: machine-readable `bench check` verdict.
    pub json_out: Option<String>,
}

impl Options {
    /// Parses `args` (without the binary name).
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut it = args.iter();
        let Some(command) = it.next() else {
            return usage(USAGE);
        };
        let mut opts = Options {
            command: command.clone(),
            path: String::new(),
            procs: 4,
            strip: 16,
            machine: "convex".to_string(),
            executor: "pooled".to_string(),
            steps: 1,
            backend: "interp".to_string(),
            schedule: "static".to_string(),
            chunk: None,
            trace_out: None,
            metrics_out: None,
            jobs: None,
            cache_dir: None,
            workers: 4,
            queue: 64,
            listen_metrics: None,
            listen: None,
            addr_file: None,
            connect: None,
            tenant: "default".to_string(),
            deadline_ms: None,
            window: 1,
            repeat: 1,
            baseline_dir: None,
            current_dir: None,
            tolerance: None,
            json_out: None,
        };
        // The first non-flag token is the positional argument: the
        // program path, a `cache`/`bench` action, or a `submit` target.
        // It may come before or after the flags.
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") && opts.path.is_empty() {
                opts.path = flag.clone();
                continue;
            }
            let mut take = || -> Result<&String, CliError> {
                match it.next() {
                    Some(v) => Ok(v),
                    None => Err(CliError {
                        message: format!("{flag} needs a value"),
                        code: 2,
                    }),
                }
            };
            match flag.as_str() {
                "--procs" => opts.procs = count(flag, take()?)?,
                "--strip" => opts.strip = count(flag, take()?)?,
                "--machine" => {
                    opts.machine = take()?.clone();
                }
                "--executor" => {
                    opts.executor = take()?.clone();
                }
                "--backend" => {
                    opts.backend = take()?.clone();
                }
                "--schedule" => {
                    opts.schedule = take()?.clone();
                }
                "--chunk" => opts.chunk = Some(count(flag, take()?)?),
                "--steps" => opts.steps = count(flag, take()?)?,
                "--trace-out" => {
                    opts.trace_out = Some(take()?.clone());
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(take()?.clone());
                }
                "--jobs" => {
                    opts.jobs = Some(take()?.clone());
                }
                "--cache-dir" => {
                    opts.cache_dir = Some(take()?.clone());
                }
                "--workers" => {
                    opts.workers = take()?.parse().map_err(|_| CliError {
                        message: "bad --workers".into(),
                        code: 2,
                    })?;
                }
                "--queue" => {
                    opts.queue = take()?.parse().map_err(|_| CliError {
                        message: "bad --queue".into(),
                        code: 2,
                    })?;
                }
                "--listen-metrics" => {
                    opts.listen_metrics = Some(take()?.clone());
                }
                "--listen" => {
                    opts.listen = Some(take()?.clone());
                }
                "--addr-file" => {
                    opts.addr_file = Some(take()?.clone());
                }
                "--connect" => {
                    opts.connect = Some(take()?.clone());
                }
                "--tenant" => {
                    opts.tenant = take()?.clone();
                }
                "--deadline-ms" => {
                    opts.deadline_ms = Some(take()?.parse().map_err(|_| CliError {
                        message: "bad --deadline-ms".into(),
                        code: 2,
                    })?);
                }
                "--window" => opts.window = count(flag, take()?)?,
                "--repeat" => opts.repeat = count(flag, take()?)?,
                "--baseline-dir" => {
                    opts.baseline_dir = Some(take()?.clone());
                }
                "--current-dir" => {
                    opts.current_dir = Some(take()?.clone());
                }
                "--tolerance" => {
                    let v: f64 = take()?.parse().map_err(|_| CliError {
                        message: "bad --tolerance".into(),
                        code: 2,
                    })?;
                    if !(0.0..1.0).contains(&v) {
                        return usage("--tolerance must be in [0, 1)");
                    }
                    opts.tolerance = Some(v);
                }
                "--json-out" => {
                    opts.json_out = Some(take()?.clone());
                }
                other => return usage(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        // `list` and `serve` take no positional argument; everything
        // else needs one.
        if opts.path.is_empty() {
            match command.as_str() {
                "list" | "serve" => {}
                "cache" => return usage(format!("cache needs an action (stats|clear)\n{USAGE}")),
                "bench" => return usage(format!("bench needs an action (check)\n{USAGE}")),
                "submit" => {
                    return usage(format!(
                        "submit needs a program, kernel name, drain, or ping\n{USAGE}"
                    ))
                }
                _ => return usage(format!("missing program path\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// The usage string.
pub const USAGE: &str = "usage: spfc \
<analyze|derive|fuse|explain|run|simulate|trace-check> <prog.loop|kernel|trace.json> \
[--procs N] [--strip N] [--steps N] [--machine ksr2|convex] \
[--executor pooled|sim] [--backend interp|compiled|simd] \
[--schedule static|stealing] [--chunk N] \
[--trace-out FILE] [--metrics-out FILE]\n\
       spfc list\n\
       spfc serve --jobs FILE [--cache-dir DIR] [--workers N] [--queue N] \
[--trace-out FILE] [--metrics-out FILE] [--listen-metrics ADDR]\n\
       spfc serve --listen ADDR [--cache-dir DIR] [--workers N] [--queue N] \
[--trace-out FILE] [--metrics-out FILE] [--listen-metrics ADDR] [--addr-file FILE]\n\
       spfc submit --connect ADDR <prog.loop|kernel|drain|ping> \
[--tenant NAME] [--procs N] [--strip N] [--steps N] \
[--backend interp|compiled|simd] [--schedule static|stealing] \
[--deadline-ms N] [--window N] [--repeat N]\n\
       spfc cache <stats|clear> --cache-dir DIR\n\
       spfc bench check --baseline-dir DIR [--current-dir DIR] \
[--tolerance F] [--json-out FILE]\n\
  explain takes a .loop path or a suite kernel name (ll18, calc, filter, \
tomcatv, hydro2d, spem, jacobi) and prints every fusion/derivation decision.\n\
  trace-check validates a Chrome trace-event JSON written by --trace-out \
(single-run or serve-session).\n\
  list prints the suite kernels a job manifest's kernel= can name.\n\
  serve runs a job manifest through the caching job service; --trace-out \
exports the whole session as one Chrome trace, --listen-metrics serves \
/metrics and /healthz over HTTP while the manifest runs; with --listen it \
instead serves the SPFC wire protocol until a client drains it; \
--cache-dir DIR adds each run's cache and stage-latency counts to lifetime \
stats in DIR, which cache stats reads and cache clear resets.\n\
  submit sends a program (a .loop file or suite kernel name) to a \
`serve --listen` server over TCP and prints the returned run report; \
`submit drain` quiesces the server, `submit ping` measures the round trip; \
--window N pipelines up to N submissions on the one connection and \
--repeat N submits the job list N times.\n\
  bench check gates a fresh results/BENCH_runtime.json against a committed \
baseline copy within a tolerance band; nonzero exit on regression.";

fn parse_backend(s: &str) -> Result<Backend, CliError> {
    match Backend::parse(s) {
        Some(backend) => Ok(backend),
        None => usage(format!("unknown backend {s} (interp|compiled|simd)")),
    }
}

fn parse_schedule(s: &str) -> Result<Schedule, CliError> {
    match Schedule::parse(s) {
        Some(sched) => Ok(sched),
        None if s == "guided" => usage("the guided schedule is gone: use --schedule stealing"),
        None => usage(format!("unknown schedule {s} (static|stealing)")),
    }
}

fn load(path: &str) -> Result<LoopSequence, CliError> {
    let src = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read {path}: {e}"),
        code: 1,
    })?;
    let seq = parse_sequence(&src).map_err(|e| CliError {
        message: format!("{path}: {e}"),
        code: 1,
    })?;
    if let Err(errs) = seq.validate() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return fail(format!("{path}: invalid program:\n  {}", msgs.join("\n  ")));
    }
    Ok(seq)
}

/// The scale `spfc explain <kernel>` builds suite kernels at — the same
/// scale the Table 1/2 regressions and goldens use, so the explained
/// amounts match the pinned ones.
const EXPLAIN_SCALE: f64 = 0.125;

/// Resolves `explain`'s argument: an existing `.loop` file, or a suite
/// kernel name (case-insensitive: `ll18`, `jacobi`, ...) built at
/// [`EXPLAIN_SCALE`]. Kernels may expand to several loop sequences.
fn resolve_sequences(path: &str) -> Result<Vec<LoopSequence>, CliError> {
    if std::path::Path::new(path).exists() {
        return Ok(vec![load(path)?]);
    }
    let suite = sp_kernels::suite::all_programs();
    if let Some(entry) = suite
        .iter()
        .find(|e| e.meta.name.eq_ignore_ascii_case(path))
    {
        return Ok((entry.build)(EXPLAIN_SCALE).sequences);
    }
    let names: Vec<&str> = suite.iter().map(|e| e.meta.name).collect();
    fail(format!(
        "{path} is neither a readable .loop file nor a suite kernel (one of {})",
        names.join(", ")
    ))
}

/// `spfc explain`: print every decision the planner and derivation made.
fn explain_command(opts: &Options) -> Result<String, CliError> {
    let mut out = String::new();
    for seq in resolve_sequences(&opts.path)? {
        let (planned, trace) = Planner::fused(1).explain(&seq).map_err(|e| CliError {
            message: e.to_string(),
            code: 1,
        })?;
        let plan = &planned.plan;
        let _ = writeln!(
            out,
            "explain {}: {} nests, fusing 1 of {} level(s)",
            seq.name,
            seq.len(),
            seq.nests.first().map(|n| n.depth()).unwrap_or(0),
        );
        out.push_str(&trace.render(&seq));
        let _ = writeln!(
            out,
            "plan: {} group(s), {} fused, longest {}, max shift {}, max peel {}",
            plan.groups.len(),
            plan.fused_group_count(),
            plan.longest_group(),
            plan.max_shift(),
            plan.max_peel(),
        );
    }
    Ok(out)
}

/// `spfc trace-check`: validate a Chrome trace-event JSON file.
fn trace_check_command(opts: &Options) -> Result<String, CliError> {
    let json = std::fs::read_to_string(&opts.path).map_err(|e| CliError {
        message: format!("cannot read {}: {e}", opts.path),
        code: 1,
    })?;
    let summary = sp_trace::validate_chrome_trace(&json).map_err(|e| CliError {
        message: format!("{}: {e}", opts.path),
        code: 1,
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "OK: {} spans across {} lane(s), {} step(s)",
        summary.span_count,
        summary.lanes.len(),
        summary.steps.len(),
    );
    let _ = writeln!(out, "span kinds: {}", summary.names.join(", "));
    Ok(out)
}

/// `spfc list`: the suite kernels `serve` manifests and `explain` can
/// name.
fn list_command() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "suite kernels (paper Table 1); use with `spfc explain <name>` or kernel= in a job manifest:");
    for e in sp_kernels::suite::all_programs() {
        let _ = writeln!(
            out,
            "  {:<8} {} ({} sequence(s), longest {}, max shift {}, max peel {})",
            e.meta.name,
            e.meta.description,
            e.meta.num_sequences,
            e.meta.longest_sequence,
            e.meta.max_shift,
            e.meta.max_peel,
        );
    }
    Ok(out)
}

/// `spfc serve --jobs FILE`: run a job manifest through the caching job
/// service and report one line per job plus throughput, stage-latency,
/// and outcome summaries. `--trace-out` exports the whole session as
/// one Chrome trace; `--listen-metrics` serves live Prometheus text
/// over HTTP while the manifest runs.
fn serve_command(opts: &Options) -> Result<String, CliError> {
    if opts.listen.is_some() {
        if opts.jobs.is_some() {
            return usage(
                "serve takes either --jobs (manifest mode) or --listen (wire mode), not both",
            );
        }
        return serve_listen_command(opts);
    }
    let Some(jobs_path) = &opts.jobs else {
        return usage(format!("serve needs --jobs FILE or --listen ADDR\n{USAGE}"));
    };
    let text = std::fs::read_to_string(jobs_path).map_err(|e| CliError {
        message: format!("cannot read {jobs_path}: {e}"),
        code: 1,
    })?;
    let specs = parse_manifest(&text).map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })?;

    // The pool must cover the widest grid any job asks for.
    let workers = specs
        .iter()
        .map(|s| s.plan.procs())
        .max()
        .unwrap_or(1)
        .max(opts.workers);
    let service = serve_service(opts, workers);
    let svc = Arc::clone(&service);
    let metrics: MetricsRender = Arc::new(move || svc.metrics().to_prometheus());
    let endpoint = metrics_endpoint(opts, &metrics)?;

    let started = std::time::Instant::now();
    // Results are read in submission order, the oldest outstanding one
    // whenever the queue pushes back: the service remembers only its most
    // recent `RESULT_RETENTION` results, so a manifest longer than that
    // must not leave them all unread until the end.
    let mut outstanding = std::collections::VecDeque::new();
    let mut results = Vec::with_capacity(specs.len());
    for spec in specs {
        loop {
            if outstanding.len() < sp_serve::RESULT_RETENTION {
                match service.submit(spec.clone()) {
                    Ok(id) => break outstanding.push_back(id),
                    Err(ServeError::QueueFull { .. }) => {}
                    Err(e) => return fail(e.to_string()),
                }
            }
            match outstanding.pop_front() {
                Some(id) => results.push((id, service.wait(id))),
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
    }
    results.extend(outstanding.into_iter().map(|id| (id, service.wait(id))));
    let mut out = String::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    for (id, res) in results {
        match res {
            Ok(r) => {
                ok += 1;
                let _ = writeln!(
                    out,
                    "job {id} {:<12} client={} {:<8} digest={:016x} run {:>8} us (queued {} us)",
                    r.name,
                    r.client,
                    r.cache.name(),
                    r.digest,
                    r.run_nanos / 1_000,
                    r.queued_nanos / 1_000,
                );
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "job {id} FAILED: {e}");
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "{ok} ok, {failed} failed in {secs:.3} s ({:.1} jobs/s) on {workers} workers",
        ok as f64 / secs.max(1e-9),
    );
    let stats = service.stage_stats();
    let _ = writeln!(
        out,
        "outcomes: {} ok, {} deadline, {} rejected",
        stats.ok, stats.deadline, stats.rejected,
    );
    finish_serve(&mut out, opts, &service, &metrics, endpoint)?;
    Ok(out)
}

/// `spfc serve --listen ADDR`: run the wire server until some client
/// drains it, then print the session summary (outcomes, per-tenant
/// counts, cache counters, stage latency). The bound address goes to
/// stderr immediately — and to `--addr-file` when given — so scripts
/// can discover an ephemeral port.
fn serve_listen_command(opts: &Options) -> Result<String, CliError> {
    let addr = opts.listen.as_deref().unwrap();
    let service = serve_service(opts, opts.workers);
    let server = NetServer::start(addr, Arc::clone(&service)).map_err(|e| CliError {
        message: format!("cannot listen on {addr}: {e}"),
        code: 1,
    })?;
    let bound = server.addr();
    eprintln!("spfc serve: listening on {bound}");
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, bound.to_string()).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
            code: 1,
        })?;
    }
    let svc = Arc::clone(&service);
    let net = server.stats_handle();
    let metrics: MetricsRender = Arc::new(move || {
        format!(
            "{}{}",
            svc.metrics().to_prometheus(),
            net.metrics().to_prometheus()
        )
    });
    let endpoint = metrics_endpoint(opts, &metrics)?;

    server.wait_drained();

    let mut out = String::new();
    let stats = service.stage_stats();
    let _ = writeln!(
        out,
        "drained: {} ok, {} deadline, {} rejected, {} quota on {} workers",
        stats.ok, stats.deadline, stats.rejected, stats.quota, opts.workers,
    );
    let n = server.stats();
    let _ = writeln!(
        out,
        "programs: {} registered ({} without a parse), {} evicted, {} live, {} digest hits, \
{} dedupe hits",
        n.programs_registered,
        n.text_hits,
        n.programs_evicted,
        n.programs_live,
        n.digest_hits,
        n.dedupe_hits,
    );
    for t in &stats.tenants {
        let _ = writeln!(
            out,
            "tenant {:<12} {} ok, {} deadline, {} quota",
            t.name, t.ok, t.deadline, t.quota,
        );
    }
    finish_serve(&mut out, opts, &service, &metrics, endpoint)?;
    server.shutdown();
    Ok(out)
}

/// The service behind `spfc serve` in either mode, on `workers` threads:
/// `--cache-dir` keeps its lifetime stats, `--queue` bounds its queue,
/// and `--trace-out` has it record the session.
fn serve_service(opts: &Options, workers: usize) -> Arc<Service> {
    let mut cache = ArtifactCacheConfig::default();
    if let Some(dir) = &opts.cache_dir {
        cache = cache.disk(dir);
    }
    let mut cfg = ServiceConfig::default()
        .workers(workers)
        .queue_capacity(opts.queue)
        .cache(cache);
    if opts.trace_out.is_some() {
        cfg = cfg.traced();
    }
    Arc::new(Service::new(cfg))
}

/// The `--listen-metrics` scrape endpoint over `metrics`, when asked for.
fn metrics_endpoint(
    opts: &Options,
    metrics: &MetricsRender,
) -> Result<Option<MetricsServer>, CliError> {
    let Some(addr) = &opts.listen_metrics else {
        return Ok(None);
    };
    MetricsServer::start(addr, Arc::clone(metrics))
        .map(Some)
        .map_err(|e| CliError {
            message: format!("cannot listen on {addr}: {e}"),
            code: 1,
        })
}

/// What both serve modes end with once the work is done: the cache and
/// analysis counters, the stage summary, the `--trace-out` session trace,
/// `--metrics-out` as `metrics` renders it (the text every scrape got),
/// and the scrape endpoint, shut down.
fn finish_serve(
    out: &mut String,
    opts: &Options,
    service: &Service,
    metrics: &MetricsRender,
    endpoint: Option<MetricsServer>,
) -> Result<(), CliError> {
    let c = service.cache_counters();
    let _ = writeln!(
        out,
        "cache: {} hits, {} misses, {} inserts",
        c.hits, c.misses, c.inserts,
    );
    let _ = writeln!(
        out,
        "analysis: {} hits, {} misses",
        c.analysis_hits, c.analysis_misses,
    );
    let summary = service.stage_stats().render_summary();
    if !summary.is_empty() {
        let _ = writeln!(out, "stage latency (p-bounds at log2 resolution):");
        out.push_str(&summary);
    }
    if let Some(path) = &opts.trace_out {
        let session = service.session_trace().ok_or_else(|| CliError {
            message: "traced serve produced no session trace".into(),
            code: 1,
        })?;
        std::fs::write(path, session.chrome_json()).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
            code: 1,
        })?;
        let _ = writeln!(
            out,
            "wrote {path}: {} jobs across {} worker lane(s) ({} dropped events)",
            session.job_count(),
            session.worker_lanes().len(),
            session.dropped(),
        );
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, metrics()).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
            code: 1,
        })?;
        let _ = writeln!(out, "wrote {path}");
    }
    if let Some(endpoint) = endpoint {
        let _ = writeln!(out, "metrics endpoint served on {}", endpoint.addr());
        endpoint.shutdown();
    }
    Ok(())
}

/// `spfc submit --connect ADDR <prog.loop|kernel|drain|ping>`: send a
/// program to a `serve --listen` server and print the returned run
/// report; `drain` and `ping` are wire control actions.
fn submit_command(opts: &Options) -> Result<String, CliError> {
    let Some(addr) = &opts.connect else {
        return usage(format!("submit needs --connect ADDR\n{USAGE}"));
    };
    let mut client =
        Client::connect(addr, ClientConfig::default().tenant(&opts.tenant)).map_err(|e| {
            CliError {
                message: format!("cannot connect to {addr}: {e}"),
                code: 1,
            }
        })?;
    let mut out = String::new();
    match opts.path.as_str() {
        "drain" => {
            client.drain().map_err(|e| CliError {
                message: format!("drain {addr}: {e}"),
                code: 1,
            })?;
            let _ = writeln!(out, "drained {addr}");
            return Ok(out);
        }
        "ping" => {
            let rtt = client.ping().map_err(|e| CliError {
                message: format!("ping {addr}: {e}"),
                code: 1,
            })?;
            let _ = writeln!(out, "ping {addr}: {} us", rtt.as_micros());
            return Ok(out);
        }
        _ => {}
    }
    let backend = parse_backend(&opts.backend)?;
    let schedule = parse_schedule(&opts.schedule)?;
    let mut specs = Vec::new();
    for seq in resolve_sequences(&opts.path)? {
        let name = seq.name.clone();
        let plan = ExecPlan::Fused {
            grid: vec![opts.procs],
            method: CodegenMethod::StripMined,
            strip: opts.strip,
        };
        let mut spec = JobSpec::new(&name, seq, plan)
            .backend(backend)
            .schedule(schedule)
            .steps(opts.steps);
        if let Some(ms) = opts.deadline_ms {
            spec = spec.deadline(std::time::Duration::from_millis(ms));
        }
        specs.push(spec);
    }
    let specs: Vec<JobSpec> = (0..opts.repeat).flat_map(|_| specs.clone()).collect();
    let t0 = std::time::Instant::now();
    let outcomes = client.submit_pipelined(&specs, opts.window);
    let secs = t0.elapsed().as_secs_f64();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let res = outcome.map_err(|e| CliError {
            message: format!("submit {}: {e}", spec.name),
            code: 1,
        })?;
        render_wire_result(&mut out, &res);
    }
    let _ = writeln!(
        out,
        "pipelined {} jobs, window {}: {:.1} ms ({:.0} jobs/s)",
        specs.len(),
        opts.window,
        secs * 1e3,
        specs.len() as f64 / secs.max(1e-9),
    );
    Ok(out)
}

fn render_wire_result(out: &mut String, res: &sp_net::NetJobResult) {
    let _ = writeln!(
        out,
        "job {} {:<12} tenant={} {:<8} digest={:016x} run {:>8} us (queued {} us)",
        res.job,
        res.name,
        res.tenant,
        res.cache.name(),
        res.digest,
        res.run_nanos / 1_000,
        res.queued_nanos / 1_000,
    );
    let r = &res.report;
    let c = r.merged_counters();
    let _ = writeln!(
        out,
        "  report: {} backend {} schedule {} on {} procs x {} steps, \
{} iters (+{} peeled), wall {} us",
        r.executor,
        r.backend,
        r.schedule,
        r.procs,
        r.steps,
        c.iters,
        c.peeled_iters,
        r.wall_nanos / 1_000,
    );
}

/// `spfc bench check`: gate a fresh `BENCH_runtime.json` against a
/// committed baseline. Prints the verdict table; a regression (or a missing
/// metric) is a nonzero exit with the same table on stderr.
fn bench_command(opts: &Options) -> Result<String, CliError> {
    if opts.path != "check" {
        return usage(format!(
            "unknown bench action {} (check)\n{USAGE}",
            opts.path
        ));
    }
    let Some(baseline) = &opts.baseline_dir else {
        return usage(format!("bench check needs --baseline-dir DIR\n{USAGE}"));
    };
    let current = opts.current_dir.as_deref().unwrap_or("results");
    let report = sp_bench::check_dirs(
        std::path::Path::new(baseline),
        std::path::Path::new(current),
        opts.tolerance,
    );
    if let Some(path) = &opts.json_out {
        std::fs::write(path, report.to_json()).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
            code: 1,
        })?;
    }
    if report.passed() {
        Ok(report.render_text())
    } else {
        fail(format!(
            "bench regression detected\n{}",
            report.render_text()
        ))
    }
}

/// `spfc cache <stats|clear> --cache-dir DIR`: inspect or clear the
/// lifetime stats `spfc serve --cache-dir DIR` runs add up there.
fn cache_command(opts: &Options) -> Result<String, CliError> {
    let Some(dir) = &opts.cache_dir else {
        return usage(format!("cache needs --cache-dir DIR\n{USAGE}"));
    };
    let dir = std::path::Path::new(dir);
    let mut out = String::new();
    match opts.path.as_str() {
        "stats" => {
            let LifetimeStats { cache: c, stages } = disk_stats(dir);
            let _ = writeln!(out, "cache dir: {}", dir.display());
            let _ = writeln!(
                out,
                "lifetime: {} hits, {} misses, {} inserts, {} evictions",
                c.hits, c.misses, c.inserts, c.evictions,
            );
            let _ = writeln!(
                out,
                "analysis: {} hits, {} misses",
                c.analysis_hits, c.analysis_misses,
            );
            if !stages.is_empty() {
                let _ = writeln!(
                    out,
                    "serve outcomes: {} ok, {} deadline, {} rejected",
                    stages.ok, stages.deadline, stages.rejected,
                );
                let _ = writeln!(out, "serve stage latency (lifetime, all processes):");
                out.push_str(&stages.render_summary());
            }
        }
        "clear" => {
            clear_disk(dir);
            let _ = writeln!(out, "cleared the lifetime stats in {}", dir.display());
        }
        other => {
            return usage(format!(
                "unknown cache action {other} (stats|clear)\n{USAGE}"
            ))
        }
    }
    Ok(out)
}

/// Executes one CLI invocation, returning the stdout text.
pub fn run_command(opts: &Options) -> Result<String, CliError> {
    match opts.command.as_str() {
        "explain" => return explain_command(opts),
        "trace-check" => return trace_check_command(opts),
        "list" => return list_command(),
        "serve" => return serve_command(opts),
        "submit" => return submit_command(opts),
        "cache" => return cache_command(opts),
        "bench" => return bench_command(opts),
        _ => {}
    }
    let seq = load(&opts.path)?;
    let mut out = String::new();
    match opts.command.as_str() {
        "analyze" => {
            let deps = analyze_sequence(&seq).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let _ = writeln!(
                out,
                "program {}: {} nests, {} arrays",
                seq.name,
                seq.len(),
                seq.arrays.len()
            );
            out.push_str(&describe_deps(&seq, &deps));
        }
        "derive" => {
            let deps = analyze_sequence(&seq).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let d = derive_levels(&deps, seq.len(), deps.depth).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let _ = write!(out, "{d}");
            for dim in &d.dims {
                let _ = writeln!(out, "level {}: Nt = {}", dim.level, dim.nt());
            }
        }
        "fuse" => {
            let planned = Planner::fused(1).plan(&seq).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            out.push_str(&render_plan(&seq, &planned.plan, opts.strip));
        }
        "run" => {
            // Plan once through the planner: the executor gets the plan
            // prederived and the per-stage timings land in the exported
            // metrics.
            let planned = Planner::fused(1).plan(&seq).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let prog =
                Program::from_analysis(&seq, planned.deps.clone(), 1).map_err(|e| CliError {
                    message: e.to_string(),
                    code: 1,
                })?;
            let backend = parse_backend(&opts.backend)?;
            let schedule = parse_schedule(&opts.schedule)?;
            let mut cfg = RunConfig::fused([opts.procs])
                .strip(opts.strip)
                .steps(opts.steps)
                .prederived(planned.plan.clone())
                .backend(backend)
                .schedule(schedule);
            if let Some(c) = opts.chunk {
                cfg = cfg.chunk(c);
            }
            if opts.trace_out.is_some() {
                cfg = cfg.traced();
            }
            let mut executor: Box<dyn Executor> = match opts.executor.as_str() {
                "pooled" => Box::new(PooledExecutor::new(opts.procs)),
                "sim" => Box::new(SimExecutor),
                "scoped" => {
                    return usage(
                        "the scoped executor is gone: every threaded run is one pool \
                         dispatch, use --executor pooled",
                    )
                }
                "dynamic" => {
                    return usage(
                        "the dynamic executor is gone: self-scheduling is a schedule, \
                         use --schedule stealing (with --chunk N) on --executor pooled",
                    )
                }
                other => return usage(format!("unknown executor {other} (pooled|sim)")),
            };
            let mut ref_mem = Memory::seeded(&seq, LayoutStrategy::Contiguous, 42);
            for _ in 0..opts.steps {
                prog.run(&mut ref_mem, &ExecPlan::Serial)
                    .map_err(|e| CliError {
                        message: e.to_string(),
                        code: 1,
                    })?;
            }
            let mut mem = Memory::seeded(&seq, LayoutStrategy::Contiguous, 42);
            let report = executor.run(&prog, &mut mem, &cfg).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            if mem.snapshot_all(&seq) != ref_mem.snapshot_all(&seq) {
                return fail("MISMATCH: parallel execution diverged from the serial original");
            }
            let c = report.merged_counters();
            let _ = writeln!(
                out,
                "OK: {} result matches serial on {} procs x {} steps ({} fused + {} peeled iterations)",
                executor.name(),
                report.procs,
                report.steps,
                c.iters,
                c.peeled_iters,
            );
            let _ = writeln!(
                out,
                "backend {}, imbalance {:.3}, max barrier wait {} ns \
                 ({} barrier waits: {} yielded, {} parked)",
                report.backend,
                report.imbalance(),
                report.max_barrier_wait_nanos(),
                c.barriers,
                report.total_yields(),
                report.total_parks()
            );
            if schedule != Schedule::Static {
                let _ = writeln!(
                    out,
                    "schedule {}, {} steals, time imbalance {:.3}",
                    report.schedule,
                    report.total_steals(),
                    report.time_imbalance()
                );
            }
            if backend != Backend::Interp {
                let _ = writeln!(
                    out,
                    "lowered {} row ops ({} passes per chunk, {} chains, {} direct stores) in {} ns, {} row loops",
                    report.tape_ops,
                    report.tape_passes(),
                    report.tape_chains,
                    report.tape_direct_stores,
                    report.lower_nanos,
                    report.row_isa
                );
            }
            if backend == Backend::Simd {
                let _ = writeln!(
                    out,
                    "vectorized {} of {} fused iterations (row width up to {})",
                    c.vec_iters, c.iters, report.max_row_width
                );
            }
            if let Some(path) = &opts.trace_out {
                let trace = report.trace.as_ref().ok_or_else(|| CliError {
                    message: "traced run produced no trace".into(),
                    code: 1,
                })?;
                std::fs::write(path, trace.chrome_json()).map_err(|e| CliError {
                    message: format!("cannot write {path}: {e}"),
                    code: 1,
                })?;
                let _ = writeln!(
                    out,
                    "wrote {path}: {} events across {} lanes ({} dropped)",
                    trace.event_count(),
                    trace.workers.len(),
                    trace.dropped(),
                );
            }
            if let Some(path) = &opts.metrics_out {
                let mut reg = report.metrics();
                register_pass_metrics(&mut reg, &planned.timings);
                std::fs::write(path, reg.to_prometheus()).map_err(|e| CliError {
                    message: format!("cannot write {path}: {e}"),
                    code: 1,
                })?;
                let _ = writeln!(out, "wrote {path}");
            }
        }
        "simulate" => {
            let machine = match opts.machine.as_str() {
                "ksr2" => KSR2,
                "convex" => CONVEX_SPP1000,
                other => return usage(format!("unknown machine {other} (ksr2|convex)")),
            };
            // The simulator models one cache hierarchy per processor.
            if opts.procs > machine.max_procs {
                return usage(format!(
                    "--procs {} exceeds the {} processors of {}",
                    opts.procs, machine.max_procs, machine.name
                ));
            }
            let layout = LayoutStrategy::CachePartition(machine.target());
            let base = simulate(
                &seq,
                &machine,
                &SimPlan::new(ExecPlan::Blocked { grid: vec![1] }, layout),
            )
            .map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let unfused = simulate(
                &seq,
                &machine,
                &SimPlan::new(
                    ExecPlan::Blocked {
                        grid: vec![opts.procs],
                    },
                    layout,
                ),
            )
            .map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let fused = simulate(
                &seq,
                &machine,
                &SimPlan::new(
                    ExecPlan::Fused {
                        grid: vec![opts.procs],
                        method: CodegenMethod::StripMined,
                        strip: opts.strip,
                    },
                    layout,
                ),
            )
            .map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            let _ = writeln!(
                out,
                "machine {} @ {} procs (cache-partitioned layout)",
                machine.name, opts.procs
            );
            let _ = writeln!(
                out,
                "unfused: speedup {:.2}, misses {}",
                base.seconds / unfused.seconds,
                unfused.misses
            );
            let _ = writeln!(
                out,
                "fused:   speedup {:.2}, misses {}",
                base.seconds / fused.seconds,
                fused.misses
            );
            let _ = writeln!(
                out,
                "fusion improvement: {:+.1}%",
                (unfused.seconds / fused.seconds - 1.0) * 100.0
            );
        }
        other => return usage(format!("unknown command {other}\n{USAGE}")),
    }
    Ok(out)
}

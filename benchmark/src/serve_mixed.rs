//! `serve-mixed`: a seeded stream of small jobs through `Service` behind
//! an in-process `NetServer` on loopback, one `Client`, one keep-alive
//! connection, closed loop. `sp-serve`, `sp-net` and the per-job memory
//! set-up, dispatch and digest do most of the work; the backend little.
//!
//! The stream alternates decks submitted one at a time (latency) with
//! decks submitted through `submit_pipelined` (throughput), so host
//! drift lands on both alike. The artifact cache holds 16 of the 24
//! specs: the unpopular ones evict each other and miss again, so cache
//! writes run beside reads all pass long.

use crate::decks::{spin_ms, DeckLog, SPIN_MS_PER_ITER};
use crate::front_end::{self, ProgramText};
use crate::rng::{Deck, Rng};
use crate::span::Recorder;
use crate::spec::{Metrics, PER_LAYER};
use crate::stats::median;
use crate::{after_warm_up, end_to_end, instrument_metrics, median_setup, Outcome, Pass};
use shift_peel::core::CodegenMethod;
use shift_peel::exec::{Backend, ExecPlan, Memory, Program};
use shift_peel::ir::display::render_sequence;
use shift_peel::kernels::{calc, jacobi, ll18, tomcatv};
use shift_peel::prelude::LayoutStrategy;
use shift_peel::serve::service::snapshot_digest;
use shift_peel::serve::{ArtifactCacheConfig, CacheOutcome, JobSpec, Service, ServiceConfig};
use shift_peel::trace::JobStage;
use sp_net::{
    decode_frame, encode_frame, Client, ClientConfig, Frame, NetServer, ProgramRef, SubmitJob,
};
use std::sync::Arc;
use std::time::Instant;

/// Length of the reference (see [`crate::decks`]): short next to a job,
/// and single-threaded like most of a job's path from socket to digest.
const REFERENCE_ITERS: u64 = 200_000;
/// The one-at-a-time decks take a reference after every this many jobs.
const REFERENCE_EVERY: usize = 16;

/// How the workload is sized.
#[derive(Clone, Debug)]
pub struct Config {
    /// Array extents, most popular first.
    pub sizes: [usize; 3],
    /// Timesteps per job.
    pub steps: usize,
    /// Artifact-cache entries: fewer than there are specs, on purpose.
    pub cache_entries: usize,
    /// Jobs per deck. A deck holds the exact Zipf(1.0) mix of specs in a
    /// seeded order; it is the unit the passes alternate disciplines by.
    pub deck: usize,
    /// Requests in flight in a pipelined deck.
    pub window: usize,
    /// Test hook: flip one bit of this spec's reference digest, which
    /// must make the pass fail.
    pub corrupt_reference: Option<usize>,
}

impl Config {
    pub fn new(smoke: bool) -> Config {
        Config {
            sizes: if smoke { [24, 32, 40] } else { [34, 130, 258] },
            steps: 2,
            cache_entries: 16,
            deck: if smoke { 32 } else { 128 },
            window: 4,
            corrupt_reference: None,
        }
    }
}

/// The 24 specs, most popular first: {jacobi, LL18, calc, tomcatv} x
/// three sizes x {1, 2} processors.
///
/// Popularity is fixed, not drawn: small jobs are the popular ones, and
/// within a size the order below holds for every seed. The seed decides
/// the order jobs arrive in and each spec's array values. Were it to draw
/// the popularity ranking too, the median job would be a 34^2 stencil
/// under one seed and a 258^2 LL18 under the next, and no bound could
/// tell a regression from a reshuffle.
fn specs(cfg: &Config, seed: u64) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for &n in &cfg.sizes {
        for procs in [2, 1] {
            for (kernel, seq) in [
                ("jacobi", jacobi::sequence(n)),
                ("ll18", ll18::sequence(n)),
                ("calc", calc::sequence(n)),
                ("tomcatv", tomcatv::sequence(n)),
            ] {
                let plan = ExecPlan::Fused {
                    grid: vec![procs],
                    method: CodegenMethod::StripMined,
                    strip: 16,
                };
                let values = Rng::new(seed, 100 + out.len() as u64).next_u64();
                out.push(
                    JobSpec::new(format!("{kernel}-{n}-p{procs}"), seq, plan)
                        .backend(Backend::Simd)
                        .steps(cfg.steps)
                        .seed(values),
                );
            }
        }
    }
    out
}

/// The digest of `spec`'s arrays after its steps on the interpreter,
/// serially: the reference every job's digest must equal.
fn reference_digest(spec: &JobSpec) -> Result<u64, String> {
    let prog = Program::new(&spec.seq, 1).map_err(|e| e.to_string())?;
    let mut mem = Memory::new(&spec.seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&spec.seq, spec.seed);
    for _ in 0..spec.steps {
        prog.run(&mut mem, &ExecPlan::Serial)
            .map_err(|e| e.to_string())?;
    }
    Ok(snapshot_digest(&mem.snapshot_all(&spec.seq)))
}

fn service(cfg: &Config) -> Service {
    Service::new(
        ServiceConfig::default()
            .workers(2)
            .queue_capacity(4 * cfg.window)
            .cache(ArtifactCacheConfig::memory(cfg.cache_entries)),
    )
}

/// Everything set-up builds: inputs, references, and a running server
/// with one connected client. Dropping it closes the connection, stops
/// the server and joins the service's threads.
struct Stack {
    specs: Vec<JobSpec>,
    digests: Vec<u64>,
    /// The job streams, as spec indices: one for the decks submitted one
    /// at a time, one for the pipelined decks, so that each discipline
    /// sees the exact Zipf mix over every full deck.
    one_at_a_time: Deck,
    piped: Deck,
    /// The first deck of `one_at_a_time`: the untimed warm-up.
    warm: Vec<usize>,
    client: Client,
    server: NetServer,
    /// Jobs submitted over the wire so far (warm-up included).
    wire_jobs: u64,
}

/// One job's client-side record.
struct Job {
    ms: f64,
    cache: CacheOutcome,
    queued_nanos: u64,
    run_nanos: u64,
}

impl Stack {
    fn build(cfg: &Config, seed: u64) -> Result<Stack, String> {
        let specs = specs(cfg, seed);
        let mut digests = specs
            .iter()
            .map(reference_digest)
            .collect::<Result<Vec<u64>, String>>()?;
        if let Some(i) = cfg.corrupt_reference {
            digests[i] ^= 1;
        }
        let server = NetServer::start("127.0.0.1:0", Arc::new(service(cfg)))
            .map_err(|e| format!("cannot bind the loopback server: {e}"))?;
        // No retries: a transient refusal is a failed op, not a hidden one.
        let client = Client::connect(
            &server.addr().to_string(),
            ClientConfig::default().tenant("bench").retries(0),
        )
        .map_err(|e| format!("connect: {e}"))?;
        let deck = |stream| Deck::new(Rng::new(seed, stream), specs.len(), 1.0, cfg.deck);
        let mut one_at_a_time = deck(2);
        Ok(Stack {
            warm: one_at_a_time.deal(cfg.deck),
            one_at_a_time,
            piped: deck(3),
            specs,
            digests,
            client,
            server,
            wire_jobs: 0,
        })
    }

    /// One deck, one job in flight at a time. Returns the jobs that came
    /// back right, how many did not, and the deck's reference time in ms.
    fn single(&mut self, jobs: &[usize], rec: &mut Recorder, op: u64) -> (Vec<Job>, u64, f64) {
        let mut done = Vec::with_capacity(jobs.len());
        let mut failed = 0;
        let mut reference = Vec::new();
        for (nth, &i) in jobs.iter().enumerate() {
            if nth % REFERENCE_EVERY == 0 {
                reference.push(spin_ms(REFERENCE_ITERS));
            }
            self.wire_jobs += 1;
            let open = rec.begin("op", op);
            let leaf = rec.begin("sp-net.submit", op);
            let t = Instant::now();
            let res = self.client.submit(&self.specs[i]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rec.end(leaf);
            rec.end(open);
            match res {
                Ok(r) if r.digest == self.digests[i] => done.push(Job {
                    ms,
                    cache: r.cache,
                    queued_nanos: r.queued_nanos,
                    run_nanos: r.run_nanos,
                }),
                Ok(_) => failed += 1,
                Err(e) => {
                    eprintln!("{}: {e}", self.specs[i].name);
                    failed += 1;
                }
            }
        }
        (done, failed, median(&reference))
    }

    /// One deck through `submit_pipelined`. Returns its wall time in
    /// seconds and how many jobs failed.
    fn pipelined(
        &mut self,
        cfg: &Config,
        jobs: &[usize],
        rec: &mut Recorder,
        op: u64,
    ) -> (f64, u64) {
        let batch: Vec<JobSpec> = jobs.iter().map(|&i| self.specs[i].clone()).collect();
        self.wire_jobs += batch.len() as u64;
        let leaf = rec.begin("sp-net.submit_pipelined", op);
        let t = Instant::now();
        let outcomes = self.client.submit_pipelined(&batch, cfg.window);
        let seconds = t.elapsed().as_secs_f64();
        rec.end(leaf);
        let failed = outcomes
            .iter()
            .zip(jobs)
            .filter(|(o, &i)| !matches!(o, Ok(r) if r.digest == self.digests[i]))
            .count();
        (seconds, failed as u64)
    }

    /// The conservation checks at the end of a pass: every wire job was a
    /// cache hit or a miss, and nothing was resubmitted. Returns the
    /// violations.
    fn conserved(&self) -> u64 {
        let c = self.server.service().cache_counters();
        let mut bad = 0;
        if c.total_hits() + c.misses != self.wire_jobs {
            eprintln!(
                "cache counters do not add up: {} hits + {} misses != {} jobs",
                c.total_hits(),
                c.misses,
                self.wire_jobs
            );
            bad += 1;
        }
        if self.server.stats().dedupe_hits != 0 {
            eprintln!("the server deduplicated a request nobody resent");
            bad += 1;
        }
        bad
    }
}

/// Runs one pass.
pub fn run(cfg: &Config, pass: &Pass) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    rec.on = false;
    let mut attempted = 0;
    let mut failed = 0;
    let mut error = None;
    let (stack, setup_s) = median_setup(pass, || {
        let mut stack = Stack::build(cfg, pass.seed)
            .map_err(|e| error = Some(e))
            .ok()?;
        // Untimed warm-up deck: connection, pool threads, hot specs cached.
        let warm = stack.warm.clone();
        attempted += warm.len() as u64;
        failed += stack.single(&warm, &mut rec, 0).1;
        Some(stack)
    });
    let Some(mut stack) = stack else {
        return Err(error.unwrap_or_else(|| "set-up failed".into()));
    };
    if pass.trace {
        return traced(cfg, pass, stack, rec, attempted, failed);
    }

    // Latency and throughput are logged apart: they come from different
    // decks, each corrected by its own reference.
    let nominal = REFERENCE_ITERS as f64 * SPIN_MS_PER_ITER;
    let mut latency = DeckLog::new(nominal);
    let mut throughput = DeckLog::new(nominal);
    let deadline = pass.deadline();
    let mut deck_no = 0;
    while deck_no < 4 || Instant::now() < deadline {
        attempted += cfg.deck as u64;
        if deck_no % 2 == 0 {
            let jobs = stack.one_at_a_time.deal(cfg.deck);
            let t = Instant::now();
            let (done, bad, ref_ms) = stack.single(&jobs, &mut rec, deck_no);
            failed += bad;
            if bad == 0 {
                let ms: Vec<f64> = done.iter().map(|j| j.ms).collect();
                latency.push(&ms, t.elapsed().as_secs_f64(), ref_ms);
            }
        } else {
            let jobs = stack.piped.deal(cfg.deck);
            let before = spin_ms(REFERENCE_ITERS);
            let (seconds, bad) = stack.pipelined(cfg, &jobs, &mut rec, deck_no);
            let after = spin_ms(REFERENCE_ITERS);
            failed += bad;
            if bad == 0 {
                throughput.push(&[seconds * 1e3], seconds, (before + after) / 2.0);
            }
        }
        deck_no += 1;
        if failed > 8 {
            break;
        }
    }
    failed += stack.conserved();
    if latency.is_empty() || throughput.is_empty() {
        return Err("no deck of jobs completed".into());
    }
    let mut metrics = end_to_end(setup_s, &latency, 99, cfg.deck as f64);
    metrics.set(
        "work_per_s",
        cfg.deck as f64 / median(after_warm_up(&throughput.wall_s)),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        trace_json: None,
    })
}

/// Median duration, in µs, of the spans called `name`, warm-up dropped.
fn span_us(rec: &Recorder, name: &str) -> f64 {
    median_of(after_warm_up(&rec.durations_us(name)).iter().copied())
}

fn median_of(v: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// One in-process deck: `Service::submit` then `wait`, one at a time.
fn in_process(
    svc: &Service,
    stack: &Stack,
    jobs: &[usize],
    rec: &mut Recorder,
    op: u64,
) -> (Vec<Job>, u64) {
    let mut done = Vec::with_capacity(jobs.len());
    let mut failed = 0;
    for &i in jobs {
        let leaf = rec.begin("sp-serve.submit_wait", op);
        let t = Instant::now();
        let res = svc
            .submit(stack.specs[i].clone())
            .and_then(|id| svc.wait(id));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rec.end(leaf);
        match res {
            Ok(r) if r.digest == stack.digests[i] => done.push(Job {
                ms,
                cache: r.cache,
                queued_nanos: r.queued_nanos,
                run_nanos: r.run_nanos,
            }),
            _ => failed += 1,
        }
    }
    (done, failed)
}

/// The traced pass. Chunks cycle through three disciplines over one
/// stream — wire one-at-a-time, the same jobs in process, wire pipelined
/// — with a second, identically configured `Service` taking the
/// in-process path, so both services see the same sequence of programs.
fn traced(
    cfg: &Config,
    pass: &Pass,
    mut stack: Stack,
    mut rec: Recorder,
    mut attempted: u64,
    mut failed: u64,
) -> Result<Outcome, String> {
    let local = service(cfg);
    // The in-process service warms up on the deck the wire service did.
    failed += in_process(&local, &stack, &stack.warm, &mut rec, 0).1;

    let (mut wire, mut inproc): (Vec<Job>, Vec<Job>) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut control_ms) = (Vec::new(), Vec::new());
    let (mut wire_seconds, mut inproc_seconds) = (0.0, 0.0);
    let (mut piped_jobs, mut piped_seconds) = (0u64, 0.0);
    let mut submit_bytes = 0usize;
    let deadline = pass.deadline();
    let mut round = 0u64;
    while round < 2 || Instant::now() < deadline {
        rec.on = round.is_multiple_of(2);
        let jobs = stack.one_at_a_time.deal(cfg.deck);
        attempted += 2 * jobs.len() as u64;

        let t = Instant::now();
        let (done, bad, _) = stack.single(&jobs, &mut rec, round);
        wire_seconds += t.elapsed().as_secs_f64();
        failed += bad;
        let sink = if rec.on {
            &mut traced_ms
        } else {
            &mut control_ms
        };
        sink.extend(done.iter().map(|j| j.ms));
        wire.extend(done);

        let t = Instant::now();
        let (done, bad) = in_process(&local, &stack, &jobs, &mut rec, round);
        inproc_seconds += t.elapsed().as_secs_f64();
        failed += bad;
        inproc.extend(done);

        // What one job costs outside the service, on a job of this stream.
        let spec = &stack.specs[jobs[0]];
        let mem = rec.time("sp-exec.mem_init", round, || {
            let mut mem = Memory::new(&spec.seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&spec.seq, spec.seed);
            mem
        });
        rec.time("sp-serve.digest", round, || {
            snapshot_digest(&mem.snapshot_all(&spec.seq))
        });
        rec.time("sp-serve.cache_key", round, || spec.cache_key());
        submit_bytes += jobs
            .iter()
            .map(|&i| encode_frame(&Frame::Submit(submit_frame(&stack.specs[i]))).len())
            .sum::<usize>();

        let jobs = stack.piped.deal(cfg.deck);
        attempted += 2 * jobs.len() as u64;
        let (seconds, bad) = stack.pipelined(cfg, &jobs, &mut rec, round);
        piped_jobs += jobs.len() as u64 - bad;
        piped_seconds += seconds;
        failed += bad;
        failed += in_process(&local, &stack, &jobs, &mut rec, round).1;
        round += 1;
        if failed > 8 {
            break;
        }
    }
    failed += stack.conserved();
    rec.on = true;

    let mut m = Metrics::zeroed(&PER_LAYER);
    let wire_p50 = median_of(wire.iter().map(|j| j.ms));
    let inproc_p50 = median_of(inproc.iter().map(|j| j.ms));
    m.set("sp-net.job_ms_p50", wire_p50);
    m.set("sp-serve.inproc_job_ms_p50", inproc_p50);
    m.set("sp-net.wire_overhead_us_p50", (wire_p50 - inproc_p50) * 1e3);
    let serial_rate = wire.len() as f64 / wire_seconds;
    let piped_rate = piped_jobs as f64 / piped_seconds;
    m.set("sp-net.serial_jobs_per_s", serial_rate);
    m.set("sp-net.pipelined_jobs_per_s", piped_rate);
    m.set("sp-net.pipelined_over_serial", piped_rate / serial_rate);
    m.set(
        "sp-serve.inproc_jobs_per_s",
        inproc.len() as f64 / inproc_seconds,
    );
    m.set(
        "sp-serve.queue_wait_us_p50",
        median_of(inproc.iter().map(|j| j.queued_nanos as f64 / 1e3)),
    );
    m.set(
        "sp-serve.exec_us_p50",
        median_of(inproc.iter().map(|j| j.run_nanos as f64 / 1e3)),
    );
    m.set(
        "sp-serve.overhead_us_p50",
        median_of(
            inproc
                .iter()
                .map(|j| j.ms * 1e3 - (j.queued_nanos + j.run_nanos) as f64 / 1e3),
        ),
    );
    let by_outcome = |hit: bool| {
        median_of(
            inproc
                .iter()
                .filter(|j| (j.cache != CacheOutcome::Miss) == hit)
                .map(|j| j.ms),
        )
    };
    m.set("sp-serve.hit_job_ms_p50", by_outcome(true));
    m.set("sp-serve.miss_job_ms_p50", by_outcome(false));

    let stats = local.stage_stats();
    let stages = [
        JobStage::QueueWait,
        JobStage::CacheLookup,
        JobStage::Analysis,
        JobStage::Plan,
        JobStage::Lower,
        JobStage::Execute,
        JobStage::Respond,
    ];
    let sum = |s: JobStage| stats.stage(s).map_or(0, |h| h.sum()) as f64;
    let total: f64 = stages.iter().map(|&s| sum(s)).sum();
    for s in stages {
        m.set(
            &format!("sp-serve.stage_share.{}", s.name()),
            sum(s) / total.max(1.0),
        );
    }
    let counters = local.cache_counters();
    let lookups = (counters.total_hits() + counters.misses).max(1);
    m.set(
        "sp-serve.hit_rate",
        counters.total_hits() as f64 / lookups as f64,
    );
    m.set("sp-serve.misses", counters.misses as f64);
    m.set("sp-serve.analysis_hits", counters.analysis_hits as f64);
    m.set("sp-serve.rejected", (stats.rejected + stats.quota) as f64);
    m.set("sp-serve.digest_ms", span_us(&rec, "sp-serve.digest") / 1e3);
    m.set("sp-serve.cache_key_us", span_us(&rec, "sp-serve.cache_key"));
    m.set(
        "sp-exec.mem_init_ms",
        span_us(&rec, "sp-exec.mem_init") / 1e3,
    );

    // Framing, on the submission with the longest program text.
    let largest = stack
        .specs
        .iter()
        .max_by_key(|s| render_sequence(&s.seq).len())
        .expect("there are specs");
    let frame = Frame::Submit(submit_frame(largest));
    let bytes = encode_frame(&frame);
    for i in 0..200 {
        let encoded = rec.time("sp-net.encode", i, || encode_frame(&frame));
        let decoded = rec.time("sp-net.decode", i, || decode_frame(&encoded));
        if decoded.as_ref() != Ok(&frame) || encoded != bytes {
            failed += 1;
        }
    }
    m.set("sp-net.encode_us", span_us(&rec, "sp-net.encode"));
    m.set("sp-net.decode_us", span_us(&rec, "sp-net.decode"));
    m.set(
        "sp-net.bytes_per_job",
        submit_bytes as f64 / wire.len().max(1) as f64,
    );
    m.set(
        "sp-net.dedupe_hits",
        stack.server.stats().dedupe_hits as f64,
    );

    let texts: Vec<ProgramText> = stack
        .specs
        .iter()
        .map(|s| ProgramText::of(s.name.clone(), &s.seq))
        .collect();
    let (a, f) = front_end::trace_briefly(&texts, &mut rec, &mut m);
    attempted += a;
    failed += f;
    instrument_metrics(&rec, &traced_ms, &control_ms, round, pass.smoke, &mut m);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        trace_json: Some(rec.chrome_json("serve-mixed")),
    })
}

/// `spec` as the client frames it on a first, by-text submission.
fn submit_frame(spec: &JobSpec) -> SubmitJob {
    SubmitJob {
        request_id: 1,
        tenant: "bench".into(),
        name: spec.name.clone(),
        program: ProgramRef::Text(render_sequence(&spec.seq)),
        plan: spec.plan.clone(),
        backend: spec.backend,
        schedule: spec.schedule,
        steps: spec.steps as u64,
        seed: spec.seed,
        deadline_nanos: 0,
    }
}

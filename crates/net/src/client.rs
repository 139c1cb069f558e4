//! The blocking wire client: connect/submit timeouts, bounded
//! exponential-backoff retries, deadline propagation, and windowed
//! pipelining.
//!
//! One [`Client`] owns one connection. [`Client::submit`] keeps one
//! request in flight (concurrency = more clients);
//! [`Client::submit_pipelined`] keeps up to `window` requests in flight
//! on the same connection, correlating out-of-order replies by the
//! frame's `request_id`. Transient failures — transport errors and the
//! server's back-off codes (`QueueFull`, `QuotaExceeded`) — are retried
//! up to [`ClientConfig::retries`] times with exponential backoff;
//! everything else surfaces immediately as a typed [`NetError`].
//!
//! Request ids start from a per-client randomized base (so two clients
//! sharing a tenant do not collide) and are **reused across retries**
//! of the same logical request: if a transport failure hides whether
//! the server accepted a submission, the resend carries the same id and
//! the server answers from the job it already has instead of running
//! the work twice.
//!
//! Deadline propagation: [`Client::submit`] treats
//! [`JobSpec::deadline`](sp_serve::JobSpec) as a budget for the *whole*
//! round trip, started at the first attempt. Each attempt re-encodes
//! the remaining budget into the frame, so time burned on retries,
//! connection setup, and the server's queue all count against the same
//! clock. Backoff sleeps are clamped to the remaining budget, and a
//! budget that runs out client-side fails fast with
//! [`NetError::DeadlineExhausted`] without bothering the server.

use crate::wire::{
    encode_frame, read_frame, write_frame, ErrorFrame, Frame, ProgramRef, ReadError, ResultFrame,
    SubmitJob, WireError, CODE_UNKNOWN_PROGRAM,
};
use sp_exec::RunReport;
use sp_serve::{CacheOutcome, JobSpec};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure modes.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, or write) after all retries.
    Io(String),
    /// The server's bytes were not a valid frame.
    Wire(WireError),
    /// The server answered with a typed error.
    Serve {
        /// Stable error code ([`ServeError::code`] or a net-level
        /// `CODE_*`).
        ///
        /// [`ServeError::code`]: sp_serve::ServeError::code
        code: u16,
        /// The job the error concerns (0 = none was created).
        job: u64,
        /// The offending tenant.
        tenant: String,
        /// Human-readable detail.
        message: String,
    },
    /// The deadline budget ran out client-side (before or between
    /// attempts).
    DeadlineExhausted,
    /// Transient *transport* failures outlasted the retry budget.
    /// (Server-side transient rejections — queue full, over quota —
    /// surface as [`NetError::Serve`] with their typed code once
    /// retries run out, so callers can still tell them apart.)
    RetriesExhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The final rejection.
        last: String,
    },
    /// The server closed the connection without answering.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "transport error: {m}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Serve {
                code,
                job,
                tenant,
                message,
            } => write!(
                f,
                "server error [code {code}, job {job}, tenant {tenant}]: {message}"
            ),
            NetError::DeadlineExhausted => write!(f, "deadline budget exhausted client-side"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            NetError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {}

/// Connection and retry policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Tenant id sent with every submission (the fair-share bucket and
    /// quota key on the server).
    pub tenant: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-frame read/write timeout. Generous: a submit blocks for the
    /// whole job.
    pub io_timeout: Duration,
    /// Extra attempts after the first, for transient errors only.
    pub retries: u32,
    /// First backoff; doubles per retry, capped at 1 s, and always
    /// clamped to the request's remaining deadline budget.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: "default".into(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retries: 4,
            backoff: Duration::from_millis(20),
        }
    }
}

impl ClientConfig {
    /// Sets the tenant id.
    pub fn tenant(mut self, t: impl Into<String>) -> Self {
        self.tenant = t.into();
        self
    }

    /// Sets the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Sets the base backoff.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Sets the per-frame io timeout.
    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }
}

/// A successful round trip: the server-side identifiers plus the full
/// [`RunReport`], decoded.
#[derive(Clone, Debug)]
pub struct NetJobResult {
    /// Server-side job id.
    pub job: u64,
    /// Job name, echoed.
    pub name: String,
    /// Tenant, echoed.
    pub tenant: String,
    /// Which cache tier served the compilation.
    pub cache: CacheOutcome,
    /// `sp_serve::service::snapshot_digest` of the final arrays.
    pub digest: u64,
    /// Queue wait on the server.
    pub queued_nanos: u64,
    /// Wall time of the run on the server.
    pub run_nanos: u64,
    /// 1-based completion order across the service.
    pub order: u64,
    /// The run's full instrumentation.
    pub report: RunReport,
}

/// A blocking wire client over one connection.
pub struct Client {
    /// Every address the server name resolved to; reconnects walk the
    /// list starting from the last one that worked.
    addrs: Vec<SocketAddr>,
    preferred: usize,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_request_id: u64,
}

/// One live connection: the raw write half plus a buffered read half,
/// so a coalesced batch of replies costs one read syscall.
struct Conn {
    w: TcpStream,
    r: std::io::BufReader<TcpStream>,
}

/// A per-client randomized request-id base, so two clients sharing a
/// tenant land in disjoint id ranges with overwhelming probability
/// (the server's dedupe ledger keys on `(tenant, request_id)`).
fn seed_request_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    let stack_entropy = &nanos as *const u64 as u64;
    sp_exec::splitmix64(&mut (nanos ^ stack_entropy.rotate_left(32)))
}

impl Client {
    /// Resolves `addr` and connects eagerly (so configuration errors
    /// surface here, not on first submit). Every resolved address is
    /// tried in order before failing — an IPv6-first resolution does
    /// not break an IPv4-only listener.
    pub fn connect(addr: &str, cfg: ClientConfig) -> Result<Client, NetError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Io(format!("cannot resolve {addr}: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(NetError::Io(format!("{addr} resolves to nothing")));
        }
        let mut client = Client {
            addrs,
            preferred: 0,
            cfg,
            conn: None,
            next_request_id: seed_request_id(),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// The server address in use (the last resolved address that
    /// accepted a connection).
    pub fn addr(&self) -> SocketAddr {
        self.addrs[self.preferred]
    }

    fn next_request_id(&mut self) -> u64 {
        self.next_request_id = self.next_request_id.wrapping_add(1);
        // 0 means "unpipelined" on the wire; skip it.
        if self.next_request_id == 0 {
            self.next_request_id = 1;
        }
        self.next_request_id
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, NetError> {
        if self.conn.is_none() {
            let mut failures = Vec::new();
            for off in 0..self.addrs.len() {
                let i = (self.preferred + off) % self.addrs.len();
                match TcpStream::connect_timeout(&self.addrs[i], self.cfg.connect_timeout) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
                        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
                        let Ok(read_half) = stream.try_clone() else {
                            failures.push(format!("{}: cannot clone stream", self.addrs[i]));
                            continue;
                        };
                        self.preferred = i;
                        self.conn = Some(Conn {
                            w: stream,
                            r: std::io::BufReader::new(read_half),
                        });
                        break;
                    }
                    Err(e) => failures.push(format!("{}: {e}", self.addrs[i])),
                }
            }
            if self.conn.is_none() {
                return Err(NetError::Io(format!(
                    "connect failed on every resolved address: {}",
                    failures.join("; ")
                )));
            }
        }
        Ok(self.conn.as_mut().unwrap())
    }

    /// One request/response exchange. Io failures poison the
    /// connection so the next attempt reconnects.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let conn = self.ensure_conn()?;
        if let Err(e) = write_frame(&mut conn.w, frame) {
            self.conn = None;
            return Err(NetError::Io(format!("write: {e}")));
        }
        match read_frame(&mut conn.r) {
            Ok(f) => Ok(f),
            Err(ReadError::Closed) => {
                self.conn = None;
                Err(NetError::Closed)
            }
            Err(ReadError::Io(e)) => {
                self.conn = None;
                Err(NetError::Io(format!("read: {e}")))
            }
            Err(ReadError::Wire(e)) => {
                // Desynchronized; never reuse the stream.
                self.conn = None;
                Err(NetError::Wire(e))
            }
        }
    }

    /// Submits `spec`'s program by full text under this client's
    /// tenant, with retries and deadline propagation.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<NetJobResult, NetError> {
        self.submit_request(self.request_for(spec, false))
    }

    /// Submits by content digest alone — valid once the server has seen
    /// the text (a prior [`Client::submit`] from any connection).
    pub fn submit_by_digest(&mut self, spec: &JobSpec) -> Result<NetJobResult, NetError> {
        self.submit_request(self.request_for(spec, true))
    }

    fn request_for(&self, spec: &JobSpec, by_digest: bool) -> SubmitJob {
        SubmitJob {
            request_id: 0,
            tenant: self.cfg.tenant.clone(),
            name: spec.name.clone(),
            // Both are held by the spec's program; nothing is rendered.
            program: if by_digest {
                ProgramRef::Digest(spec.seq.digest())
            } else {
                ProgramRef::Text(spec.seq.text().to_string())
            },
            plan: spec.plan.clone(),
            backend: spec.backend,
            schedule: spec.schedule,
            steps: spec.steps as u64,
            seed: spec.seed,
            deadline_nanos: spec
                .deadline
                .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64),
        }
    }

    /// The retry loop shared by the single-submit paths.
    fn submit_request(&mut self, mut req: SubmitJob) -> Result<NetJobResult, NetError> {
        let started = Instant::now();
        let budget = (req.deadline_nanos > 0).then(|| Duration::from_nanos(req.deadline_nanos));
        // One id for the whole logical request: a retry after a
        // transport failure resends the same id, so a server that
        // already accepted the first attempt dedupes instead of
        // executing twice.
        let request_id = self.next_request_id();
        req.request_id = request_id;
        // One frame for every attempt; only its deadline is rewritten.
        let mut frame = Frame::Submit(req);
        let attempts = 1 + self.cfg.retries;
        let mut backoff = self.cfg.backoff;
        let mut last: Option<NetError> = None;
        for attempt in 0..attempts {
            // Re-encode the remaining budget so server queue time and
            // client retry time share one clock. A budget already at
            // zero fails fast — 0 on the wire would mean "no deadline".
            if let (Some(total), Frame::Submit(req)) = (budget, &mut frame) {
                let remaining = total.checked_sub(started.elapsed()).unwrap_or_default();
                if remaining.is_zero() {
                    return Err(NetError::DeadlineExhausted);
                }
                req.deadline_nanos = remaining.as_nanos().min(u64::MAX as u128) as u64;
            }
            let outcome = self.exchange(&frame);
            let transient = match outcome {
                Ok(Frame::Result(r)) => {
                    if r.request_id != request_id {
                        self.conn = None;
                        return Err(NetError::Wire(WireError::Malformed(format!(
                            "reply correlates to request {} (sent {request_id})",
                            r.request_id
                        ))));
                    }
                    return decode_result(r);
                }
                Ok(Frame::Error(e)) => {
                    if e.request_id != 0 && e.request_id != request_id {
                        self.conn = None;
                        return Err(NetError::Wire(WireError::Malformed(format!(
                            "error correlates to request {} (sent {request_id})",
                            e.request_id
                        ))));
                    }
                    let err = NetError::Serve {
                        code: e.code,
                        job: e.job,
                        tenant: e.tenant,
                        message: e.message,
                    };
                    if is_transient_code(e.code) {
                        last = Some(err);
                        true
                    } else {
                        return Err(err);
                    }
                }
                Ok(other) => {
                    return Err(NetError::Wire(WireError::Malformed(format!(
                        "unexpected reply frame type {}",
                        other.frame_type()
                    ))))
                }
                Err(e @ (NetError::Io(_) | NetError::Closed)) => {
                    last = Some(e);
                    true
                }
                Err(e) => return Err(e),
            };
            if transient && attempt + 1 < attempts {
                // Sleep at most the remaining budget; a budget that
                // cannot cover any wait is exhausted *now*, not after a
                // full backoff it could never afford.
                let sleep = match budget {
                    Some(total) => {
                        let remaining = total.checked_sub(started.elapsed()).unwrap_or_default();
                        if remaining.is_zero() {
                            return Err(NetError::DeadlineExhausted);
                        }
                        backoff.min(remaining)
                    }
                    None => backoff,
                };
                std::thread::sleep(sleep);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
        // Typed server rejections stay typed; only transport churn
        // collapses into the retries-exhausted summary.
        match last {
            Some(e @ NetError::Serve { .. }) => Err(e),
            Some(e) => Err(NetError::RetriesExhausted {
                attempts,
                last: e.to_string(),
            }),
            None => Err(NetError::RetriesExhausted {
                attempts,
                last: "no attempt was made".into(),
            }),
        }
    }

    /// Submits every spec with up to `window` requests in flight on
    /// this one connection, correlating out-of-order replies by request
    /// id. Returns one outcome per spec, in spec order.
    ///
    /// Beyond the windowing, the batch shape enables two protocol
    /// savings a one-at-a-time caller cannot get: programs are
    /// **interned** (the first submission of each distinct program
    /// sends the text; every repeat sends only its digest, falling back
    /// to text transparently if the server evicted it), and submission
    /// frames are **coalesced** into one socket write per burst.
    ///
    /// Each request keeps its own deadline budget and retry budget.
    /// Transient server rejections back off per request (clamped to the
    /// request's remaining budget); a transport failure poisons the
    /// connection and resends every lost request **with its original
    /// id** on the reconnect, so the server can answer from work it
    /// already ran. A protocol-level desync fails every unfinished
    /// request — the stream cannot be trusted after it.
    pub fn submit_pipelined(
        &mut self,
        specs: &[JobSpec],
        window: usize,
    ) -> Vec<Result<NetJobResult, NetError>> {
        let window = window.max(1);
        let started = Instant::now();
        let attempts = 1 + self.cfg.retries;
        let mut results: Vec<Option<Result<NetJobResult, NetError>>> =
            specs.iter().map(|_| None).collect();
        // Intern per batch: the first occurrence of each program ships
        // the text (registering it server-side), repeats ship the
        // 8-byte digest instead.
        let mut interned: HashSet<u64> = HashSet::new();
        let mut queue: VecDeque<PendingReq> = specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let mut req = self.request_for(spec, !interned.insert(spec.seq.digest()));
                req.request_id = self.next_request_id();
                PendingReq {
                    idx,
                    budget: (req.deadline_nanos > 0)
                        .then(|| Duration::from_nanos(req.deadline_nanos)),
                    req,
                    attempts_left: attempts,
                    backoff: self.cfg.backoff,
                    ready_at: None,
                    last: None,
                    last_was_serve: false,
                    last_serve: None,
                }
            })
            .collect();
        let mut inflight: Vec<PendingReq> = Vec::new();
        // Transport-level backoff, shared by the whole window (one dead
        // server should not be hammered `window` times faster).
        let mut conn_backoff = self.cfg.backoff;

        'pump: loop {
            // Fill the window with every request that is ready to send,
            // coalescing the whole burst into one socket write.
            let mut burst = Vec::new();
            let mut burst_reqs: Vec<PendingReq> = Vec::new();
            while inflight.len() + burst_reqs.len() < window {
                let now = Instant::now();
                let Some(pos) = queue
                    .iter()
                    .position(|p| p.ready_at.is_none_or(|t| t <= now))
                else {
                    break;
                };
                let mut p = queue.remove(pos).unwrap();
                let remaining = match p.budget {
                    Some(total) => {
                        let left = total.checked_sub(started.elapsed()).unwrap_or_default();
                        if left.is_zero() {
                            results[p.idx] = Some(Err(NetError::DeadlineExhausted));
                            continue;
                        }
                        Some(left)
                    }
                    None => None,
                };
                if p.attempts_left == 0 {
                    let idx = p.idx;
                    results[idx] = Some(Err(p.exhausted(attempts)));
                    continue;
                }
                p.attempts_left -= 1;
                let mut frame_req = p.req.clone();
                if let Some(left) = remaining {
                    frame_req.deadline_nanos = left.as_nanos().min(u64::MAX as u128) as u64;
                }
                burst.extend_from_slice(&encode_frame(&Frame::Submit(frame_req)));
                burst_reqs.push(p);
            }
            if !burst.is_empty() {
                let sent = match self.ensure_conn() {
                    Ok(conn) => conn.w.write_all(&burst).is_ok(),
                    Err(_) => false,
                };
                if sent {
                    inflight.append(&mut burst_reqs);
                } else {
                    // Transport failure: every in-flight reply on this
                    // stream is lost too. Requeue them all (same ids)
                    // behind a shared backoff gate.
                    self.conn = None;
                    let gate = Instant::now() + conn_backoff;
                    conn_backoff = (conn_backoff * 2).min(Duration::from_secs(1));
                    for mut lost in burst_reqs.drain(..).chain(inflight.drain(..)) {
                        lost.last.get_or_insert_with(|| "connection lost".into());
                        lost.ready_at = Some(gate);
                        queue.push_back(lost);
                    }
                }
            }

            if inflight.is_empty() {
                if queue.is_empty() {
                    break;
                }
                // Everything left is backoff-gated: sleep until the
                // earliest gate, clamped so a dying budget is reported
                // at its deadline rather than after it.
                let now = Instant::now();
                let wake = queue
                    .iter()
                    .map(|p| {
                        let gate = p.ready_at.unwrap_or(now);
                        match p.budget {
                            Some(total) => gate.min(started + total),
                            None => gate,
                        }
                    })
                    .min()
                    .unwrap_or(now);
                std::thread::sleep(
                    wake.saturating_duration_since(now)
                        .min(Duration::from_secs(1)),
                );
                continue;
            }

            // One blocking read; replies may answer any in-flight id.
            let conn = match self.ensure_conn() {
                Ok(c) => c,
                Err(_) => continue 'pump,
            };
            match read_frame(&mut conn.r) {
                Ok(Frame::Result(r)) => {
                    conn_backoff = self.cfg.backoff;
                    let Some(pos) = inflight
                        .iter()
                        .position(|p| p.req.request_id == r.request_id)
                    else {
                        self.fail_batch(
                            &mut results,
                            inflight,
                            queue,
                            &format!("reply correlates to unknown request {}", r.request_id),
                        );
                        break;
                    };
                    let p = inflight.remove(pos);
                    results[p.idx] = Some(decode_result(r));
                }
                Ok(Frame::Error(e)) => {
                    conn_backoff = self.cfg.backoff;
                    if e.request_id == 0 {
                        // A connection-scoped rejection (the server is
                        // about to close); no request of ours can be
                        // answered on this stream anymore.
                        self.fail_batch_serve(&mut results, inflight, queue, &e);
                        break;
                    }
                    let Some(pos) = inflight
                        .iter()
                        .position(|p| p.req.request_id == e.request_id)
                    else {
                        self.fail_batch(
                            &mut results,
                            inflight,
                            queue,
                            &format!("error correlates to unknown request {}", e.request_id),
                        );
                        break;
                    };
                    let mut p = inflight.remove(pos);
                    if e.code == CODE_UNKNOWN_PROGRAM
                        && matches!(p.req.program, ProgramRef::Digest(_))
                    {
                        // The server evicted the interned program
                        // between our registration and this submit:
                        // resend the full text under the same id. Not a
                        // failure of the request itself, so the attempt
                        // is returned.
                        let request_id = p.req.request_id;
                        p.req = self.request_for(&specs[p.idx], false);
                        p.req.request_id = request_id;
                        p.attempts_left += 1;
                        p.ready_at = None;
                        queue.push_back(p);
                    } else if is_transient_code(e.code) && p.attempts_left > 0 {
                        p.last = Some(format!("server error [code {}]: {}", e.code, e.message));
                        p.last_was_serve = true;
                        p.last_serve = Some((e.code, e.job, e.tenant, e.message));
                        p.ready_at = Some(Instant::now() + p.backoff);
                        p.backoff = (p.backoff * 2).min(Duration::from_secs(1));
                        queue.push_back(p);
                    } else {
                        results[p.idx] = Some(Err(NetError::Serve {
                            code: e.code,
                            job: e.job,
                            tenant: e.tenant,
                            message: e.message,
                        }));
                    }
                }
                Ok(other) => {
                    self.fail_batch(
                        &mut results,
                        inflight,
                        queue,
                        &format!("unexpected reply frame type {}", other.frame_type()),
                    );
                    break;
                }
                Err(ReadError::Closed) | Err(ReadError::Io(_)) => {
                    // Same treatment as a write failure: requeue the
                    // whole window with the same ids behind a gate.
                    self.conn = None;
                    let gate = Instant::now() + conn_backoff;
                    conn_backoff = (conn_backoff * 2).min(Duration::from_secs(1));
                    for mut lost in inflight.drain(..) {
                        lost.last = Some("connection lost awaiting reply".into());
                        lost.last_was_serve = false;
                        lost.ready_at = Some(gate);
                        queue.push_back(lost);
                    }
                }
                Err(ReadError::Wire(e)) => {
                    self.fail_batch(&mut results, inflight, queue, &e.to_string());
                    break;
                }
            }
        }

        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(NetError::Closed)))
            .collect()
    }

    /// Fails every unfinished request after a protocol desync: the
    /// stream's framing cannot be trusted, so nothing else can complete
    /// on it.
    fn fail_batch(
        &mut self,
        results: &mut [Option<Result<NetJobResult, NetError>>],
        inflight: Vec<PendingReq>,
        queue: VecDeque<PendingReq>,
        detail: &str,
    ) {
        self.conn = None;
        for p in inflight.into_iter().chain(queue) {
            results[p.idx] = Some(Err(NetError::Wire(WireError::Malformed(detail.into()))));
        }
    }

    fn fail_batch_serve(
        &mut self,
        results: &mut [Option<Result<NetJobResult, NetError>>],
        inflight: Vec<PendingReq>,
        queue: VecDeque<PendingReq>,
        e: &ErrorFrame,
    ) {
        self.conn = None;
        for p in inflight.into_iter().chain(queue) {
            results[p.idx] = Some(Err(NetError::Serve {
                code: e.code,
                job: e.job,
                tenant: e.tenant.clone(),
                message: e.message.clone(),
            }));
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        let t0 = Instant::now();
        match self.exchange(&Frame::Ping)? {
            Frame::Ping => Ok(t0.elapsed()),
            f => Err(NetError::Wire(WireError::Malformed(format!(
                "unexpected reply frame type {}",
                f.frame_type()
            )))),
        }
    }

    /// Drains the server over the wire: returns once every job admitted
    /// before the drain has completed and the server confirmed.
    pub fn drain(&mut self) -> Result<(), NetError> {
        match self.exchange(&Frame::Drain)? {
            Frame::Drain => Ok(()),
            f => Err(NetError::Wire(WireError::Malformed(format!(
                "unexpected reply frame type {}",
                f.frame_type()
            )))),
        }
    }
}

/// One pipelined request's bookkeeping between send and reply.
struct PendingReq {
    idx: usize,
    req: SubmitJob,
    budget: Option<Duration>,
    attempts_left: u32,
    backoff: Duration,
    /// Gate before the next (re)send, set by backoff.
    ready_at: Option<Instant>,
    last: Option<String>,
    last_was_serve: bool,
    last_serve: Option<(u16, u64, String, String)>,
}

impl PendingReq {
    /// The terminal error once the retry budget is gone: typed server
    /// rejections stay typed, transport churn collapses into the
    /// retries-exhausted summary (mirrors the single-submit loop).
    fn exhausted(self, attempts: u32) -> NetError {
        if self.last_was_serve {
            if let Some((code, job, tenant, message)) = self.last_serve {
                return NetError::Serve {
                    code,
                    job,
                    tenant,
                    message,
                };
            }
        }
        NetError::RetriesExhausted {
            attempts,
            last: self.last.unwrap_or_else(|| "no attempt was made".into()),
        }
    }
}

/// The server's transient codes: back off and retry.
fn is_transient_code(code: u16) -> bool {
    // 1 = QueueFull, 7 = QuotaExceeded (ServeError::code).
    code == 1 || code == 7
}

fn decode_result(r: ResultFrame) -> Result<NetJobResult, NetError> {
    let report = RunReport::from_json(&r.report_json)
        .map_err(|e| NetError::Wire(WireError::Malformed(format!("bad report json: {e}"))))?;
    Ok(NetJobResult {
        job: r.job,
        name: r.name,
        tenant: r.tenant,
        cache: r.cache,
        digest: r.digest,
        queued_nanos: r.queued_nanos,
        run_nanos: r.run_nanos,
        order: r.order,
        report,
    })
}

//! The worker pool: the one set of threads every threaded run executes
//! on.
//!
//! [`WorkerPool`] creates its threads **once**; between runs each is
//! parked, and a run unparks exactly the ones it needs while the calling
//! thread takes processor 0's share itself. A run is one dispatch however
//! many timesteps it covers, so a timestepped application that executes
//! the same fused schedule hundreds of times pays for thread creation
//! only when it builds the pool. Within a run, phases synchronize on a
//! [`SenseBarrier`] — a centralized sense-reversing barrier that is
//! reusable across an unbounded number of waits without reinitialization,
//! matching the paper's static-blocked execution model (Section 3.2)
//! where each processor owns a fixed block and meets the others at every
//! phase boundary.
//!
//! Everything that waits here — a barrier participant for its peers, the
//! caller of [`WorkerPool::run`] for its stragglers — waits by one policy,
//! [`wait_step`]: spin for a few microseconds of elapsed time, then yield
//! the processor, then sleep.
//!
//! Panics are contained: a share that panics, the caller's included,
//! reports its processor id and the run returns
//! [`ExecError::WorkerPanic`] instead of poisoning the pool (which keeps
//! serving later runs). Note that a panic *inside a barrier-synchronized
//! job* leaves peers waiting at the barrier, so jobs built by this crate
//! only panic on interpreter bugs.

use crate::exec::ExecError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// What a waiter does next (see [`wait_step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitStep {
    /// Poll again at once: whoever is awaited is running on another core
    /// and about to arrive.
    Spin,
    /// Give up the processor for one scheduling round, then poll: whoever
    /// is awaited may be runnable but queued behind this very thread.
    Yield,
    /// Sleep until woken.
    Park,
}

/// A waiter spins until it has waited this long.
const SPIN_NANOS: u64 = 5_000;
/// A waiter yields until it has waited this long, then parks.
const YIELD_NANOS: u64 = 50_000;
/// Spin-loop hints between two readings of the clock while spinning.
const HINTS_PER_CLOCK_READ: u32 = 32;
// Yielding has a window, and parking comes within tens of microseconds: a
// barrier must stay far cheaper than the block of work it guards.
const _: () = assert!(SPIN_NANOS < YIELD_NANOS && YIELD_NANOS <= 100_000);

/// The one wait policy of the runtime, as a function of how long the
/// waiter has already waited.
///
/// The thresholds are elapsed time, not iterations: what an iteration
/// costs depends on the CPU's `pause` latency (a budget of `1 << 14` hints
/// was 170 µs on the host this was measured on — longer than most phases
/// it guarded), while the thing being traded against, a futex sleep and
/// wake-up, costs microseconds on any host. EXPERIMENTS.md, "What a
/// parallel run costs", records the sweep that chose the two constants.
pub const fn wait_step(waited_nanos: u64) -> WaitStep {
    if waited_nanos < SPIN_NANOS {
        WaitStep::Spin
    } else if waited_nanos < YIELD_NANOS {
        WaitStep::Yield
    } else {
        WaitStep::Park
    }
}

/// How one wait went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Waited {
    /// Nanoseconds from arriving to being released (0 for whoever
    /// arrived last and waited for nobody).
    pub nanos: u64,
    /// The wait outlasted its spin and gave up the processor.
    pub yielded: bool,
    /// The wait outlasted its yields too and slept on the condvar.
    pub parked: bool,
}

/// Where waiters sleep once the policy says [`WaitStep::Park`], and how
/// whoever ends the wait finds them there.
///
/// `sleepers` counts the threads inside `cv.wait`. It lets [`Gate::open`]
/// wake exactly those and make no system call at all when nobody slept —
/// the common case once waits are short.
struct Gate {
    sleepers: Mutex<usize>,
    cv: Condvar,
}

/// Why locking a gate cannot fail: nothing that can panic runs under it.
const GATE_LOCK: &str = "the gate lock is only held across atomic loads";

impl Gate {
    fn new() -> Gate {
        Gate {
            sleepers: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Waits by [`wait_step`] until `ready()`.
    fn wait(&self, ready: impl Fn() -> bool) -> Waited {
        let t0 = Instant::now();
        let mut out = Waited::default();
        let mut waited = 0;
        'waiting: loop {
            match wait_step(waited) {
                WaitStep::Spin => {
                    for _ in 0..HINTS_PER_CLOCK_READ {
                        if ready() {
                            break 'waiting;
                        }
                        std::hint::spin_loop();
                    }
                }
                WaitStep::Yield => {
                    if ready() {
                        break;
                    }
                    out.yielded = true;
                    thread::yield_now();
                }
                WaitStep::Park => {
                    // Checked again under the lock `open` takes after the
                    // condition came true, so the flip cannot land between
                    // this check and the sleep (no lost wake-up).
                    let mut sleepers = self.sleepers.lock().expect(GATE_LOCK);
                    if !ready() {
                        out.parked = true;
                        *sleepers += 1;
                        while !ready() {
                            sleepers = self.cv.wait(sleepers).expect(GATE_LOCK);
                        }
                        *sleepers -= 1;
                    }
                    break;
                }
            }
            waited = t0.elapsed().as_nanos() as u64;
        }
        out.nanos = t0.elapsed().as_nanos() as u64;
        out
    }

    /// Wakes every sleeper. Call *after* making the awaited condition
    /// true. The lock is held across the wake-ups: a thread that went on
    /// to the *next* wait on this gate cannot start sleeping, and take a
    /// wake-up meant for one of the counted sleepers, until all are sent.
    fn open(&self) {
        let sleepers = self.sleepers.lock().expect(GATE_LOCK);
        for _ in 0..*sleepers {
            self.cv.notify_one();
        }
    }
}

/// A centralized sense-reversing barrier.
///
/// Each participant keeps a *local sense* flag (flipped on every wait);
/// the last arriver resets the count and publishes the new global sense,
/// releasing the waiters. Unlike a plain counting barrier, consecutive
/// waits need no reinitialization — the alternating sense distinguishes
/// adjacent phases.
///
/// Waiters wait by [`wait_step`], every barrier alike: the policy looks
/// only at the clock, so it has no state a slow stretch could leave
/// behind and nothing to tune per schedule or per runtime. It influences
/// *timing* only, never the work performed between barriers.
pub struct SenseBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
    gate: Gate,
}

impl SenseBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        SenseBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            n,
            gate: Gate::new(),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Waits until all `n` participants have arrived. `local` is the
    /// caller's sense flag: initialize it to `false` before the first
    /// wait and pass the same flag to every subsequent wait.
    ///
    /// Returns the nanoseconds this caller spent waiting (the last
    /// arriver waits 0).
    pub fn wait(&self, local: &mut bool) -> u64 {
        self.wait_outcome(local).nanos
    }

    /// As [`wait`](SenseBarrier::wait), but also reports how far down the
    /// policy the wait went.
    pub fn wait_outcome(&self, local: &mut bool) -> Waited {
        let sense = !*local;
        *local = sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset first: nobody adds to the count again before observing
            // the flip below.
            self.count.store(0, Ordering::Release);
            self.sense.store(sense, Ordering::Release);
            self.gate.open();
            return Waited::default();
        }
        self.gate
            .wait(|| self.sense.load(Ordering::Acquire) == sense)
    }
}

/// A job dispatched to the pool: called once per participating processor
/// with its id. The `'static` lifetime is a lie told by
/// [`WorkerPool::run`] (see its safety argument); no thread dereferences
/// it outside the run that published it.
type Job = &'static (dyn Fn(usize) + Sync);

/// Why locking the pool's state cannot fail: no lock in this module is
/// held while a job runs.
const POOL_LOCK: &str = "the pool lock is never held across a job";

struct State {
    /// Incremented once per dispatched job; a worker runs a job exactly
    /// once by comparing against its last-seen epoch.
    epoch: u64,
    /// Processors of the current job: the caller and workers
    /// `1..participants`.
    participants: usize,
    job: Option<Job>,
    /// Processor ids whose share panicked this epoch.
    panicked: Vec<usize>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Woken workers that have not finished the current job yet.
    active: AtomicUsize,
    /// Where the caller waits for `active == 0`.
    done: Gate,
}

/// A pool of persistent threads with stable processor ids, in which the
/// thread that calls [`WorkerPool::run`] is processor 0.
///
/// [`WorkerPool::new`] spawns `size - 1` threads (processors `1..size`)
/// that live, parked, until the pool is dropped. A run over `n`
/// processors publishes the job, unparks workers `1..n` — and nobody
/// else — runs processor 0's share on the calling thread, and returns
/// once every woken worker has finished, so a run has exclusive use of
/// the pool and the job may borrow the caller's stack.
pub struct WorkerPool {
    inner: Arc<Inner>,
    /// `handles[w - 1]` is processor `w`'s thread.
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool for up to `size` processors: spawns `size - 1` threads,
    /// parked until a [`run`](WorkerPool::run) needs them.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool needs at least one processor");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                participants: 0,
                job: None,
                panicked: Vec::new(),
                shutdown: false,
            }),
            active: AtomicUsize::new(0),
            done: Gate::new(),
        });
        let handles = (1..size)
            .map(|w| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("sp-pool-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Processors a run may use: the caller plus the pool's threads.
    pub fn size(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `job(p)` for every processor `p` in `0..n` — `job(0)` on the
    /// calling thread, the rest on workers `1..n` — and returns when all
    /// have finished. Exclusive (`&mut`): a pool serves one run at a time.
    /// Workers `n..size` are not woken; `n == 1` wakes and waits for
    /// nobody.
    ///
    /// Returns [`ExecError::WorkerPanic`] if any processor's share
    /// panicked (the lowest such id); the pool itself stays usable.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`size`](WorkerPool::size).
    pub fn run(&mut self, n: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        assert!(
            (1..=self.size()).contains(&n),
            "{n} processors asked of a pool of {}",
            self.size()
        );
        let inner = &*self.inner;
        // SAFETY: this transmute only extends the reference's lifetime, and
        // the borrow it extends is live at every dereference. The job is
        // dereferenced by this thread, below, and by the workers `1..n`:
        // a worker dereferences it strictly between reading it from
        // `state` under the current epoch and its release decrement of
        // `active`; only workers `1..n` ever read it (the others see
        // `w >= participants`), and `active` starts at their number. This
        // function does not return before it has acquire-loaded
        // `active == 0` — also when its own share panicked, which is
        // caught, and nothing between publishing the job and that load
        // can unwind (locks here are never held across user code, so
        // never poisoned) — and it clears the slot before returning.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        {
            let mut st = inner.state.lock().expect(POOL_LOCK);
            debug_assert_eq!(
                inner.active.load(Ordering::Acquire),
                0,
                "pool runs are exclusive"
            );
            st.job = Some(job);
            st.participants = n;
            st.epoch += 1;
            st.panicked.clear();
            inner.active.store(n - 1, Ordering::Release);
        }
        for worker in &self.handles[..n - 1] {
            worker.thread().unpark();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        inner
            .done
            .wait(|| inner.active.load(Ordering::Acquire) == 0);
        let mut st = inner.state.lock().expect(POOL_LOCK);
        st.job = None;
        if mine.is_err() {
            st.panicked.push(0);
        }
        match st.panicked.iter().min() {
            Some(&proc) => Err(ExecError::WorkerPanic { proc }),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // A drop must not panic, and the workers must hear of it even if
        // the lock was poisoned: every update leaves the state valid.
        self.inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .shutdown = true;
        for h in self.handles.drain(..) {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, w: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let st = inner.state.lock().expect(POOL_LOCK);
            if st.shutdown {
                return;
            }
            // A wake-up with nothing new to do — spurious, or the token of
            // an `unpark` that raced a finished job — goes back to sleep.
            (st.epoch != seen && w < st.participants).then(|| {
                seen = st.epoch;
                st.job.expect("epoch bumped without a job")
            })
        };
        let Some(job) = job else {
            thread::park();
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(w)));
        if outcome.is_err() {
            inner.state.lock().expect(POOL_LOCK).panicked.push(w);
        }
        if inner.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            inner.done.open();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn pool_runs_every_processor_once_per_dispatch() {
        let mut pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        for _ in 0..10 {
            pool.run(4, &|p| {
                hits.fetch_add(1 << (8 * p), Ordering::Relaxed);
            })
            .unwrap();
        }
        // Each processor ran exactly 10 times.
        assert_eq!(hits.load(Ordering::Relaxed), 0x0a0a_0a0a);
    }

    #[test]
    fn pool_jobs_may_borrow_the_stack() {
        let mut pool = WorkerPool::new(3);
        let data = [0u64; 3];
        let slots: Vec<Mutex<u64>> = data.iter().map(|_| Mutex::new(0)).collect();
        pool.run(3, &|p| {
            *slots[p].lock().unwrap() = p as u64 + 1;
        })
        .unwrap();
        let got: Vec<u64> = slots.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    /// Which thread ran each processor's share of one `n`-processor run.
    fn who_ran(pool: &mut WorkerPool, n: usize) -> Vec<Option<ThreadId>> {
        let ran: Vec<Mutex<Option<ThreadId>>> =
            (0..pool.size()).map(|_| Mutex::new(None)).collect();
        pool.run(n, &|p| {
            let was = ran[p].lock().unwrap().replace(thread::current().id());
            assert!(was.is_none(), "processor {p} ran twice");
        })
        .unwrap();
        ran.into_iter().map(|m| m.into_inner().unwrap()).collect()
    }

    #[test]
    fn the_caller_is_processor_0_and_only_participants_run() {
        let me = thread::current().id();
        let mut pool = WorkerPool::new(4);
        assert_eq!(pool.handles.len(), 3, "one thread per processor but 0");
        // Alone, the caller wakes nobody.
        assert_eq!(who_ran(&mut pool, 1), [Some(me), None, None, None]);
        // Surplus workers of an oversized pool never run, before or after
        // a run that used them.
        for n in [2, 4, 3, 1] {
            let ran = who_ran(&mut pool, n);
            assert_eq!(ran[0], Some(me));
            for (p, t) in ran.iter().enumerate().skip(1) {
                assert_eq!(t.is_some(), p < n, "n = {n}, processor {p}");
                assert_ne!(*t, Some(me), "processor {p} ran on the caller");
            }
        }
        // A pool of one — `PooledExecutor::new(1)` — has no thread at all.
        let mut alone = WorkerPool::new(1);
        assert!(alone.handles.is_empty());
        assert_eq!(who_ran(&mut alone, 1), [Some(me)]);
    }

    #[test]
    fn a_panic_on_any_processor_is_typed_and_the_pool_survives() {
        let mut pool = WorkerPool::new(3);
        for bad in 0..3 {
            let finished = AtomicU64::new(0);
            let err = pool
                .run(3, &|p| {
                    if p == bad {
                        panic!("boom on {p}");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap_err();
            assert_eq!(err, ExecError::WorkerPanic { proc: bad });
            assert_eq!(finished.load(Ordering::Relaxed), 2, "the others finish");
            // The same pool, caller included, serves the next run.
            let ok = AtomicU64::new(0);
            pool.run(3, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(ok.load(Ordering::Relaxed), 3);
        }
        // Several at once: the lowest id is reported.
        let err = pool.run(3, &|_| panic!("all")).unwrap_err();
        assert_eq!(err, ExecError::WorkerPanic { proc: 0 });
    }

    /// Back-to-back dispatches with a changing participant count: a lost
    /// wake-up — a worker that sleeps through its `unpark`, a caller that
    /// sleeps through the last decrement, a barrier sleeper nobody counts
    /// — hangs the run, which the watchdog turns into a failure.
    #[test]
    fn no_wake_up_is_lost_across_20_000_dispatches() {
        const RUNS: u64 = 20_000;
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let mut pool = WorkerPool::new(3);
            let shares = AtomicU64::new(0);
            for run in 0..RUNS {
                let n = (run % 3 + 1) as usize;
                let barrier = SenseBarrier::new(n);
                pool.run(n, &|_| {
                    shares.fetch_add(1, Ordering::Relaxed);
                    barrier.wait(&mut false);
                })
                .unwrap();
            }
            tx.send(shares.load(Ordering::Relaxed)).unwrap();
        });
        let shares = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the pool hung: a wake-up was lost");
        // n cycles 1, 2, 3: two shares per run on average.
        assert_eq!(shares, RUNS / 3 * 6 + [0, 1, 3][(RUNS % 3) as usize]);
    }

    #[test]
    fn the_wait_policy_spins_then_yields_then_parks() {
        assert_eq!(wait_step(0), WaitStep::Spin);
        assert_eq!(wait_step(SPIN_NANOS - 1), WaitStep::Spin);
        assert_eq!(wait_step(SPIN_NANOS), WaitStep::Yield);
        assert_eq!(wait_step(YIELD_NANOS - 1), WaitStep::Yield);
        assert_eq!(wait_step(YIELD_NANOS), WaitStep::Park);
        assert_eq!(wait_step(u64::MAX), WaitStep::Park);
    }

    #[test]
    fn a_waiter_parks_for_a_late_peer_and_not_for_a_prompt_one() {
        let b = SenseBarrier::new(2);
        // Late: the peer arrives 2 ms — forty park thresholds — after the
        // waiter said it was about to wait.
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                tx.send(()).unwrap();
                b.wait_outcome(&mut false)
            });
            rx.recv().unwrap();
            thread::sleep(Duration::from_millis(2));
            assert_eq!(
                b.wait_outcome(&mut false),
                Waited::default(),
                "the last arriver waits for nobody"
            );
            let waited = waiter.join().unwrap();
            assert!(waited.parked && waited.yielded, "{waited:?}");
            assert!(waited.nanos >= 2_000_000 - YIELD_NANOS, "{waited:?}");
        });
        // Prompt: two threads meeting back to back. Whoever arrives first
        // is released by a peer that is already on its way, so at least
        // some of those waits end before the park threshold.
        const ROUNDS: u64 = 500;
        let meet = || {
            let mut sense = true; // the barrier's sense after one episode
            (0..ROUNDS)
                .filter(|_| b.wait_outcome(&mut sense).parked)
                .count() as u64
        };
        let parks = thread::scope(|s| {
            let peer = s.spawn(meet);
            meet() + peer.join().unwrap()
        });
        assert!(
            parks < ROUNDS,
            "every one of {ROUNDS} prompt meetings parked"
        );
    }

    #[test]
    fn sense_barrier_reusable_across_many_waits() {
        let n = 4usize;
        let barrier = SenseBarrier::new(n);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    let mut sense = false;
                    for round in 0..100u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut sense);
                        // After the wait, every peer finished this round.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * n as u64);
                        barrier.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100 * n as u64);
    }
}

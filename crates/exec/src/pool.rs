//! A persistent static-blocked worker pool.
//!
//! The scoped runtime (`std::thread::scope`) pays thread creation and
//! teardown on every run — a real cost when a timestepped application
//! executes the same fused schedule hundreds of times. [`WorkerPool`]
//! creates its workers **once**; between runs they park on a condvar, and
//! a run wakes them with an epoch bump. Within a run, phases synchronize
//! on a [`SenseBarrier`] — a centralized sense-reversing barrier that is
//! reusable across an unbounded number of waits without reinitialization,
//! matching the paper's static-blocked execution model (Section 3.2)
//! where each processor owns a fixed block and meets the others at every
//! phase boundary.
//!
//! Worker panics are contained: a panicking worker reports its processor
//! id and the run returns [`ExecError::WorkerPanic`] instead of poisoning
//! the pool (remaining workers keep serving later runs). Note that a
//! panic *inside a barrier-synchronized job* leaves peers waiting at the
//! barrier, so jobs built by this crate only panic on interpreter bugs.

use crate::exec::ExecError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// A centralized sense-reversing barrier, hybrid spin-then-block.
///
/// Each participant keeps a *local sense* flag (flipped on every wait);
/// the last arriver resets the count and publishes the new global sense,
/// releasing the waiters. Unlike a plain counting barrier, consecutive
/// waits need no reinitialization — the alternating sense distinguishes
/// adjacent phases.
///
/// Waiters spin briefly (cheap when every participant has its own core
/// and phases are balanced), then block on a condvar. When the barrier
/// has more participants than the host has cores, the spin budget is cut
/// to near zero: spinning on an oversubscribed core only steals cycles
/// from the peers the waiter is waiting *for*.
///
/// An [`adaptive`](SenseBarrier::adaptive) barrier additionally adjusts
/// the spin budget from observed contention: every wait that has to park
/// on the condvar halves the budget (spinning clearly wasn't going to
/// succeed), every wait satisfied within the spin phase nudges it back
/// up. The budget is shared by all participants and only influences
/// *timing*, never results, so adaptivity cannot perturb determinism of
/// the work performed between barriers.
pub struct SenseBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
    spin: AtomicU32,
    adaptive: bool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Floor of the adaptive spin budget: never stop spinning entirely, the
/// first few iterations catch near-simultaneous arrivals for free.
pub(crate) const MIN_SPIN: u32 = 64;
/// Ceiling of the adaptive spin budget.
const MAX_SPIN: u32 = 1 << 16;

impl SenseBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        SenseBarrier::with_spin(n, Self::default_spin(n))
    }

    /// A barrier whose spin budget adapts to contention (see type docs).
    pub fn adaptive(n: usize) -> Self {
        SenseBarrier::adaptive_with_spin(n, Self::default_spin(n))
    }

    /// An adaptive barrier with an explicit initial spin budget.
    pub fn adaptive_with_spin(n: usize, spin: u32) -> Self {
        let mut b = SenseBarrier::with_spin(n, spin);
        b.adaptive = true;
        b
    }

    fn default_spin(n: usize) -> u32 {
        // Asked once per process: the query reads cgroup files, and the
        // scoped runtime builds a barrier every timestep.
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| {
            thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        if n <= cores {
            1 << 14
        } else {
            64
        }
    }

    /// A barrier with an explicit spin budget before blocking.
    pub fn with_spin(n: usize, spin: u32) -> Self {
        assert!(n >= 1);
        SenseBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            n,
            spin: AtomicU32::new(spin),
            adaptive: false,
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// The current spin budget (varies over time on an adaptive barrier).
    pub fn spin_budget(&self) -> u32 {
        self.spin.load(Ordering::Relaxed)
    }

    /// Waits until all `n` participants have arrived. `local` is the
    /// caller's sense flag: initialize it to `false` before the first
    /// wait and pass the same flag to every subsequent wait.
    ///
    /// Returns the nanoseconds this caller spent waiting (the last
    /// arriver waits ~0).
    pub fn wait(&self, local: &mut bool) -> u64 {
        self.wait_outcome(local).0
    }

    /// As [`wait`](SenseBarrier::wait), but also reports whether this
    /// caller exhausted its spin budget and parked on the condvar.
    pub fn wait_outcome(&self, local: &mut bool) -> (u64, bool) {
        let sense = !*local;
        *local = sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            // Publish the flip while holding the lock: a waiter checks the
            // sense under the same lock before blocking, so the store
            // cannot land between its check and its wait (no lost wakeup).
            let guard = self.lock.lock().unwrap();
            self.sense.store(sense, Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return (0, false);
        }
        let t0 = Instant::now();
        let budget = self.spin.load(Ordering::Relaxed);
        let mut spins = 0u32;
        let mut parked = false;
        loop {
            if self.sense.load(Ordering::Acquire) == sense {
                break;
            }
            if spins < budget {
                spins += 1;
                std::hint::spin_loop();
            } else {
                parked = true;
                let mut guard = self.lock.lock().unwrap();
                while self.sense.load(Ordering::Acquire) != sense {
                    guard = self.cv.wait(guard).unwrap();
                }
                break;
            }
        }
        if self.adaptive {
            if parked {
                // Spinning lost the race to the condvar; shrink the budget
                // so the next imbalanced phase parks sooner.
                self.spin
                    .store((budget / 2).max(MIN_SPIN), Ordering::Relaxed);
            } else if spins > 0 {
                // The spin paid off; let the budget recover.
                self.spin
                    .store(budget.saturating_mul(2).min(MAX_SPIN), Ordering::Relaxed);
            }
        }
        (t0.elapsed().as_nanos() as u64, parked)
    }
}

/// A job dispatched to the pool: called once per worker with the worker's
/// processor id. The `'static` lifetime is a lie told by [`WorkerPool::run`]
/// (see its safety argument); workers never hold the reference past the
/// epoch in which it was published.
type Job = &'static (dyn Fn(usize) + Sync);

struct State {
    /// Incremented once per dispatched job; workers run a job exactly
    /// once by comparing against their last-seen epoch.
    epoch: u64,
    /// Workers still executing the current job.
    active: usize,
    job: Option<Job>,
    /// Processor ids whose job closure panicked this epoch.
    panicked: Vec<usize>,
    shutdown: bool,
}

struct Inner {
    size: usize,
    state: Mutex<State>,
    /// Signaled when a new epoch (or shutdown) is published.
    start: Condvar,
    /// Signaled when the last active worker finishes the job.
    done: Condvar,
}

/// A pool of persistent worker threads with stable processor ids.
///
/// Workers are spawned by [`WorkerPool::new`] and live until the pool is
/// dropped. [`WorkerPool::run`] publishes a job (a closure receiving the
/// worker's processor id `0..size`), wakes every worker, and blocks until
/// all of them finish — so a run has exclusive use of the pool and the
/// job may borrow the caller's stack.
pub struct WorkerPool {
    inner: std::sync::Arc<Inner>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` workers (processor ids `0..size`), parked until the
    /// first [`run`](WorkerPool::run).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool needs at least one worker");
        let inner = std::sync::Arc::new(Inner {
            size,
            state: Mutex::new(State {
                epoch: 0,
                active: 0,
                job: None,
                panicked: Vec::new(),
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..size)
            .map(|w| {
                let inner = std::sync::Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("sp-pool-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Runs `job` on every worker (each receives its processor id) and
    /// blocks until all workers have finished it. Exclusive (`&mut`):
    /// a pool serves one run at a time.
    ///
    /// Returns [`ExecError::WorkerPanic`] if any worker's closure
    /// panicked; the pool itself stays usable.
    pub fn run(&mut self, job: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        // SAFETY: this transmute only extends the reference's lifetime.
        // Workers dereference the job strictly between observing the new
        // epoch and decrementing `active`; this function does not return
        // until `active == 0` and the slot is cleared, so the borrow is
        // live for every dereference.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut st = self.inner.state.lock().unwrap();
        debug_assert_eq!(st.active, 0, "pool runs are exclusive");
        st.job = Some(job);
        st.active = self.inner.size;
        st.epoch += 1;
        st.panicked.clear();
        self.inner.start.notify_all();
        while st.active > 0 {
            st = self.inner.done.wait(st).unwrap();
        }
        st.job = None;
        match st.panicked.first() {
            Some(&proc) => Err(ExecError::WorkerPanic { proc }),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
            self.inner.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, w: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("epoch bumped without a job");
                }
                st = inner.start.wait(st).unwrap();
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(w)));
        let mut st = inner.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked.push(w);
        }
        st.active -= 1;
        if st.active == 0 {
            inner.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_worker_once_per_dispatch() {
        let mut pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        for _ in 0..10 {
            pool.run(&|w| {
                hits.fetch_add(1 << (8 * w), Ordering::Relaxed);
            })
            .unwrap();
        }
        // Each worker ran exactly 10 times.
        assert_eq!(hits.load(Ordering::Relaxed), 0x0a0a_0a0a);
    }

    #[test]
    fn pool_jobs_may_borrow_the_stack() {
        let mut pool = WorkerPool::new(3);
        let data = [0u64; 3];
        let slots: Vec<Mutex<u64>> = data.iter().map(|_| Mutex::new(0)).collect();
        pool.run(&|w| {
            *slots[w].lock().unwrap() = w as u64 + 1;
        })
        .unwrap();
        let got: Vec<u64> = slots.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn pool_survives_worker_panic() {
        let mut pool = WorkerPool::new(2);
        let err = pool
            .run(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic { proc: 1 }));
        // Pool still serves jobs afterwards.
        let ok = AtomicU64::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn adaptive_barrier_parks_and_shrinks_budget() {
        // Explicit initial budget: the core-count default may already sit
        // at the floor on small hosts, where a park cannot shrink it.
        let b = SenseBarrier::adaptive_with_spin(2, 4096);
        let initial = b.spin_budget();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sense = false;
                let (waited, parked) = b.wait_outcome(&mut sense);
                assert!(parked, "waiter should outlive its spin budget");
                assert!(waited > 0);
            });
            // Arrive long after the waiter's spin budget is exhausted.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let mut sense = false;
            let (_, parked) = b.wait_outcome(&mut sense);
            assert!(!parked, "the last arriver never parks");
        });
        assert!(b.spin_budget() < initial, "park shrinks the budget");
    }

    #[test]
    fn fixed_barrier_keeps_its_spin_budget() {
        let b = SenseBarrier::with_spin(2, 1024);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sense = false;
                b.wait_outcome(&mut sense);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            let mut sense = false;
            b.wait_outcome(&mut sense);
        });
        assert_eq!(b.spin_budget(), 1024, "non-adaptive budget is fixed");
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

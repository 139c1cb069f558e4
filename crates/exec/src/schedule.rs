//! Scheduling of legal blocks: the chunk decomposition and claim policy
//! behind the static and work-stealing schedules.
//!
//! Static blocked scheduling (the paper's Section 3.2 model) remains the
//! legality unit: a chunk is a [`ProcBlock`] whose width satisfies the
//! Theorem-1 `Nt` lower bound on every fused level, produced by
//! subdividing a static block along the outermost fused level. Executing
//! the fused phases of all chunks, a barrier, then the peeled phases of
//! all chunks is exactly the static schedule on a finer processor grid —
//! so *any* assignment of chunks to workers produces bit-for-bit
//! identical memory results, and re-assigning whole chunks is the only
//! freedom stealing exercises. [`Schedule::Static`] is the degenerate
//! decomposition: one chunk per block, which nobody steals.
//!
//! Determinism is split in two:
//!
//! * **Result-affecting decisions** (the chunk decomposition itself) are
//!   pure functions of the run configuration and the plan, so the
//!   deterministic [`SimExecutor`](crate::executor::SimExecutor) and the
//!   threaded runtimes agree on per-owner work counters exactly. Work
//!   counters are attributed to a chunk's *owner* (the static block it
//!   was carved from), not the worker that happened to execute it.
//! * **Timing-only decisions** (which worker steals which chunk, when a
//!   barrier wait parks) are free to race; they are observable only
//!   through equality-exempt counters (`steals`, `parks`, `*_nanos`)
//!   and trace spans.
//!
//! Steal behavior itself is made testable by [`simulate_stealing`]: a
//! [`SimClock`]-driven discrete-event simulation that steals through the
//! runtime's own steal order, with scripted per-chunk durations — a
//! fixed seed reproduces an identical steal log in `cargo test`.

use crate::interp::ExecCounters;
use shift_peel_core::analysis::{check_blocks, ProcBlock};
use shift_peel_core::LegalityError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How parallel phases are assigned to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One block per processor, fixed for the whole run (the paper's
    /// model; the default).
    #[default]
    Static,
    /// Work stealing: each static block is split into uniform chunks;
    /// every worker walks its own chunk list front to back and, when it
    /// runs dry, steals whole chunks from the back of seeded-randomly
    /// chosen victims' lists.
    Stealing,
}

impl Schedule {
    /// Short stable name (`static` / `stealing`) used in
    /// reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Static => "static",
            Schedule::Stealing => "stealing",
        }
    }

    /// Parses the name [`Schedule::name`] emits.
    pub fn parse(s: &str) -> Option<Schedule> {
        match s {
            "static" => Some(Schedule::Static),
            "stealing" => Some(Schedule::Stealing),
            _ => None,
        }
    }

    /// Every schedule, in display order.
    pub fn all() -> [Schedule; 2] {
        [Schedule::Static, Schedule::Stealing]
    }
}

/// The default seed for stealing victim selection when the run config
/// does not override it.
pub const DEFAULT_STEAL_SEED: u64 = 0x005E_EDBA_5E0F_CAFE;

/// Uniform chunks per owner when no explicit chunk size is configured
/// (the `sp-machine` auto-tuner picks a better size from the cost
/// model, capped so each owner still holds this many).
pub const DEFAULT_CHUNKS_PER_OWNER: i64 = 4;

/// SplitMix64: advances `state` and returns the next well-mixed value of
/// the stream (the one generator behind victim selection and `sp-net`'s
/// request-id seeding).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded victim selection shared by the runtime steal loop and the
/// deterministic scheduler simulation: a splitmix64 stream over
/// `0..workers`, seeded per worker so distinct thieves probe distinct
/// victim orders.
#[derive(Clone, Debug)]
pub struct VictimSelector {
    state: u64,
    workers: usize,
}

impl VictimSelector {
    /// A selector for worker `me` of `workers`, derived from `seed`.
    pub fn new(seed: u64, me: usize, workers: usize) -> Self {
        let mut state = seed ^ (me as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        // Warm the stream so nearby worker ids decorrelate immediately.
        splitmix64(&mut state);
        VictimSelector {
            state,
            workers: workers.max(1),
        }
    }

    /// The next victim candidate in `0..workers` (callers skip
    /// themselves).
    pub fn next_victim(&mut self) -> usize {
        (splitmix64(&mut self.state) % self.workers as u64) as usize
    }
}

/// Splits `trip` iterations into uniform chunks of roughly `target`
/// iterations, never below `min` (sizes differ by at most one, exactly
/// like the static decomposition).
fn uniform_sizes(trip: i64, target: i64, min: i64) -> Vec<i64> {
    debug_assert!(trip >= min && min >= 1);
    let target = target.clamp(min, trip);
    // k <= trip/min guarantees every chunk holds at least `min`.
    let k = (trip / target).clamp(1, trip / min);
    let base = trip / k;
    let rem = trip % k;
    (0..k).map(|i| base + i64::from(i < rem)).collect()
}

/// Subdivides one static block along the outermost fused level into
/// chunks of the given sizes. Boundary flags split with the range: only
/// the first chunk can touch the global low end, only the last the
/// global high end — interior chunk boundaries peel exactly like the
/// static block boundaries they mirror.
fn split_block(block: &ProcBlock, sizes: &[i64], first_chunk_id: usize) -> Vec<ProcBlock> {
    let (lo, hi) = block.range[0];
    debug_assert_eq!(sizes.iter().sum::<i64>(), hi - lo + 1);
    let mut chunks = Vec::with_capacity(sizes.len());
    let mut start = lo;
    for (i, &len) in sizes.iter().enumerate() {
        let end = start + len - 1;
        let mut range = block.range.clone();
        range[0] = (start, end);
        let mut low = block.low_boundary.clone();
        let mut high = block.high_boundary.clone();
        low[0] = block.low_boundary[0] && i == 0;
        high[0] = block.high_boundary[0] && i == sizes.len() - 1;
        chunks.push(ProcBlock {
            proc: first_chunk_id + i,
            range,
            low_boundary: low,
            high_boundary: high,
        });
        start = end + 1;
    }
    chunks
}

/// The one steal order, shared by the runtime and [`simulate_stealing`]:
/// seeded victim draws (skipping the thief `p`), each victim's list from
/// the back (the chunks its owner reaches last), then a low-to-high sweep
/// as the livelock-free fallback. `claim(c)` takes chunk `c` if it is
/// free: an atomic `try_steal` at run time, a flag in the simulation.
fn steal_order(
    p: usize,
    by_owner: &[Vec<u32>],
    selector: &mut VictimSelector,
    mut claim: impl FnMut(usize) -> bool,
) -> Option<usize> {
    for _ in 0..by_owner.len() {
        let v = selector.next_victim();
        if v == p {
            continue;
        }
        let mut back = by_owner[v].iter().rev().map(|&c| c as usize);
        if let Some(c) = back.find(|&c| claim(c)) {
            return Some(c);
        }
    }
    let chunks = by_owner.iter().map(Vec::len).sum();
    (0..chunks).find(|&c| claim(c))
}

/// One chunk's mutable state: the phase epoch it was last claimed in and
/// an accumulator for its owner-attributed work counters. On a cache
/// line of its own, so an owner working through its chunks shares no
/// line with its neighbours — under the static schedule the claim and
/// the accumulator never leave the owner's cache.
#[repr(align(64))]
#[derive(Default)]
struct ChunkState {
    claim: AtomicU64,
    work: Mutex<ExecCounters>,
}

/// One parallel group's chunk decomposition and claim state: the chunks
/// (each a legal block), each chunk's owner (the static block it was
/// carved from), per owner the ids of its chunks in iteration order,
/// and per chunk its [`ChunkState`]. Phases are numbered identically by
/// every worker, so a claim word below the current epoch means
/// unclaimed; claims are `fetch_max` races — the winner executes the
/// chunk exactly once per phase.
pub(crate) struct GroupChunks {
    pub chunks: Vec<ProcBlock>,
    pub owner: Vec<usize>,
    pub by_owner: Vec<Vec<u32>>,
    state: Vec<ChunkState>,
}

impl GroupChunks {
    /// Builds the chunk decomposition of one parallel group under
    /// `schedule`. `chunk` is the configured chunk size (`None` picks a
    /// default); `nworkers` sizes the per-owner index (owners are the
    /// group's static blocks, which never outnumber the workers).
    pub(crate) fn build(
        group: &shift_peel_core::FusedGroup,
        blocks: &[ProcBlock],
        schedule: Schedule,
        chunk: Option<i64>,
        nworkers: usize,
    ) -> Result<GroupChunks, LegalityError> {
        let nt0 = group.derivation.dims.first().map_or(1, |d| d.nt()).max(1);
        let mut chunks = Vec::new();
        let mut owner = Vec::new();
        let mut by_owner: Vec<Vec<u32>> = vec![Vec::new(); nworkers.max(blocks.len())];
        for (p, block) in blocks.iter().enumerate() {
            let trip = block.range[0].1 - block.range[0].0 + 1;
            let sizes = match schedule {
                // Static blocking is the chunk list nobody steals from:
                // one chunk per owner, the block itself.
                Schedule::Static => vec![trip],
                Schedule::Stealing => {
                    let per_owner = DEFAULT_CHUNKS_PER_OWNER;
                    let target = chunk.unwrap_or((trip + per_owner - 1) / per_owner);
                    uniform_sizes(trip, target.min(trip), nt0)
                }
            };
            for c in split_block(block, &sizes, chunks.len()) {
                by_owner[p].push(chunks.len() as u32);
                chunks.push(c);
                owner.push(p);
            }
        }
        // Defense in depth: the sizing rules above keep every chunk at or
        // above the Nt floor, but the legality check stays authoritative.
        check_blocks(&group.derivation, &chunks)?;
        Ok(GroupChunks {
            state: chunks.iter().map(|_| ChunkState::default()).collect(),
            chunks,
            owner,
            by_owner,
        })
    }

    /// Claims chunk `c` for phase `epoch`; true for exactly one caller
    /// per phase.
    pub(crate) fn try_claim(&self, c: usize, epoch: u64) -> bool {
        self.state[c].claim.fetch_max(epoch, Ordering::AcqRel) < epoch
    }

    fn try_steal(&self, c: usize, epoch: u64) -> bool {
        self.state[c].claim.load(Ordering::Acquire) < epoch && self.try_claim(c, epoch)
    }

    /// One steal by worker `p` in phase `epoch`, in [`steal_order`].
    /// `None` proves the phase drained: every chunk of the group carries
    /// `epoch`.
    pub(crate) fn steal(
        &self,
        p: usize,
        epoch: u64,
        selector: &mut VictimSelector,
    ) -> Option<usize> {
        steal_order(p, &self.by_owner, selector, |c| self.try_steal(c, epoch))
    }

    /// Adds the work one execution of chunk `c` performed to the chunk's
    /// accumulator.
    pub(crate) fn credit(&self, c: usize, work: &ExecCounters) {
        self.state[c]
            .work
            .lock()
            .expect("chunk slot poisoned by a panicking worker")
            .merge(work);
    }

    /// Merges every chunk's accumulated work counters into its owner's
    /// total. Call once, after all workers finished.
    pub(crate) fn merge_into(&self, totals: &mut [ExecCounters]) {
        for (state, &o) in self.state.iter().zip(&self.owner) {
            let work = state.work.lock();
            totals[o].merge(&work.expect("chunk slot poisoned by a panicking worker"));
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic scheduler simulation
// ---------------------------------------------------------------------

/// Virtual time for the deterministic scheduler simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimClock(pub u64);

impl SimClock {
    /// Advances the clock by `nanos` and returns the new time.
    pub fn advance(&mut self, nanos: u64) -> u64 {
        self.0 += nanos;
        self.0
    }
}

/// A scripted stealing scenario: `costs[c]` is the virtual duration of
/// chunk `c`, `owners[c]` the worker whose list it starts in.
#[derive(Clone, Debug)]
pub struct StealSimSpec {
    /// Number of workers.
    pub workers: usize,
    /// Victim-selection seed (the same stream the runtime uses).
    pub seed: u64,
    /// Virtual duration of each chunk.
    pub costs: Vec<u64>,
    /// Initial owner of each chunk.
    pub owners: Vec<usize>,
}

/// One steal recorded by the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealEvent {
    /// Virtual time of the claim.
    pub at: u64,
    /// The worker that ran out of owned work.
    pub thief: usize,
    /// The owner whose list lost the chunk.
    pub victim: usize,
    /// The stolen chunk.
    pub chunk: usize,
}

/// The outcome of one simulated phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealSimReport {
    /// Every steal, in claim order.
    pub steal_log: Vec<StealEvent>,
    /// Per worker: total virtual busy time.
    pub busy: Vec<u64>,
    /// Per worker: the chunks it executed, in order.
    pub executed: Vec<Vec<usize>>,
    /// Virtual completion time of the whole phase.
    pub makespan: u64,
}

impl StealSimReport {
    /// Busiest worker's virtual busy time over the mean — the quantity
    /// the skewed-load bench tracks toward 1.0.
    pub fn time_imbalance(&self) -> f64 {
        let sum: u64 = self.busy.iter().sum();
        if sum == 0 || self.busy.is_empty() {
            return 0.0;
        }
        let mean = sum as f64 / self.busy.len() as f64;
        *self.busy.iter().max().unwrap() as f64 / mean
    }
}

/// Runs one phase of the stealing scheduler under a [`SimClock`]:
/// workers claim chunks as the runtime does — own list front to back,
/// then the runtime's own steal order — but time is scripted per chunk,
/// so a fixed seed reproduces an identical steal log on every run.
pub fn simulate_stealing(spec: &StealSimSpec) -> StealSimReport {
    assert!(spec.workers >= 1, "need at least one worker");
    assert_eq!(spec.costs.len(), spec.owners.len(), "one owner per chunk");
    let n = spec.costs.len();
    let by_owner: Vec<Vec<u32>> = {
        let mut lists = vec![Vec::new(); spec.workers];
        for (c, &o) in spec.owners.iter().enumerate() {
            assert!(o < spec.workers, "owner {o} out of range");
            lists[o].push(c as u32);
        }
        lists
    };
    let mut selectors: Vec<VictimSelector> = (0..spec.workers)
        .map(|w| VictimSelector::new(spec.seed, w, spec.workers))
        .collect();
    let mut claimed = vec![false; n];
    let mut clock: Vec<SimClock> = vec![SimClock(0); spec.workers];
    let mut done = vec![false; spec.workers];
    let mut report = StealSimReport {
        steal_log: Vec::new(),
        busy: vec![0; spec.workers],
        executed: vec![Vec::new(); spec.workers],
        makespan: 0,
    };
    let mut remaining = n;
    while remaining > 0 {
        // The earliest-free worker claims next; ties break by worker id,
        // making the whole schedule a deterministic function of the seed
        // and the scripted costs.
        let w = (0..spec.workers)
            .filter(|&w| !done[w])
            .min_by_key(|&w| (clock[w].0, w))
            .expect("chunks remain but every worker is done");
        // Own list, front to back, then the runtime's steal order.
        let mut claim = |c: usize| !std::mem::replace(&mut claimed[c], true);
        let own = by_owner[w].iter().map(|&c| c as usize).find(|&c| claim(c));
        let next = own.or_else(|| {
            let c = steal_order(w, &by_owner, &mut selectors[w], claim)?;
            report.steal_log.push(StealEvent {
                at: clock[w].0,
                thief: w,
                victim: spec.owners[c],
                chunk: c,
            });
            Some(c)
        });
        match next {
            Some(c) => {
                remaining -= 1;
                report.executed[w].push(c);
                report.busy[w] += spec.costs[c];
                let t = clock[w].advance(spec.costs[c]);
                report.makespan = report.makespan.max(t);
            }
            None => done[w] = true,
        }
    }
    report
}

/// The per-worker busy times of the *static* schedule on the same
/// scripted costs: every owner runs exactly its own chunks. The
/// reference the convergence tests compare stealing against.
pub fn static_busy(spec: &StealSimSpec) -> Vec<u64> {
    let mut busy = vec![0u64; spec.workers];
    for (c, &o) in spec.owners.iter().enumerate() {
        busy[o] += spec.costs[c];
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sizes_balance_and_respect_floor() {
        for trip in 1..200i64 {
            for min in 1..=5i64.min(trip) {
                for target in 1..=trip {
                    let sizes = uniform_sizes(trip, target, min);
                    assert_eq!(sizes.iter().sum::<i64>(), trip);
                    assert!(sizes.iter().all(|&s| s >= min));
                    let (mx, mn) = (sizes.iter().max().unwrap(), sizes.iter().min().unwrap());
                    assert!(mx - mn <= 1, "uniform within one: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn split_block_partitions_range_and_boundary_flags() {
        let block = ProcBlock {
            proc: 0,
            range: vec![(10, 29), (0, 7)],
            low_boundary: vec![true, true],
            high_boundary: vec![true, false],
        };
        let chunks = split_block(&block, &[8, 7, 5], 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].range[0], (10, 17));
        assert_eq!(chunks[1].range[0], (18, 24));
        assert_eq!(chunks[2].range[0], (25, 29));
        // Level 1 is untouched.
        assert!(chunks.iter().all(|c| c.range[1] == (0, 7)));
        // Boundary flags split with the range.
        assert!(chunks[0].low_boundary[0] && !chunks[0].high_boundary[0]);
        assert!(!chunks[1].low_boundary[0] && !chunks[1].high_boundary[0]);
        assert!(!chunks[2].low_boundary[0] && chunks[2].high_boundary[0]);
        assert!(chunks.iter().all(|c| c.low_boundary[1]));
        assert!(chunks.iter().all(|c| !c.high_boundary[1]));
        assert_eq!(chunks[1].proc, 4);
    }

    #[test]
    fn victim_selector_is_deterministic_per_seed() {
        let draws = |seed: u64, me: usize| -> Vec<usize> {
            let mut s = VictimSelector::new(seed, me, 8);
            (0..32).map(|_| s.next_victim()).collect()
        };
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_ne!(draws(7, 0), draws(8, 0), "seed changes the stream");
        assert_ne!(draws(7, 0), draws(7, 1), "worker id changes the stream");
        assert!(draws(7, 3).iter().all(|&v| v < 8));
    }

    #[test]
    fn steal_sim_balances_a_skewed_load() {
        // Worker 0 owns four heavy chunks; three idle peers steal.
        let spec = StealSimSpec {
            workers: 4,
            seed: 42,
            costs: vec![100, 100, 100, 100, 10, 10, 10],
            owners: vec![0, 0, 0, 0, 1, 2, 3],
        };
        let report = simulate_stealing(&spec);
        assert!(!report.steal_log.is_empty(), "peers stole from worker 0");
        let naive = static_busy(&spec);
        let naive_imb =
            *naive.iter().max().unwrap() as f64 / (naive.iter().sum::<u64>() as f64 / 4.0);
        assert!(
            report.time_imbalance() < naive_imb,
            "stealing {:.3} improves on static {naive_imb:.3}",
            report.time_imbalance()
        );
        // Every chunk ran exactly once.
        let mut all: Vec<usize> = report.executed.concat();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        // The steal order, pinned: the first thief's draws miss worker 0
        // and its sweep takes chunk 1; the next two take the back, 3 then 2.
        let stolen: Vec<usize> = report.steal_log.iter().map(|e| e.chunk).collect();
        assert_eq!(stolen, [1, 3, 2]);
    }
}

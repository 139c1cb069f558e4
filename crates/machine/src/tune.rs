//! Chunk sizing and the skewed-load harness for the stealing schedule.
//!
//! The cost model supplies the *static* part of a chunk choice — a chunk
//! smaller than the Theorem-1 `Nt` is illegal (the peeled iterations of a
//! fused group would not fit the block), and a chunk larger than the
//! per-partition cache capacity defeats the locality the fusion bought
//! ([`chunk_bounds`]). Which schedule wins between those bounds is a
//! run-time property: a uniform load wants static blocking (no claim
//! traffic at all), a skewed load wants stealing. [`skewed_sweep`] runs
//! both on the real worker pool and reports the imbalance and
//! barrier-wait counters the [`RunReport`] already carries.

use crate::config::MachineConfig;
use shift_peel_core::analysis::derive_levels;
use sp_cache::LayoutStrategy;
use sp_exec::schedule::DEFAULT_CHUNKS_PER_OWNER;
use sp_exec::{
    ExecError, Executor, Memory, PooledExecutor, Program, RunConfig, RunReport, Schedule,
};
use sp_ir::LoopSequence;

/// Legal chunk-size bounds for the stealing schedule on one sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkBounds {
    /// Theorem-1 lower bound: the fused group's `Nt` along the blocked
    /// level. Chunks below this are rejected by `check_blocks`.
    pub nt_floor: i64,
    /// Upper bound from the cost model: the largest chunk whose
    /// per-array footprint still fits one cache partition (the same
    /// bound that couples strip size to partition size).
    pub capacity: i64,
    /// Rows of one static block — no chunk can exceed its parent block.
    pub block_trip: i64,
}

impl ChunkBounds {
    /// The tuner's chunk pick: the capacity bound clamped into the legal
    /// range, additionally capped so every owner holds the runtime's
    /// default [`DEFAULT_CHUNKS_PER_OWNER`] stealable chunks — a single
    /// chunk per block could never shed load.
    pub fn pick(&self) -> i64 {
        let steal_cap = (self.block_trip / DEFAULT_CHUNKS_PER_OWNER).max(self.nt_floor);
        self.capacity.clamp(self.nt_floor, steal_cap)
    }
}

/// Computes the `Nt` floor and cache-capacity bound for chunking `seq`
/// across `procs` processors on `machine`.
pub fn chunk_bounds(seq: &LoopSequence, machine: &MachineConfig, procs: usize) -> ChunkBounds {
    let derivation = sp_dep::analyze_sequence(seq)
        .ok()
        .and_then(|deps| derive_levels(&deps, seq.len(), 1).ok());
    let nt_floor = derivation
        .as_ref()
        .and_then(|d| d.dims.first())
        .map(|dim| dim.nt())
        .unwrap_or(1)
        .max(1);
    let max_shift = derivation.map(|d| d.max_shift()).unwrap_or(0);
    let (lo, hi) = seq
        .nests
        .iter()
        .map(|n| (n.bounds[0].lo, n.bounds[0].hi))
        .fold((i64::MAX, i64::MIN), |(l, h), (nl, nh)| {
            (l.min(nl), h.max(nh))
        });
    let trip = (hi - lo + 1).max(1);
    let p = procs.max(1) as i64;
    let block_trip = ((trip + p - 1) / p).max(1);
    let capacity = machine
        .profitability(procs)
        .strip(seq, max_shift, block_trip)
        .size
        .max(nt_floor);
    ChunkBounds {
        nt_floor,
        capacity,
        block_trip,
    }
}

/// One schedule's run in a skewed-load comparison.
#[derive(Clone, Debug)]
pub struct SkewRow {
    /// Schedule this row ran under.
    pub schedule: Schedule,
    /// Chunk override used (`None` for static).
    pub chunk: Option<i64>,
    /// Full report; `time_imbalance()` is the quantity under test.
    pub report: RunReport,
}

/// Runs the fused plan under both schedules on the persistent pool with
/// identical deterministic inputs and the same steal seed, verifying
/// the results are bit-for-bit identical, and returns one row per
/// schedule. The caller compares `time_imbalance()` across rows — on a
/// skewed kernel the stealing row should sit well below the static row.
pub fn skewed_sweep(
    seq: &LoopSequence,
    grid: &[usize],
    strip: i64,
    steps: usize,
    chunk: i64,
    steal_seed: u64,
) -> Result<Vec<SkewRow>, ExecError> {
    let prog = Program::new(seq, grid.len())?;
    let procs: usize = grid.iter().product();
    let mut pool = PooledExecutor::new(procs);
    let mut rows = Vec::with_capacity(Schedule::all().len());
    let mut want: Option<Vec<Vec<f64>>> = None;
    for schedule in Schedule::all() {
        let chunk_opt = match schedule {
            Schedule::Static => None,
            _ => Some(chunk),
        };
        let mut cfg = RunConfig::fused(grid.to_vec())
            .strip(strip)
            .steps(steps)
            .schedule(schedule)
            .steal_seed(steal_seed);
        if let Some(c) = chunk_opt {
            cfg = cfg.chunk(c);
        }
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 42);
        let report = pool.run(&prog, &mut mem, &cfg)?;
        let got = mem.snapshot_all(seq);
        match &want {
            None => want = Some(got),
            Some(w) => {
                if got != *w {
                    return Err(ExecError::Config(format!(
                        "{} schedule diverged from static results",
                        schedule.name()
                    )));
                }
            }
        }
        rows.push(SkewRow {
            schedule,
            chunk: chunk_opt,
            report,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CONVEX_SPP1000;
    use sp_ir::SeqBuilder;

    fn jacobi(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("t");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, 1]) + x.ld(a, [0, -1]);
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 1]) + x.ld(bb, [0, -1]);
            x.assign(a, [0, 0], r);
        });
        b.finish()
    }

    /// The stealing default cuts `min(DEFAULT_CHUNKS_PER_OWNER, trip /
    /// Nt)` chunks, and a chunk the tuner picks still leaves every owner
    /// at least `DEFAULT_CHUNKS_PER_OWNER` whenever its block has room
    /// for that many `Nt`-deep chunks.
    #[test]
    fn default_and_tuned_chunks_give_each_owner_its_share() {
        use sp_exec::schedule::stealing_sizes;
        for trip in 1..200i64 {
            for nt in 1..=5i64.min(trip) {
                let k = stealing_sizes(trip, None, nt).len() as i64;
                assert_eq!(
                    k,
                    DEFAULT_CHUNKS_PER_OWNER.min(trip / nt),
                    "{trip} rows, Nt {nt}"
                );
                for capacity in nt..=trip {
                    let bounds = ChunkBounds {
                        nt_floor: nt,
                        capacity,
                        block_trip: trip,
                    };
                    let k = stealing_sizes(trip, Some(bounds.pick()), nt).len() as i64;
                    if trip >= DEFAULT_CHUNKS_PER_OWNER * nt {
                        assert!(k >= DEFAULT_CHUNKS_PER_OWNER, "{bounds:?} cuts {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_respect_nt_floor_and_block_trip() {
        let seq = jacobi(64);
        let b = chunk_bounds(&seq, &CONVEX_SPP1000, 4);
        assert!(b.nt_floor >= 1);
        assert!(b.capacity >= b.nt_floor);
        assert!(b.block_trip >= 1);
        let pick = b.pick();
        assert!(pick >= b.nt_floor);
        assert!(pick <= b.block_trip.max(b.nt_floor));
    }

    #[test]
    fn skewed_sweep_verifies_results_and_reports_all_schedules() {
        let seq = jacobi(48);
        let rows = skewed_sweep(&seq, &[2], 8, 3, 4, 7).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].report.schedule, "static");
        assert_eq!(rows[1].report.schedule, "stealing");
        for r in &rows {
            assert!(r.report.time_imbalance() >= 0.0);
        }
    }
}

//! Machine models.
//!
//! The paper evaluates on two scalable shared-memory multiprocessors with
//! hardware performance monitoring:
//!
//! * **KSR2** — 56 usable processors at 40 MHz, each with a 256 KB
//!   two-way set-associative subcache (128-byte subblocks).
//! * **Convex SPP-1000** — 16 HP PA-RISC 7100 processors at 100 MHz, each
//!   with a 1 MB direct-mapped data cache (32-byte lines); a higher
//!   relative miss penalty than the KSR2, which the paper credits for the
//!   larger fusion benefit observed on it.
//!
//! Absolute cycle counts are not reproduced (our substrate is a
//! simulator); the cost model's purpose is to preserve the *relationships*
//! the paper's results hinge on: miss counts dominate when working sets
//! exceed cache, transformation overhead (strips, guards, peeled
//! iterations, barriers) dominates when they do not.

use shift_peel_core::ProfitabilityModel;
use sp_cache::CacheConfig;

/// One level of a processor's cache hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheLevel {
    /// The level's geometry.
    pub geometry: CacheConfig,
    /// Cycles added per miss at this level.
    pub miss_penalty: u64,
}

/// A simulated machine: cache hierarchy plus a cycle cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Display name.
    pub name: &'static str,
    /// Largest processor count the experiments sweep to.
    pub max_procs: usize,
    /// Clock in MHz (converts cycles to seconds).
    pub clock_mhz: u64,
    /// Per-processor cache levels, first level first (an inclusive
    /// hierarchy: each level sees the misses of the one before it).
    pub levels: &'static [CacheLevel],
    /// Cycles per arithmetic operation.
    pub flop_cycles: u64,
    /// Cycles per memory reference that hits.
    pub mem_ref_cycles: u64,
    /// Loop-control cycles per body iteration.
    pub iter_overhead: u64,
    /// Cycles to set up one strip (inner-loop bound recomputation per
    /// strip-mined tile).
    pub strip_overhead: u64,
    /// Cycles per guard predicate (direct fusion method).
    pub guard_overhead: u64,
    /// Extra cycles per peeled iteration (separate loops, poor spatial
    /// locality, boundary-flag control of Figure 16).
    pub peeled_iter_overhead: u64,
    /// Fixed cycles per barrier.
    pub barrier_base: u64,
    /// Additional barrier cycles per participating processor.
    pub barrier_per_proc: u64,
}

/// The Kendall Square Research KSR2 model.
pub const KSR2: MachineConfig = MachineConfig {
    name: "KSR2",
    max_procs: 56,
    clock_mhz: 40,
    levels: &[CacheLevel {
        geometry: CacheConfig {
            capacity: 256 << 10,
            line: 128,
            assoc: 2,
        },
        miss_penalty: 25,
    }],
    flop_cycles: 1,
    mem_ref_cycles: 1,
    iter_overhead: 2,
    strip_overhead: 12,
    guard_overhead: 2,
    peeled_iter_overhead: 2,
    barrier_base: 200,
    barrier_per_proc: 20,
};

/// The Convex Exemplar SPP-1000 model.
pub const CONVEX_SPP1000: MachineConfig = MachineConfig {
    name: "Convex SPP-1000",
    max_procs: 16,
    clock_mhz: 100,
    levels: &[CacheLevel {
        geometry: CacheConfig {
            capacity: 1 << 20,
            line: 32,
            assoc: 1,
        },
        miss_penalty: 60,
    }],
    flop_cycles: 1,
    mem_ref_cycles: 1,
    iter_overhead: 2,
    strip_overhead: 12,
    guard_overhead: 2,
    peeled_iter_overhead: 2,
    barrier_base: 200,
    barrier_per_proc: 20,
};

impl MachineConfig {
    /// Converts a cycle count to seconds at this machine's clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1e6)
    }

    /// The level that cache partitioning, strip sizing and the
    /// profitability model target: the last one, whose misses go to
    /// memory. Every such decision reads its geometry here.
    pub fn target(&self) -> CacheConfig {
        self.levels
            .last()
            .expect("a machine has at least one cache level")
            .geometry
    }

    /// The planner's view of this machine at `processors` CPUs: the
    /// target level's capacity.
    pub fn profitability(&self, processors: usize) -> ProfitabilityModel {
        ProfitabilityModel::new(self.target().capacity, processors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // pins the preset relationship
    fn presets_are_consistent() {
        assert_eq!(KSR2.target().sets(), (256 << 10) / (128 * 2));
        assert_eq!(CONVEX_SPP1000.target().sets(), (1 << 20) / 32);
        assert!(CONVEX_SPP1000.levels[0].miss_penalty > KSR2.levels[0].miss_penalty);
        assert_eq!(KSR2.max_procs, 56);
        assert_eq!(CONVEX_SPP1000.max_procs, 16);
    }

    #[test]
    fn seconds_conversion() {
        assert!((KSR2.seconds(40_000_000) - 1.0).abs() < 1e-12);
        assert!((CONVEX_SPP1000.seconds(100_000_000) - 1.0).abs() < 1e-12);
    }
}

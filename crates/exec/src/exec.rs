//! Analyzed programs and execution plans.
//!
//! [`Program`] bundles a sequence with its dependence analysis; an
//! [`ExecPlan`] names *what* to execute (the original serial program, the
//! original blocked-parallel program, or the shift-and-peel fused
//! program). *How* it executes — on a worker pool, or in deterministic
//! simulation — is chosen by an
//! [`Executor`](crate::executor::Executor) implementation driven by a
//! [`RunConfig`].

use crate::executor::{simulate, RunConfig};
use crate::interp::ExecCounters;
use crate::memory::Memory;
use crate::report::RunReport;
use crate::sink::{AccessSink, NullSink};
use shift_peel_core::pipeline::plan_stage;
use shift_peel_core::{CodegenMethod, FusionPlan, LegalityError, NullObserver, PlanConfig};
use sp_dep::{analyze_sequence, AnalysisError, SequenceDeps};
use sp_ir::LoopSequence;
use std::sync::Arc;

/// What to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecPlan {
    /// The original program, one nest after another, single processor.
    Serial,
    /// The original program blocked over a processor grid (one entry per
    /// fused level), with a barrier after every nest.
    Blocked {
        /// Processors per fused level.
        grid: Vec<usize>,
    },
    /// Shift-and-peel fused execution over a processor grid.
    Fused {
        /// Processors per fused level.
        grid: Vec<usize>,
        /// Strip-mined or direct realization.
        method: CodegenMethod,
        /// Strip size (outer iterations per tile) for the strip-mined
        /// method; ignored by the direct method.
        strip: i64,
    },
}

impl ExecPlan {
    /// Total processor count of the plan.
    pub fn procs(&self) -> usize {
        match self {
            ExecPlan::Serial => 1,
            ExecPlan::Blocked { grid } | ExecPlan::Fused { grid, .. } => grid.iter().product(),
        }
    }

    /// The processor grid (empty for `Serial`).
    pub fn grid(&self) -> &[usize] {
        match self {
            ExecPlan::Serial => &[],
            ExecPlan::Blocked { grid } | ExecPlan::Fused { grid, .. } => grid,
        }
    }
}

/// Errors from planning or executing.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Dependence analysis failed.
    Analysis(AnalysisError),
    /// The transformation is illegal for this sequence / processor count.
    Legality(LegalityError),
    /// A run configuration is malformed (zero steps, bad strip, ...).
    Config(String),
    /// `run_with_sinks` got the wrong number of sinks for the plan.
    SinkCount {
        /// Sinks the plan's processor count requires.
        expected: usize,
        /// Sinks the caller supplied.
        got: usize,
    },
    /// The plan needs more processors than the pool has workers.
    PoolTooSmall {
        /// Workers in the pool.
        pool: usize,
        /// Processors the plan requires.
        required: usize,
    },
    /// A worker thread panicked while executing the run.
    WorkerPanic {
        /// Processor id of the panicking worker.
        proc: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Analysis(e) => write!(f, "{e}"),
            ExecError::Legality(e) => write!(f, "{e}"),
            ExecError::Config(m) => write!(f, "invalid run configuration: {m}"),
            ExecError::SinkCount { expected, got } => {
                write!(
                    f,
                    "plan needs {expected} sinks (one per processor), got {got}"
                )
            }
            ExecError::PoolTooSmall { pool, required } => {
                write!(f, "pool has {pool} workers but the plan needs {required}")
            }
            ExecError::WorkerPanic { proc } => write!(f, "worker {proc} panicked"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AnalysisError> for ExecError {
    fn from(e: AnalysisError) -> Self {
        ExecError::Analysis(e)
    }
}

impl From<LegalityError> for ExecError {
    fn from(e: LegalityError) -> Self {
        ExecError::Legality(e)
    }
}

/// A sequence bound to its dependence analysis, ready to execute under
/// different plans and executors.
pub struct Program<'a> {
    seq: &'a LoopSequence,
    deps: Arc<SequenceDeps>,
    levels: usize,
}

impl<'a> Program<'a> {
    /// Analyses `seq` for fusion of its first `levels` loop dimensions.
    pub fn new(seq: &'a LoopSequence, levels: usize) -> Result<Self, ExecError> {
        Program::from_analysis(seq, Arc::new(analyze_sequence(seq)?), levels)
    }

    /// Binds `seq` to an analysis computed elsewhere (e.g. served from
    /// an artifact cache), skipping re-analysis. The caller is
    /// responsible for `deps` actually describing `seq` — a
    /// content-addressed cache guarantees this by keying on the
    /// sequence's canonical text.
    pub fn from_analysis(
        seq: &'a LoopSequence,
        deps: Arc<SequenceDeps>,
        levels: usize,
    ) -> Result<Self, ExecError> {
        if levels < 1 || levels > deps.depth {
            return Err(ExecError::Legality(LegalityError::BadLevels {
                levels,
                depth: deps.depth,
            }));
        }
        Ok(Program { seq, deps, levels })
    }

    /// The underlying sequence.
    pub fn seq(&self) -> &'a LoopSequence {
        self.seq
    }

    /// The dependence analysis.
    pub fn deps(&self) -> &SequenceDeps {
        &self.deps
    }

    /// Number of fused levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The fusion plan an [`ExecPlan`] implies: singleton groups for
    /// `Serial`/`Blocked`, greedy maximal fusion for `Fused`. Derived
    /// from this program's analysis by the planner's plan stage alone: a
    /// run needs no `Nt` or cost table.
    pub fn fusion_plan_for(&self, plan: &ExecPlan) -> Result<Arc<FusionPlan>, ExecError> {
        let config = match plan {
            ExecPlan::Serial | ExecPlan::Blocked { .. } => PlanConfig::unfused(self.levels),
            ExecPlan::Fused { method, .. } => PlanConfig::fused(self.levels).method(*method),
        };
        let fp = plan_stage(self.seq, &self.deps, &config, None, &mut NullObserver)?;
        Ok(Arc::new(fp))
    }

    /// Executes deterministically (simulated processors), discarding the
    /// access stream. Returns per-processor counters.
    pub fn run(&self, mem: &mut Memory, plan: &ExecPlan) -> Result<Vec<ExecCounters>, ExecError> {
        let mut sinks = vec![NullSink; plan.procs()];
        let report = self.run_with_sinks(mem, &RunConfig::from_plan(plan.clone()), &mut sinks)?;
        Ok(report.workers.into_iter().map(|w| w.counters).collect())
    }

    /// Executes `cfg` deterministically — the processors of each phase
    /// one after another, on any backend and schedule — reporting each
    /// simulated processor's accesses to its own [`AccessSink`]: the one
    /// way to cache-simulate a run. Sinks keep their state across
    /// timesteps, as caches do on hardware.
    pub fn run_with_sinks<S: AccessSink>(
        &self,
        mem: &mut Memory,
        cfg: &RunConfig,
        sinks: &mut [S],
    ) -> Result<RunReport, ExecError> {
        simulate("sim", self, mem, cfg, sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, PooledExecutor, RunConfig, ScopedExecutor};
    use sp_cache::LayoutStrategy;
    use sp_ir::SeqBuilder;

    fn fig9(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("fig9");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(c, [1]) + x.ld(c, [-1]);
            x.assign(d, [0], r);
        });
        b.finish()
    }

    fn reference(seq: &LoopSequence) -> Vec<Vec<f64>> {
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 42);
        let prog = Program::new(seq, 1).unwrap();
        prog.run(&mut mem, &ExecPlan::Serial).unwrap();
        mem.snapshot_all(seq)
    }

    fn run_plan(seq: &LoopSequence, plan: &ExecPlan) -> Vec<Vec<f64>> {
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 42);
        let prog = Program::new(seq, 1).unwrap();
        prog.run(&mut mem, plan).unwrap();
        mem.snapshot_all(seq)
    }

    #[test]
    fn blocked_matches_serial() {
        let seq = fig9(128);
        let want = reference(&seq);
        for p in [1usize, 2, 5, 8] {
            assert_eq!(
                run_plan(&seq, &ExecPlan::Blocked { grid: vec![p] }),
                want,
                "P={p}"
            );
        }
    }

    #[test]
    fn fused_strip_mined_matches_serial() {
        let seq = fig9(128);
        let want = reference(&seq);
        for p in [1usize, 2, 5, 8] {
            for strip in [1i64, 3, 16, 1000] {
                let plan = ExecPlan::Fused {
                    grid: vec![p],
                    method: CodegenMethod::StripMined,
                    strip,
                };
                assert_eq!(run_plan(&seq, &plan), want, "P={p} strip={strip}");
            }
        }
    }

    #[test]
    fn fused_direct_matches_serial() {
        let seq = fig9(128);
        let want = reference(&seq);
        for p in [1usize, 3, 8] {
            let plan = ExecPlan::Fused {
                grid: vec![p],
                method: CodegenMethod::Direct,
                strip: 1,
            };
            assert_eq!(run_plan(&seq, &plan), want, "P={p}");
        }
    }

    #[test]
    fn threaded_fused_matches_serial() {
        let seq = fig9(256);
        let want = reference(&seq);
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 42);
        let prog = Program::new(&seq, 1).unwrap();
        let cfg = RunConfig::fused([4]).strip(8);
        ScopedExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
    }

    #[test]
    fn threaded_blocked_matches_serial() {
        let seq = fig9(256);
        let want = reference(&seq);
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 42);
        let prog = Program::new(&seq, 1).unwrap();
        ScopedExecutor
            .run(&prog, &mut mem, &RunConfig::blocked([4]))
            .unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
    }

    #[test]
    fn pooled_fused_matches_serial() {
        let seq = fig9(256);
        let want = reference(&seq);
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 42);
        let prog = Program::new(&seq, 1).unwrap();
        let mut pooled = PooledExecutor::new(4);
        let report = pooled
            .run(&prog, &mut mem, &RunConfig::fused([4]).strip(8))
            .unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
        assert_eq!(report.workers.len(), 4);
        assert_eq!(report.total_iters(), 3 * 254);
    }

    #[test]
    fn counters_account_for_peeling() {
        let seq = fig9(128);
        let prog = Program::new(&seq, 1).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 1);
        let plan = ExecPlan::Fused {
            grid: vec![4],
            method: CodegenMethod::StripMined,
            strip: 8,
        };
        let counters = prog.run(&mut mem, &plan).unwrap();
        let total: u64 = counters.iter().map(|c| c.total_iters()).sum();
        // All iterations of all three nests execute exactly once.
        assert_eq!(total, 3 * 126);
        // Peeling happened (shift 1+2, peel 1+2 across 4 blocks).
        let peeled: u64 = counters.iter().map(|c| c.peeled_iters).sum();
        assert!(peeled > 0);
        // Barriers: fused + peeled.
        assert_eq!(counters[0].barriers, 2);
    }

    #[test]
    fn jacobi_2d_fused_matches_serial_on_grid() {
        let n = 32usize;
        let mut b = SeqBuilder::new("jacobi");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        let seq = b.finish();
        let mut ref_mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        ref_mem.init_deterministic(&seq, 9);
        let prog2 = Program::new(&seq, 2).unwrap();
        prog2.run(&mut ref_mem, &ExecPlan::Serial).unwrap();
        let want = ref_mem.snapshot_all(&seq);
        for grid in [vec![2usize, 2], vec![1, 4], vec![3, 3]] {
            for method in [CodegenMethod::StripMined, CodegenMethod::Direct] {
                let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                mem.init_deterministic(&seq, 9);
                let plan = ExecPlan::Fused {
                    grid: grid.clone(),
                    method,
                    strip: 4,
                };
                prog2.run(&mut mem, &plan).unwrap();
                assert_eq!(mem.snapshot_all(&seq), want, "grid {grid:?} {method:?}");
            }
        }
    }

    #[test]
    fn bad_levels_is_a_typed_error() {
        let seq = fig9(32);
        assert!(matches!(
            Program::new(&seq, 0),
            Err(ExecError::Legality(LegalityError::BadLevels {
                levels: 0,
                depth: 1
            }))
        ));
        assert!(matches!(
            Program::new(&seq, 3),
            Err(ExecError::Legality(LegalityError::BadLevels {
                levels: 3,
                depth: 1
            }))
        ));
    }

    #[test]
    fn sink_count_mismatch_is_a_typed_error() {
        let seq = fig9(32);
        let prog = Program::new(&seq, 1).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 1);
        let mut sinks = vec![NullSink; 3];
        let err = prog
            .run_with_sinks(&mut mem, &RunConfig::blocked([4]), &mut sinks)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::SinkCount {
                expected: 4,
                got: 3
            }
        );
    }
}

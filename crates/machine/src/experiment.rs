//! Experiment harnesses shared by the figure-regeneration binaries.
//!
//! Each paper figure is a sweep over processor counts, padding amounts,
//! or array sizes, comparing fused against unfused execution. These
//! helpers run the sweeps and return tabular rows the `sp-bench` binaries
//! print.

use crate::config::MachineConfig;
use crate::sim::{simulate, SimPlan, SimResult};
use shift_peel_core::analysis::derive_levels;
use shift_peel_core::CodegenMethod;
use sp_cache::{CacheConfig, CacheHierarchy, LayoutStrategy};
use sp_exec::{
    Backend, CacheSink, ExecError, ExecPlan, Executor, Memory, PooledExecutor, Program, RunConfig,
    RunReport, Schedule,
};
use sp_ir::LoopSequence;

/// One row of a speedup/miss sweep (Figures 21–25).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Processor count.
    pub procs: usize,
    /// Unfused run.
    pub unfused: SimResult,
    /// Fused (shift-and-peel) run.
    pub fused: SimResult,
    /// Speedup of the unfused run over the serial baseline.
    pub speedup_unfused: f64,
    /// Speedup of the fused run over the serial baseline.
    pub speedup_fused: f64,
}

/// Options for a speedup sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Data layout used by both versions (the paper uses cache
    /// partitioning throughout its speedup figures).
    pub layout: LayoutStrategy,
    /// Strip size for the fused version; 0 selects the partition-coupled
    /// size automatically per sequence (Section 4: the partition size
    /// determines the maximum strip size).
    pub strip: i64,
    /// Code generation method.
    pub method: CodegenMethod,
    /// NUMA bias (see [`SimPlan::remote_bias`]).
    pub remote_bias: f64,
    /// When set, the "fused" variant consults the machine's
    /// per-processor-count profitability model (the paper's Section 6
    /// recommendation) and leaves sequences unfused when the
    /// per-processor data already fits the target cache level. Applies to
    /// application sweeps.
    pub profitability: bool,
}

impl SweepOptions {
    /// Cache-partitioned layout for `machine`, default strip 16.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        SweepOptions {
            layout: LayoutStrategy::CachePartition(machine.target()),
            strip: 0,
            method: CodegenMethod::StripMined,
            remote_bias: 0.0,
            profitability: false,
        }
    }

    /// What to simulate for `exec` under these options.
    fn sim_plan(&self, exec: ExecPlan) -> SimPlan {
        SimPlan {
            remote_bias: self.remote_bias,
            ..SimPlan::new(exec, self.layout)
        }
    }
}

/// The partition-coupled strip size for one sequence on one machine
/// (Section 4, final paragraph), given the fused group's maximum shift.
fn auto_strip(seq: &LoopSequence, machine: &MachineConfig) -> i64 {
    let max_shift = sp_dep::analyze_sequence(seq)
        .ok()
        .and_then(|deps| derive_levels(&deps, seq.len(), 1).ok())
        .map(|d| d.max_shift())
        .unwrap_or(0);
    let trip = seq
        .nests
        .iter()
        .map(|n| n.bounds[0].count() as i64)
        .max()
        .unwrap_or(1);
    machine.profitability(1).strip(seq, max_shift, trip).size
}

fn strip_for(opts: &SweepOptions, seq: &LoopSequence, machine: &MachineConfig) -> i64 {
    if opts.strip == 0 {
        auto_strip(seq, machine)
    } else {
        opts.strip
    }
}

/// Runs fused and unfused versions of `seq` over `proc_counts`,
/// normalizing speedups to the unfused single-processor run — the
/// methodology of the paper's Figures 22, 23 and 25.
pub fn speedup_sweep(
    seq: &LoopSequence,
    machine: &MachineConfig,
    proc_counts: &[usize],
    opts: &SweepOptions,
) -> Result<Vec<SweepRow>, ExecError> {
    let base = simulate(
        seq,
        machine,
        &opts.sim_plan(ExecPlan::Blocked { grid: vec![1] }),
    )?;
    let mut rows = Vec::with_capacity(proc_counts.len());
    for &p in proc_counts {
        let unfused = simulate(
            seq,
            machine,
            &opts.sim_plan(ExecPlan::Blocked { grid: vec![p] }),
        )?;
        let fused = simulate(
            seq,
            machine,
            &opts.sim_plan(ExecPlan::Fused {
                grid: vec![p],
                method: opts.method,
                strip: strip_for(opts, seq, machine),
            }),
        )?;
        rows.push(SweepRow {
            procs: p,
            speedup_unfused: base.seconds / unfused.seconds,
            speedup_fused: base.seconds / fused.seconds,
            unfused,
            fused,
        });
    }
    Ok(rows)
}

/// Sums simulation results across the sequences of an application
/// (sequences execute one after another, so cycles/misses add).
pub fn sum_results(results: &[SimResult]) -> SimResult {
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let seconds: f64 = results.iter().map(|r| r.seconds).sum();
    SimResult {
        per_proc: Vec::new(),
        procs: results.first().map(|r| r.procs).unwrap_or(0),
        cycles,
        seconds,
        misses: results.iter().map(|r| r.misses).sum(),
        accesses: results.iter().map(|r| r.accesses).sum(),
    }
}

/// [`speedup_sweep`] over a multi-sequence application: each sequence is
/// simulated independently (they run back to back) and results are
/// summed. Speedups are relative to the summed unfused single-processor
/// run, matching the paper's Figures 21 and 25.
pub fn app_speedup_sweep(
    seqs: &[LoopSequence],
    machine: &MachineConfig,
    proc_counts: &[usize],
    opts: &SweepOptions,
) -> Result<Vec<SweepRow>, ExecError> {
    let sim_all = |p: usize, fused: bool| -> Result<SimResult, ExecError> {
        let mut parts = Vec::with_capacity(seqs.len());
        for s in seqs {
            let do_fuse = fused
                && (!opts.profitability || machine.profitability(p).should_fuse(s, 0, s.len()));
            let exec = if do_fuse {
                ExecPlan::Fused {
                    grid: vec![p],
                    method: opts.method,
                    strip: strip_for(opts, s, machine),
                }
            } else {
                ExecPlan::Blocked { grid: vec![p] }
            };
            parts.push(simulate(s, machine, &opts.sim_plan(exec))?);
        }
        Ok(sum_results(&parts))
    };
    let base = sim_all(1, false)?;
    let mut rows = Vec::with_capacity(proc_counts.len());
    for &p in proc_counts {
        let unfused = sim_all(p, false)?;
        let fused = sim_all(p, true)?;
        rows.push(SweepRow {
            procs: p,
            speedup_unfused: base.seconds / unfused.seconds,
            speedup_fused: base.seconds / fused.seconds,
            unfused,
            fused,
        });
    }
    Ok(rows)
}

/// One bar of a padding-sweep figure (Figures 18 and 20): misses under an
/// inner-dimension padding amount, for fused and unfused versions, plus
/// the cache-partitioned reference lines.
#[derive(Clone, Debug, PartialEq)]
pub struct PaddingRow {
    /// Elements of padding added to each array's inner dimension.
    pub pad: usize,
    /// Misses of the unfused version under this padding.
    pub misses_unfused: u64,
    /// Misses of the fused version under this padding.
    pub misses_fused: u64,
}

/// Result of a padding sweep with cache-partitioning reference values.
#[derive(Clone, Debug, PartialEq)]
pub struct PaddingSweep {
    /// One row per padding amount.
    pub rows: Vec<PaddingRow>,
    /// Misses of the unfused version under cache partitioning.
    pub partitioned_unfused: u64,
    /// Misses of the fused version under cache partitioning.
    pub partitioned_fused: u64,
}

/// Runs the padding sweep of Figures 18/20 on one processor.
pub fn padding_sweep(
    seq: &LoopSequence,
    machine: &MachineConfig,
    pads: &[usize],
    strip: i64,
) -> Result<PaddingSweep, ExecError> {
    let run = |layout: LayoutStrategy, fused: bool| -> Result<u64, ExecError> {
        let exec = if fused {
            ExecPlan::Fused {
                grid: vec![1],
                method: CodegenMethod::StripMined,
                strip,
            }
        } else {
            ExecPlan::Blocked { grid: vec![1] }
        };
        Ok(simulate(seq, machine, &SimPlan::new(exec, layout))?.misses)
    };
    let mut rows = Vec::with_capacity(pads.len());
    for &pad in pads {
        rows.push(PaddingRow {
            pad,
            misses_unfused: run(LayoutStrategy::InnerPad(pad), false)?,
            misses_fused: run(LayoutStrategy::InnerPad(pad), true)?,
        });
    }
    Ok(PaddingSweep {
        rows,
        partitioned_unfused: run(LayoutStrategy::CachePartition(machine.target()), false)?,
        partitioned_fused: run(LayoutStrategy::CachePartition(machine.target()), true)?,
    })
}

/// One row of a real-thread runtime sweep: the same fused program run
/// for `steps` timesteps on one persistent pool under every backend, with
/// tracing and under the stealing schedule, each verified bit-for-bit
/// identical to the interpreted static run.
#[derive(Clone, Debug)]
pub struct RuntimeRow {
    /// Timesteps in this row's runs.
    pub steps: usize,
    /// Persistent worker-pool run ([`PooledExecutor`]), interpreted.
    pub pooled: RunReport,
    /// Pool run with the compiled tape backend ([`Backend::Compiled`]);
    /// same plan and pool as `pooled`, lowered bodies instead of the
    /// interpreter.
    pub compiled: RunReport,
    /// Pool run with the row-runner backend ([`Backend::Simd`]); same
    /// plan, pool, and tape as `compiled`, each op executed over a row
    /// of inner iterations at a time.
    pub simd: RunReport,
    /// The `compiled` run repeated with per-worker event tracing
    /// enabled: its throughput against `compiled`'s measures the cost of
    /// recording spans (the report carries the trace itself).
    pub traced: RunReport,
    /// Pool run of the same fused plan under the stealing schedule
    /// ([`Schedule::Stealing`]): workers claim and steal whole legal
    /// chunks of the static blocks. Verified bit-for-bit identical to
    /// the static runs; on these uniform kernels its cost over `pooled`
    /// is the price of claim traffic.
    pub stealing: RunReport,
}

/// Compares the backends, tracing and the stealing schedule on real host
/// threads: for each entry of `step_counts`, runs the fused plan on one
/// [`PooledExecutor`] that persists across the whole sweep, returning the
/// [`RunReport`]s. Errors if any run's result diverges from the
/// interpreted static run's.
pub fn runtime_sweep(
    seq: &LoopSequence,
    grid: &[usize],
    strip: i64,
    step_counts: &[usize],
) -> Result<Vec<RuntimeRow>, ExecError> {
    let prog = Program::new(seq, grid.len())?;
    let procs: usize = grid.iter().product();
    let mut pool = PooledExecutor::new(procs);
    let mut run = |cfg: &RunConfig| -> Result<(RunReport, Vec<Vec<f64>>), ExecError> {
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 42);
        let report = pool.run(&prog, &mut mem, cfg)?;
        Ok((report, mem.snapshot_all(seq)))
    };
    let mut rows = Vec::with_capacity(step_counts.len());
    for &steps in step_counts {
        let fused = RunConfig::fused(grid.to_vec()).strip(strip).steps(steps);
        let (pooled, want) = run(&fused)?;
        let mut verified = |what: &str, cfg: RunConfig| -> Result<RunReport, ExecError> {
            let (report, got) = run(&cfg)?;
            if got != want {
                return Err(ExecError::Config(format!(
                    "{what} diverged from the interpreted static run at {steps} steps"
                )));
            }
            Ok(report)
        };
        rows.push(RuntimeRow {
            steps,
            compiled: verified("compiled backend", fused.clone().backend(Backend::Compiled))?,
            simd: verified("simd backend", fused.clone().backend(Backend::Simd))?,
            traced: verified(
                "traced run",
                fused.clone().backend(Backend::Compiled).traced(),
            )?,
            stealing: verified("stealing schedule", fused.schedule(Schedule::Stealing))?,
            pooled,
        });
    }
    Ok(rows)
}

/// Per-processor cache miss counts of the fused plan under both backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissParity {
    /// Per-processor misses under the interpreter.
    pub interp: Vec<u64>,
    /// Per-processor misses under the compiled tape backend.
    pub compiled: Vec<u64>,
    /// Per-processor misses under the row-runner (SIMD) backend.
    pub simd: Vec<u64>,
}

impl MissParity {
    /// Whether all backends produced identical per-processor counts
    /// (the tape backends' correctness contract).
    pub fn equal(&self) -> bool {
        self.interp == self.compiled && self.interp == self.simd
    }
}

/// Feeds the fused plan's access stream through per-processor cache
/// simulators under both backends and returns the miss counts side by
/// side. Both backends walk the same schedule over the same tapes'
/// addresses, so the counts must agree exactly; the results memory is
/// also verified identical before returning.
pub fn backend_miss_parity(
    seq: &LoopSequence,
    grid: &[usize],
    strip: i64,
    steps: usize,
    cache: CacheConfig,
) -> Result<MissParity, ExecError> {
    let prog = Program::new(seq, grid.len())?;
    let run = |backend: Backend| -> Result<(Vec<u64>, Vec<Vec<f64>>), ExecError> {
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 42);
        let cfg = RunConfig::fused(grid.to_vec())
            .strip(strip)
            .steps(steps)
            .backend(backend);
        let mut sinks: Vec<CacheSink> = (0..cfg.plan().procs())
            .map(|_| CacheSink::new(CacheHierarchy::new(&[cache])))
            .collect();
        prog.run_with_sinks(&mut mem, &cfg, &mut sinks)?;
        let misses = sinks.iter().map(|s| s.stats()[0].misses).collect();
        Ok((misses, mem.snapshot_all(seq)))
    };
    let (interp, want) = run(Backend::Interp)?;
    let (compiled, got) = run(Backend::Compiled)?;
    if got != want {
        return Err(ExecError::Config(
            "compiled backend diverged from interpreter under cache simulation".into(),
        ));
    }
    let (simd, got) = run(Backend::Simd)?;
    if got != want {
        return Err(ExecError::Config(
            "simd backend diverged from interpreter under cache simulation".into(),
        ));
    }
    Ok(MissParity {
        interp,
        compiled,
        simd,
    })
}

/// The fusion improvement ratio of Figure 24: unfused time / fused time
/// at a fixed processor count (>1 means fusion wins).
pub fn improvement_ratio(
    seq: &LoopSequence,
    machine: &MachineConfig,
    procs: usize,
    opts: &SweepOptions,
) -> Result<f64, ExecError> {
    let rows = speedup_sweep(seq, machine, &[procs], opts)?;
    Ok(rows[0].unfused.seconds / rows[0].fused.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CONVEX_SPP1000;
    use sp_ir::SeqBuilder;

    fn seq3(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("k");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let c = b.array("c", [n, n]);
        let d = b.array("d", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, 1]) + x.ld(a, [0, -1]);
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 1]) + x.ld(bb, [0, -1]);
            x.assign(c, [0, 0], r);
        });
        b.nest("L3", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(c, [0, 0]) + x.ld(a, [0, 0]);
            x.assign(d, [0, 0], r);
        });
        b.finish()
    }

    #[test]
    fn sweep_produces_monotone_baseline() {
        let seq = seq3(96);
        let opts = SweepOptions::for_machine(&CONVEX_SPP1000);
        let rows = speedup_sweep(&seq, &CONVEX_SPP1000, &[1, 2, 4], &opts).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].speedup_unfused > 0.9);
        assert!(rows[2].speedup_unfused > rows[0].speedup_unfused);
    }

    #[test]
    fn padding_sweep_has_reference_lines() {
        let seq = seq3(64);
        let s = padding_sweep(&seq, &CONVEX_SPP1000, &[1, 2], 8).unwrap();
        assert_eq!(s.rows.len(), 2);
        assert!(s.partitioned_fused > 0);
        assert!(s
            .rows
            .iter()
            .all(|r| r.misses_fused > 0 && r.misses_unfused > 0));
    }

    #[test]
    fn improvement_ratio_positive() {
        let seq = seq3(64);
        let opts = SweepOptions::for_machine(&CONVEX_SPP1000);
        let r = improvement_ratio(&seq, &CONVEX_SPP1000, 2, &opts).unwrap();
        assert!(r > 0.0);
    }

    #[test]
    fn runtime_sweep_includes_verified_compiled_run() {
        let seq = seq3(64);
        let rows = runtime_sweep(&seq, &[2], 16, &[1, 3]).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.compiled.backend, "compiled");
            assert!(row.compiled.tape_ops > 0);
            assert_eq!(row.compiled.total_iters(), row.pooled.total_iters());
            assert_eq!(row.simd.backend, "simd");
            assert!(row.simd.tape_ops > 0);
            assert_eq!(row.simd.total_iters(), row.pooled.total_iters());
            assert!(
                row.simd.merged_counters().vec_iters > 0,
                "simd run executed its iterations in rows"
            );
        }
    }

    #[test]
    fn backend_miss_parity_is_exact() {
        let seq = seq3(64);
        let parity =
            backend_miss_parity(&seq, &[2], 8, 2, CacheConfig::new(16 * 1024, 64, 1)).unwrap();
        assert_eq!(parity.interp.len(), 2);
        assert!(parity.equal(), "{parity:?}");
        assert!(parity.interp.iter().any(|&m| m > 0));
    }
}

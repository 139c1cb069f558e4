//! Execution and machine simulation of aligned/replicated programs.
//!
//! The transformed program runs in two phases: the replica copy loops
//! (blocked across processors, one barrier), then the aligned fused loop
//! — synchronization-free because alignment made every dependence
//! loop-independent. Guards clip each nest to its own bounds, exactly as
//! in Figure 14(c) of the paper.

use crate::transform::AlignedProgram;
use shift_peel_core::analysis::decompose;
use sp_cache::LayoutStrategy;
use sp_exec::{exec_region, AccessSink, ExecCounters, MemView, Memory};
use sp_ir::IterSpace;
use sp_machine::{processor_caches, MachineConfig, SimResult};

/// Runs an aligned program as a deterministic simulation of `P`
/// processors (`sinks.len()` of them), returning per-processor counters.
pub fn run_aligned_sim<S: AccessSink>(
    prog: &AlignedProgram,
    mem: &mut Memory,
    sinks: &mut [S],
) -> Vec<ExecCounters> {
    let procs = sinks.len();
    assert!(procs >= 1);
    let seq = &prog.seq;
    let level = prog.level;
    let mut counters = vec![ExecCounters::default(); procs];
    let view = MemView::new(mem);

    // Phase 1: replica copy loops, blocked by their outermost level.
    for c in 0..prog.n_copies {
        let nest = &seq.nests[c];
        let (lo, hi) = (nest.bounds[0].lo, nest.bounds[0].hi);
        let eff = procs.min((hi - lo + 1) as usize);
        let blocks = decompose(&[(lo, hi)], &[eff]).expect("replica copy grid fits");
        for (p, b) in blocks.iter().enumerate() {
            let mut bounds = vec![b.range[0]];
            bounds.extend(nest.bounds[1..].iter().map(|lb| (lb.lo, lb.hi)));
            let region = IterSpace::new(bounds);
            // SAFETY: simulated execution is single-threaded.
            unsafe { exec_region(seq, &view, c, &region, &mut sinks[p], &mut counters[p]) };
        }
    }
    if prog.n_copies > 0 {
        for c in &mut counters {
            c.barriers += 1;
        }
    }

    // Phase 2: the aligned fused loop. Fused index space at `level` is
    // the union of (nest range + alignment offset); each fused index
    // executes each nest's iteration (i - a_k) under a bounds guard.
    let originals: Vec<usize> = (prog.n_copies..seq.nests.len()).collect();
    let fused_lo = originals
        .iter()
        .zip(&prog.align)
        .map(|(&k, &a)| seq.nests[k].bounds[level].lo + a)
        .min()
        .expect("originals");
    let fused_hi = originals
        .iter()
        .zip(&prog.align)
        .map(|(&k, &a)| seq.nests[k].bounds[level].hi + a)
        .max()
        .expect("originals");
    let eff = procs.min((fused_hi - fused_lo + 1) as usize);
    let blocks = decompose(&[(fused_lo, fused_hi)], &[eff]).expect("aligned grid fits");
    for (p, b) in blocks.iter().enumerate() {
        let (bs, be) = b.range[0];
        for i in bs..=be {
            for (&k, &a) in originals.iter().zip(&prog.align) {
                counters[p].guards += 1;
                let it = i - a;
                let nest = &seq.nests[k];
                if it < nest.bounds[level].lo || it > nest.bounds[level].hi {
                    continue;
                }
                let mut bounds = vec![(it, it)];
                bounds.extend(nest.bounds[1..].iter().map(|lb| (lb.lo, lb.hi)));
                let region = IterSpace::new(bounds);
                // SAFETY: simulated execution is single-threaded.
                unsafe { exec_region(seq, &view, k, &region, &mut sinks[p], &mut counters[p]) };
            }
        }
    }
    for c in &mut counters {
        c.barriers += 1;
    }
    counters
}

/// Machine simulation of an aligned program (the Figure 26 comparator):
/// one cache hierarchy per processor, priced with the same cost model as
/// shift-and-peel runs.
pub fn simulate_aligned(
    prog: &AlignedProgram,
    machine: &MachineConfig,
    procs: usize,
    layout: LayoutStrategy,
    seed: u64,
) -> SimResult {
    let mut mem = Memory::new(&prog.seq, layout);
    mem.init_deterministic(&prog.seq, seed);
    let mut caches = processor_caches(machine, procs);
    let counters = run_aligned_sim(prog, &mut mem, &mut caches);
    SimResult::tally(machine, &counters, &caches, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::align_with_replication;
    use sp_exec::{run_original, NullSink};
    use sp_ir::{ArrayId, LoopSequence, SeqBuilder};

    fn swap_seq(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("swap");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        b.nest("L1", [(1, n as i64 - 1)], |x| {
            let r = x.ld(bb, [-1]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(1, n as i64 - 1)], |x| {
            let r = x.ld(a, [-1]);
            x.assign(bb, [0], r);
        });
        b.finish()
    }

    /// The aligned/replicated program computes the same result as the
    /// original sequence, for any processor count.
    #[test]
    fn aligned_swap_matches_reference() {
        let seq = swap_seq(64);
        // Reference.
        let mut ref_mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        ref_mem.init_deterministic(&seq, 11);
        run_original(&seq, &mut ref_mem, &mut NullSink);
        let want_a = ref_mem.snapshot(&seq, ArrayId(0));
        let want_b = ref_mem.snapshot(&seq, ArrayId(1));
        // Aligned.
        let prog = align_with_replication(&seq, 0).unwrap();
        for procs in [1usize, 2, 5] {
            let mut mem = Memory::new(&prog.seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&prog.seq, 11);
            let mut sinks = vec![NullSink; procs];
            run_aligned_sim(&prog, &mut mem, &mut sinks);
            assert_eq!(mem.snapshot(&prog.seq, ArrayId(0)), want_a, "a, P={procs}");
            assert_eq!(mem.snapshot(&prog.seq, ArrayId(1)), want_b, "b, P={procs}");
        }
    }

    #[test]
    fn aligned_execution_covers_every_iteration_once() {
        let seq = swap_seq(64);
        let prog = align_with_replication(&seq, 0).unwrap();
        let mut mem = Memory::new(&prog.seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&prog.seq, 1);
        let mut sinks = vec![NullSink; 4];
        let counters = run_aligned_sim(&prog, &mut mem, &mut sinks);
        let total: u64 = counters.iter().map(|c| c.total_iters()).sum();
        // 2 original nests x 63 iterations + copy nest 64 iterations.
        assert_eq!(total, 2 * 63 + 64);
    }
}

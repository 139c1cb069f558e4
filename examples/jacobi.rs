//! Multidimensional shift-and-peel: the Jacobi relaxation of the paper's
//! Figures 15 and 16, fused in *both* loop dimensions and executed on a
//! 2-D processor grid with real threads.
//!
//! Run with: `cargo run --example jacobi`

use shift_peel::core::CodegenMethod;
use shift_peel::kernels::jacobi;
use shift_peel::prelude::*;

fn main() {
    let n = 514usize; // paper's tomcatv-like interior of 512
    let seq = jacobi::sequence(n);

    // Derivation covers both dimensions: shift 1 / peel 1 in each
    // (Section 3.6's discussion of Figure 15).
    let deriv = derive_shift_peel(&seq).expect("derivation");
    for dim in &deriv.dims {
        println!(
            "level {}: shifts {:?}, peels {:?}",
            dim.level, dim.shifts, dim.peels
        );
        assert_eq!(dim.shifts, vec![0, 1]);
        assert_eq!(dim.peels, vec![0, 1]);
    }

    // Reference: serial original.
    let prog = Program::new(&seq, 2).expect("analysis");
    let mut ref_mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    ref_mem.init_deterministic(&seq, 7);
    // A persistent pool sized for the largest grid serves every run —
    // workers are created once and reused.
    let mut pool = PooledExecutor::new(8);
    pool.run(&prog, &mut ref_mem, &RunConfig::serial())
        .expect("serial");
    let want = ref_mem.snapshot_all(&seq);

    // Fused on processor grids, like Figure 16's JNPROCS x INPROCS
    // decomposition; the boundary prologue cases are handled by the
    // schedule geometry.
    for grid in [vec![2usize, 2], vec![4, 2], vec![1, 8]] {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused(grid.clone())
            .method(CodegenMethod::StripMined)
            .strip(16);
        let report = pool.run(&prog, &mut mem, &cfg).expect("fused");
        assert_eq!(mem.snapshot_all(&seq), want, "grid {grid:?}");
        let c = report.merged_counters();
        println!(
            "grid {grid:?}: OK — {} fused + {} peeled iterations across {} pooled workers \
             (max barrier wait {} ns)",
            c.iters,
            c.peeled_iters,
            grid.iter().product::<usize>(),
            report.max_barrier_wait_nanos()
        );
    }
    println!("jacobi OK");
}

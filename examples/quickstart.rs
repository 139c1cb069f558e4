//! Quickstart: the paper's Figure 9 worked example, end to end.
//!
//! Builds the three-loop 1-D chain, derives shift-and-peel amounts
//! (Figures 9/10), checks legality, executes the fused program on
//! simulated processors, and verifies the result against the serial
//! original.
//!
//! Run with: `cargo run --example quickstart`

use shift_peel::core::CodegenMethod;
use shift_peel::prelude::*;

fn main() {
    // --- 1. Build the program (paper Figure 9) -------------------------
    let n = 1024usize;
    let mut b = SeqBuilder::new("fig9");
    let a = b.array("a", [n]);
    let bb = b.array("b", [n]);
    let c = b.array("c", [n]);
    let d = b.array("d", [n]);
    let (lo, hi) = (1i64, n as i64 - 2);
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
    let seq = b.finish();
    println!("{}", shift_peel::ir::display::render_sequence(&seq));

    // --- 2. Analyse and derive shift-and-peel --------------------------
    let deriv = derive_shift_peel(&seq).expect("derivation");
    println!("derived amounts:\n{deriv}");
    assert_eq!(deriv.dims[0].shifts, vec![0, 1, 2]);
    assert_eq!(deriv.dims[0].peels, vec![0, 1, 2]);
    println!(
        "iteration count threshold Nt = {} (Theorem 1: any block needs at least this many iterations)",
        deriv.dims[0].nt()
    );

    // --- 3. Execute: serial reference vs fused parallel ----------------
    let prog = Program::new(&seq, 1).expect("analysis");
    let mut ref_mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    ref_mem.init_deterministic(&seq, 42);
    let mut pool = PooledExecutor::new(8);
    pool.run(&prog, &mut ref_mem, &RunConfig::serial())
        .expect("serial run");
    let want = ref_mem.snapshot_all(&seq);

    for procs in [1usize, 4, 8] {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 42);
        let cfg = RunConfig::fused([procs])
            .method(CodegenMethod::StripMined)
            .strip(32);
        let report = pool.run(&prog, &mut mem, &cfg).expect("fused run");
        assert_eq!(
            mem.snapshot_all(&seq),
            want,
            "fused result differs at P={procs}"
        );
        let c = report.merged_counters();
        println!(
            "P={procs}: fused result matches the serial original exactly \
             ({} peeled iterations, imbalance {:.3})",
            c.peeled_iters,
            report.imbalance()
        );
    }
    println!("quickstart OK");
}

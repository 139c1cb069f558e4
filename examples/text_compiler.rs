//! A miniature source-to-source compiler session: parse a textual loop
//! program, plan fusion, print the derived amounts and the generated
//! (Figure 12-style) pseudocode, and verify the transformed execution
//! against the original.
//!
//! Run with: `cargo run --example text_compiler`

use shift_peel::core::analysis::render_plan;
use shift_peel::core::{fusion_plan, CodegenMethod};
use shift_peel::ir::parse_sequence;
use shift_peel::prelude::*;

const SOURCE: &str = r"
! sequence smoother
! array A0 src(256,256)
! array A1 t(256,256)
! array A2 u(256,256)
! array A3 dst(256,256)
L1:
  do i0 = 1, 254
    do i1 = 1, 254
      t[i0,i1] = ((src[i0,i1+1] + src[i0,i1-1]) * 0.5)
      u[i0,i1] = ((src[i0+1,i1] - src[i0-1,i1]) * 0.5)
    end do
  end do
L2:
  do i0 = 2, 253
    do i1 = 2, 253
      dst[i0,i1] = ((t[i0+1,i1] + t[i0-1,i1]) + u[i0,i1])
    end do
  end do
";

fn main() {
    // 1. Parse and validate.
    let seq = parse_sequence(SOURCE).expect("parse");
    seq.validate().expect("validate");
    println!(
        "parsed `{}`: {} nests, {} arrays",
        seq.name,
        seq.len(),
        seq.arrays.len()
    );

    // 2. Plan fusion.
    let deps = analyze_sequence(&seq).expect("analysis");
    let plan = fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).expect("plan");
    println!(
        "fusion plan: {} group(s), longest {}, max shift/peel {}/{}",
        plan.groups.len(),
        plan.longest_group(),
        plan.max_shift(),
        plan.max_peel()
    );

    // 3. Show the generated code.
    println!("\n{}", render_plan(&seq, &plan, 16));

    // 4. Verify: transformed parallel execution equals the original.
    let prog = Program::new(&seq, 1).expect("executor");
    let mut m1 = Memory::new(&seq, LayoutStrategy::Contiguous);
    m1.init_deterministic(&seq, 5);
    prog.run(&mut m1, &ExecPlan::Serial).expect("serial");

    let mut m2 = Memory::new(&seq, LayoutStrategy::Contiguous);
    m2.init_deterministic(&seq, 5);
    let cfg = RunConfig::fused([4])
        .method(CodegenMethod::StripMined)
        .strip(16);
    PooledExecutor::new(4)
        .run(&prog, &mut m2, &cfg)
        .expect("fused");

    assert_eq!(
        m1.snapshot_all(&seq),
        m2.snapshot_all(&seq),
        "transformed execution diverged"
    );
    println!("verified: fused execution matches the original bit-for-bit");
}

//! Edge-case behaviour of the execution engine: processor clamping,
//! tiny iteration spaces, serial-nest handling inside fused plans, and
//! error reporting.

use shift_peel::core::CodegenMethod;
use shift_peel::prelude::*;

fn tiny_chain(n: usize) -> LoopSequence {
    let mut b = SeqBuilder::new("tiny");
    let a = b.array("a", [n]);
    let c = b.array("c", [n]);
    let d = b.array("d", [n]);
    let (lo, hi) = (1, n as i64 - 2);
    b.nest("L1", [(lo, hi)], |x| {
        let r = x.ld(d, [0]);
        x.assign(a, [0], r);
    });
    b.nest("L2", [(lo, hi)], |x| {
        let r = x.ld(a, [1]) + x.ld(a, [-1]);
        x.assign(c, [0], r);
    });
    b.finish()
}

/// More processors than Nt-sized blocks: the executor clamps rather than
/// producing an illegal decomposition, and still computes the right
/// answer.
#[test]
fn processor_clamping_on_tiny_spaces() {
    let seq = tiny_chain(12); // 10 iterations, Nt = 2 -> at most 5 blocks
    let ex = Program::new(&seq, 1).unwrap();
    let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
    want.init_deterministic(&seq, 3);
    ex.run(&mut want, &ExecPlan::Serial).unwrap();
    for procs in [6usize, 10, 64] {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 3);
        let plan = ExecPlan::Fused {
            grid: vec![procs],
            method: CodegenMethod::StripMined,
            strip: 2,
        };
        let counters = ex.run(&mut mem, &plan).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want.snapshot_all(&seq), "P={procs}");
        // Idle processors did no iterations but kept barrier counts.
        assert!(counters.iter().filter(|c| c.total_iters() == 0).count() >= procs - 5);
        assert!(counters.iter().all(|c| c.barriers == counters[0].barriers));
    }
}

/// A sequence whose middle nest is serial still executes correctly under
/// a fused plan (the serial nest becomes its own barrier-separated
/// phase on processor 0).
#[test]
fn serial_nest_inside_fused_plan() {
    let n = 64usize;
    let mut b = SeqBuilder::new("serialmid");
    let a = b.array("a", [n]);
    let c = b.array("c", [n]);
    let acc = b.array("acc", [n]);
    let (lo, hi) = (1, n as i64 - 2);
    b.nest("L1", [(lo, hi)], |x| {
        let r = x.ld(c, [0]) * 2.0;
        x.assign(a, [0], r);
    });
    b.nest("L2", [(lo, hi)], |x| {
        let r = x.ld(acc, [-1]) + x.ld(a, [0]); // serial recurrence
        x.assign(acc, [0], r);
    });
    b.nest("L3", [(lo, hi)], |x| {
        let r = x.ld(acc, [0]) + x.ld(a, [0]);
        x.assign(c, [0], r);
    });
    let seq = b.finish();
    let ex = Program::new(&seq, 1).unwrap();
    let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
    want.init_deterministic(&seq, 8);
    ex.run(&mut want, &ExecPlan::Serial).unwrap();
    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(&seq, 8);
    let plan = ExecPlan::Fused {
        grid: vec![4],
        method: CodegenMethod::StripMined,
        strip: 4,
    };
    ScopedExecutor
        .run(&ex, &mut mem, &RunConfig::from_plan(plan.clone()))
        .unwrap();
    assert_eq!(mem.snapshot_all(&seq), want.snapshot_all(&seq));
    // The plan could not fuse across the serial nest.
    let fp = ex.fusion_plan_for(&plan).unwrap();
    assert_eq!(fp.fused_group_count(), 0);
}

/// Executor construction fails cleanly on malformed programs.
#[test]
fn analysis_errors_are_reported() {
    use shift_peel::exec::ExecError;
    // Mixed-depth nests.
    let mut b = SeqBuilder::new("mixed");
    let a = b.array("a", [16, 16]);
    let c = b.array("c", [16]);
    b.nest("L1", [(0, 15), (0, 15)], |x| {
        let r = x.ld(a, [0, 0]);
        x.assign(a, [0, 0], r);
    });
    b.nest("L2", [(0, 15)], |x| {
        let r = x.ld(c, [0]);
        x.assign(c, [0], r);
    });
    let seq = b.finish();
    match Program::new(&seq, 1) {
        Err(ExecError::Analysis(_)) => {}
        Err(other) => panic!("expected analysis error, got {other:?}"),
        Ok(_) => panic!("expected analysis error, got an executor"),
    }
}

/// Counter totals are conserved: fused + peeled iterations equal the
/// original trip counts regardless of grid, strip, or method.
#[test]
fn counters_conserve_iterations() {
    let seq = tiny_chain(200);
    let ex = Program::new(&seq, 1).unwrap();
    let expect: u64 = seq.nests.iter().map(|n| n.trip_count() as u64).sum();
    for (procs, strip, method) in [
        (1usize, 1i64, CodegenMethod::StripMined),
        (3, 7, CodegenMethod::StripMined),
        (5, 1, CodegenMethod::Direct),
    ] {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 1);
        let plan = ExecPlan::Fused {
            grid: vec![procs],
            method,
            strip,
        };
        let counters = ex.run(&mut mem, &plan).unwrap();
        let total: u64 = counters.iter().map(|c| c.total_iters()).sum();
        assert_eq!(total, expect, "P={procs} strip={strip} {method:?}");
    }
}

/// The direct method counts guards; the strip-mined method counts strips.
#[test]
fn overhead_counters_match_method() {
    let seq = tiny_chain(200);
    let ex = Program::new(&seq, 1).unwrap();
    let run = |method, strip| {
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 1);
        let plan = ExecPlan::Fused {
            grid: vec![2],
            method,
            strip,
        };
        ex.run(&mut mem, &plan).unwrap()
    };
    let sm = run(CodegenMethod::StripMined, 8);
    assert!(sm.iter().map(|c| c.strips).sum::<u64>() > 0);
    assert_eq!(sm.iter().map(|c| c.guards).sum::<u64>(), 0);
    let d = run(CodegenMethod::Direct, 1);
    assert!(d.iter().map(|c| c.guards).sum::<u64>() > 0);
    assert_eq!(d.iter().map(|c| c.strips).sum::<u64>(), 0);
}

/// Self-scheduling the *unfused* program is a claim policy, not a
/// runtime: singleton groups have `Nt = 0`, so stealing may carve
/// blocks into chunks of any size — down to single outer iterations, up
/// to "one chunk per block" — and every worker count and chunk size
/// must reproduce serial execution bit for bit on both threaded
/// runtimes. The third nest is a serial recurrence, exercising the
/// processor-0 phase between claimed ones.
#[test]
fn self_scheduled_unfused_program_matches_serial() {
    let n = 48usize;
    let mut b = SeqBuilder::new("dyn");
    let a = b.array("a", [n, n]);
    let c = b.array("c", [n, n]);
    let d = b.array("d", [n, n]);
    let (lo, hi) = (1, n as i64 - 2);
    b.nest("L1", [(lo, hi), (lo, hi)], |x| {
        let r = x.ld(a, [0, 1]) + x.ld(a, [0, -1]);
        x.assign(c, [0, 0], r);
    });
    b.nest("L2", [(lo, hi), (lo, hi)], |x| {
        let r = x.ld(c, [1, 0]) + x.ld(c, [-1, 0]);
        x.assign(d, [0, 0], r);
    });
    b.nest("L3", [(lo, hi), (lo, hi)], |x| {
        let r = x.ld(d, [0, 0]) + x.ld(a, [-1, 0]);
        x.assign(a, [0, 0], r);
    });
    let seq = b.finish();
    let mut want = Memory::new(&seq, LayoutStrategy::Contiguous);
    want.init_deterministic(&seq, 4);
    shift_peel::exec::run_original(&seq, &mut want, &mut shift_peel::exec::NullSink);
    let want = want.snapshot_all(&seq);

    let prog = Program::new(&seq, 1).unwrap();
    let mut pooled = PooledExecutor::new(6);
    for threads in [1usize, 3, 6] {
        // Blocks of 46, 15-16 and 7-8 rows: single-row chunks, even and
        // uneven splits, and one chunk per block.
        for chunk in [1i64, 2, 5, 7, 23, 100] {
            let cfg = RunConfig::blocked([threads])
                .schedule(Schedule::Stealing)
                .chunk(chunk);
            let executors: [&mut dyn Executor; 2] = [&mut pooled, &mut ScopedExecutor];
            for ex in executors {
                let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                mem.init_deterministic(&seq, 4);
                let report = ex.run(&prog, &mut mem, &cfg).unwrap();
                let what = format!("{} t={threads} chunk={chunk}", ex.name());
                assert_eq!(mem.snapshot_all(&seq), want, "{what}");
                assert_eq!(report.total_iters(), 3 * 46 * 46, "{what}");
            }
        }
    }
}

//! Ablation: static blocked vs self-scheduled execution of the unfused
//! program on real threads — the same executor core under two claim
//! policies (`Schedule::Static` vs `Schedule::Stealing` over small
//! chunks; the unfused program's singleton groups have `Nt = 0`, so any
//! chunk size is legal).
//!
//! The paper restricts shift-and-peel to static blocked scheduling
//! (Section 3.2) and argues this "is not a serious limitation, as it is
//! normally the most efficient approach when the computation is regular".
//! This bench checks that claim on the host: for the regular kernels, the
//! static schedule should match or beat self-scheduling (which pays
//! atomic-claim traffic), so the restriction costs nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_cache::LayoutStrategy;
use sp_exec::{Executor, Memory, Program, RunConfig, Schedule, ScopedExecutor};
use sp_kernels::ll18;

fn bench_scheduling(c: &mut Criterion) {
    let seq = ll18::sequence(256);
    let prog = Program::new(&seq, 1).expect("analysis");
    let mut g = c.benchmark_group("scheduling");
    g.sample_size(10);
    for threads in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("static_blocked", threads),
            &threads,
            |b, &t| {
                let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                mem.init_deterministic(&seq, 1);
                let cfg = RunConfig::blocked([t]);
                b.iter(|| ScopedExecutor.run(&prog, &mut mem, &cfg).unwrap());
            },
        );
        for chunk in [4i64, 32] {
            g.bench_with_input(
                BenchmarkId::new(format!("dynamic_chunk{chunk}"), threads),
                &threads,
                |b, &t| {
                    let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
                    mem.init_deterministic(&seq, 1);
                    let cfg = RunConfig::blocked([t])
                        .schedule(Schedule::Stealing)
                        .chunk(chunk);
                    b.iter(|| ScopedExecutor.run(&prog, &mut mem, &cfg).unwrap());
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);

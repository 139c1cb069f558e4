//! Property tests of cache-key stability and sensitivity.
//!
//! Stability — a key must survive a render → parse → render round trip
//! of the program, since the service hashes the canonical rendering
//! precisely so that structurally equal programs (however they were
//! built) share artifacts. Sensitivity — keys must differ whenever the
//! program text or the plan configuration differs, or two distinct
//! compilations would alias one cache entry; and must not differ with
//! the processor grid or the backend, which run the same artifact.

use proptest::prelude::*;
use shift_peel_core::{CodegenMethod, PlanConfig};
use sp_exec::{Backend, ExecPlan};
use sp_ir::display::render_sequence;
use sp_ir::{parse_sequence, LoopSequence, SeqBuilder};
use sp_serve::{CacheKey, JobSpec};

/// A random 1-D loop chain with uniform dependences, the same shape the
/// executor proptests use: loop `i` reads loop `i-1`'s array at random
/// offsets in [-2, 2].
#[derive(Clone, Debug)]
struct Chain {
    n: usize,
    offsets: Vec<Vec<i64>>,
}

fn chain_strategy() -> impl Strategy<Value = Chain> {
    let offs = prop::collection::vec(-2i64..=2, 1..=3);
    (2usize..=5, prop::collection::vec(offs, 1..=4)).prop_map(|(scale, offsets)| Chain {
        n: 24 * scale,
        offsets,
    })
}

fn build(chain: &Chain) -> LoopSequence {
    let mut b = SeqBuilder::new("chain");
    let seed = b.array("seed", [chain.n]);
    let nloops = chain.offsets.len() + 1;
    let fields: Vec<_> = (0..nloops)
        .map(|i| b.array(format!("f{i}"), [chain.n]))
        .collect();
    let (lo, hi) = (4i64, chain.n as i64 - 5);
    for i in 0..nloops {
        b.nest(format!("L{i}"), [(lo, hi)], |x| {
            let rhs = if i == 0 {
                x.ld(seed, [1]) + x.ld(seed, [-1])
            } else {
                let mut e = x.ld(seed, [0]);
                for &o in &chain.offsets[i - 1] {
                    e = e + x.ld(fields[i - 1], [o]);
                }
                e * 0.5
            };
            x.assign(fields[i], [0], rhs);
        });
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Render → parse → render fixes the key: however a structurally
    /// equal program was produced, it addresses the same artifact.
    #[test]
    fn key_survives_parse_print_round_trips(
        chain in chain_strategy(),
        fuse in any::<bool>(),
        direct in any::<bool>(),
    ) {
        let seq = build(&chain);
        let method = if direct { CodegenMethod::Direct } else { CodegenMethod::StripMined };
        let cfg = if fuse { PlanConfig::fused(1) } else { PlanConfig::unfused(1) }.method(method);
        let k = CacheKey::compute(&seq, &cfg);

        let text = render_sequence(&seq);
        let reparsed = parse_sequence(&text).expect("rendering parses back");
        prop_assert_eq!(reparsed.clone(), seq, "round trip is structural identity");
        prop_assert_eq!(CacheKey::compute(&reparsed, &cfg), k);
        // And a second round trip (print the reparsed form) is a fixpoint.
        let twice = parse_sequence(&render_sequence(&reparsed)).expect("second round trip");
        prop_assert_eq!(CacheKey::compute(&twice, &cfg), k);
    }

    /// The program text and the plan configuration separate keys; the
    /// processor count and the backend of a job do not.
    #[test]
    fn key_separates_text_and_configs_but_not_procs_or_backends(
        chain in chain_strategy(),
        procs in 1usize..=8,
        other_procs in 9usize..=16,
    ) {
        let seq = build(&chain);
        let base = PlanConfig::fused(1);
        let k = CacheKey::compute(&seq, &base);
        let wider = build(&Chain { n: chain.n + 24, ..chain.clone() });
        prop_assert_ne!(k, CacheKey::compute(&wider, &base), "program text is keyed");
        prop_assert_ne!(
            k,
            CacheKey::compute(&seq, &PlanConfig::unfused(1)),
            "fuse/unfuse is keyed"
        );
        prop_assert_ne!(
            k,
            CacheKey::compute(&seq, &base.method(CodegenMethod::Direct)),
            "codegen method is keyed"
        );
        let job = |p: usize, backend: Backend| {
            let plan = ExecPlan::Fused { grid: vec![p], method: CodegenMethod::StripMined, strip: 8 };
            JobSpec::new("chain", seq.clone(), plan).backend(backend).cache_key()
        };
        for backend in [Backend::Interp, Backend::Compiled, Backend::Simd] {
            prop_assert_eq!(job(procs, backend), k, "backend is not keyed");
            prop_assert_eq!(job(other_procs, backend), k, "processor count is not keyed");
        }
    }
}

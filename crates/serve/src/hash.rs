//! Stable content hashing for compilation artifacts.
//!
//! A [`CacheKey`] names everything that determines a derived fusion plan
//! and a lowered tape: the program itself (via its canonical rendering)
//! and the planning configuration. Anything that does *not* change the
//! artifact — processor count and grid shape, backend, strip size,
//! initialization seed, step count, tracing — is deliberately excluded,
//! so equivalent requests collide onto one cache entry. A plan is
//! derived from the program alone; Theorem 1's block-size condition is a
//! property of a plan on a grid, and the executor checks it on every
//! run's grid.
//!
//! Hashing the *rendered* program rather than the in-memory structure
//! makes the key stable across parse/print round trips: a sequence read
//! back from `render_sequence` output hashes identically to the original
//! (property-tested in `tests/hash_proptest.rs`).

use shift_peel_core::PlanConfig;
use sp_ir::display::render_sequence;
use sp_ir::LoopSequence;
use std::fmt;

/// Version prefix folded into every key. Bump it whenever the canonical
/// rendering, the plan derivation, or the tape format changes semantics,
/// so no key names artifacts of two meanings.
pub const CACHE_FORMAT_VERSION: &str = "spfc-cache-v2";

pub use shift_peel_core::pipeline::{fnv1a64, Fnv1a64};

/// Content address of one compilation artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// The key for compiling `seq` under `cfg`.
    pub fn compute(seq: &LoopSequence, cfg: &PlanConfig) -> CacheKey {
        Self::of_rendered(&render_sequence(seq), cfg)
    }

    /// [`CacheKey::compute`] for a caller that already holds `program`,
    /// the sequence's [`render_sequence`] text: the canonical text is
    /// hashed piece by piece as it is formatted, never assembled.
    pub fn of_rendered(program: &str, cfg: &PlanConfig) -> CacheKey {
        let mut h = Fnv1a64::new();
        write_canonical(&mut h, program, cfg);
        CacheKey(h.finish())
    }

    /// The exact text hashed by [`CacheKey::compute`], exposed so tests
    /// and diagnostics can explain *why* two keys differ.
    pub fn canonical_text(seq: &LoopSequence, cfg: &PlanConfig) -> String {
        let mut text = String::new();
        write_canonical(&mut text, &render_sequence(seq), cfg);
        text
    }
}

/// The one definition of the keyed text, written to a `String` or
/// straight into the hash (neither sink can fail).
fn write_canonical(out: &mut impl fmt::Write, program: &str, cfg: &PlanConfig) {
    let _ = write!(out, "{CACHE_FORMAT_VERSION}\n{program}\nplan: {cfg}\n");
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpec;
    use shift_peel_core::CodegenMethod;
    use sp_exec::{Backend, ExecPlan};
    use sp_ir::parse_sequence;
    use sp_kernels::jacobi;

    #[test]
    fn key_is_stable_and_sensitive() {
        let seq = jacobi::sequence(32);
        let cfg = PlanConfig::fused(2);
        let k = CacheKey::compute(&seq, &cfg);
        // Stable across recomputation and across a parse/print round trip.
        assert_eq!(k, CacheKey::compute(&seq, &cfg));
        let reparsed = parse_sequence(&render_sequence(&seq)).expect("round trip");
        assert_eq!(k, CacheKey::compute(&reparsed, &cfg));
        // Sensitive to every keyed input.
        assert_ne!(k, CacheKey::compute(&seq, &PlanConfig::unfused(2)));
        assert_ne!(
            k,
            CacheKey::compute(&seq, &PlanConfig::fused(2).method(CodegenMethod::Direct))
        );
        assert_ne!(
            k,
            CacheKey::compute(&jacobi::sequence(33), &cfg),
            "different program text must not alias"
        );
        // Neither the grid nor the backend of a job is keyed: every grid
        // and backend runs the one artifact of its text and config.
        for (grid, backend) in [
            (vec![1, 4], Backend::Interp),
            (vec![4, 1], Backend::Compiled),
            (vec![2, 2], Backend::Simd),
        ] {
            let plan = ExecPlan::Fused {
                grid,
                method: CodegenMethod::StripMined,
                strip: 8,
            };
            let spec = JobSpec::new("jacobi", seq.clone(), plan).backend(backend);
            assert_eq!(spec.cache_key(), k, "{backend:?}");
        }
        // Display is fixed-width hex.
        assert_eq!(format!("{k}").len(), 16);
    }

    /// The key of jacobi(32) fused over two levels. The rendered text,
    /// and with it every key, must not drift; and a key derived from text
    /// a caller already holds is the key derived from the sequence.
    #[test]
    fn keys_are_pinned_and_the_same_by_text() {
        let seq = jacobi::sequence(32);
        let text = render_sequence(&seq);
        let cfg = PlanConfig::fused(2);
        let k = CacheKey::compute(&seq, &cfg);
        assert_eq!(format!("{k}"), "6c208fcbccdc44bb");
        assert_eq!(k, CacheKey::of_rendered(&text, &cfg));
        let hashed = CacheKey::canonical_text(&seq, &cfg);
        assert_eq!(k.0, fnv1a64(hashed.as_bytes()));
        // The plan configuration is the last keyed line: no processor
        // count, no backend.
        assert!(
            hashed.ends_with("\nplan: levels=2 fuse=true method=strip-mined\n"),
            "{hashed}"
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Fed in pieces, the same string hashes the same.
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}

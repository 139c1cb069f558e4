//! Stable content hashing for compilation artifacts.
//!
//! A [`CacheKey`] names everything that determines a derived fusion plan
//! and a lowered tape: the program itself (via its canonical rendering),
//! the planning configuration, the execution backend, and the processor
//! count. Anything that does *not* change the artifact — grid shape,
//! strip size, initialization seed, step count, tracing — is deliberately
//! excluded, so equivalent requests collide onto one cache entry.
//!
//! Hashing the *rendered* program rather than the in-memory structure
//! makes the key stable across parse/print round trips: a sequence read
//! back from `render_sequence` output hashes identically to the original
//! (property-tested in `tests/hash_proptest.rs`).

use shift_peel_core::PlanConfig;
use sp_exec::Backend;
use sp_ir::display::render_sequence;
use sp_ir::LoopSequence;
use std::fmt;

/// Version prefix folded into every key. Bump it whenever the canonical
/// rendering, the plan derivation, or the tape format changes semantics,
/// so no key names artifacts of two meanings.
pub const CACHE_FORMAT_VERSION: &str = "spfc-cache-v1";

pub use shift_peel_core::pipeline::{fnv1a64, Fnv1a64};

/// Content address of one compilation artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// The key for running `seq` under `cfg` on `procs` processors with
    /// `backend`.
    pub fn compute(
        seq: &LoopSequence,
        cfg: &PlanConfig,
        backend: Backend,
        procs: usize,
    ) -> CacheKey {
        Self::of_rendered(&render_sequence(seq), cfg, backend, procs)
    }

    /// [`CacheKey::compute`] for a caller that already holds `program`,
    /// the sequence's [`render_sequence`] text: the canonical text is
    /// hashed piece by piece as it is formatted, never assembled.
    pub fn of_rendered(
        program: &str,
        cfg: &PlanConfig,
        backend: Backend,
        procs: usize,
    ) -> CacheKey {
        let mut h = Fnv1a64::new();
        write_canonical(&mut h, program, cfg, backend, procs);
        CacheKey(h.finish())
    }

    /// The exact text hashed by [`CacheKey::compute`], exposed so tests
    /// and diagnostics can explain *why* two keys differ.
    pub fn canonical_text(
        seq: &LoopSequence,
        cfg: &PlanConfig,
        backend: Backend,
        procs: usize,
    ) -> String {
        let mut text = String::new();
        write_canonical(&mut text, &render_sequence(seq), cfg, backend, procs);
        text
    }
}

/// The one definition of the keyed text, written to a `String` or
/// straight into the hash (neither sink can fail).
fn write_canonical(
    out: &mut impl fmt::Write,
    program: &str,
    cfg: &PlanConfig,
    backend: Backend,
    procs: usize,
) {
    let _ = write!(
        out,
        "{CACHE_FORMAT_VERSION}\n{program}\nplan: {cfg}\nbackend: {}\nprocs: {procs}\n",
        backend.name(),
    );
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::CodegenMethod;
    use sp_ir::parse_sequence;
    use sp_kernels::jacobi;

    #[test]
    fn key_is_stable_and_sensitive() {
        let seq = jacobi::sequence(32);
        let cfg = PlanConfig::fused(2);
        let k = CacheKey::compute(&seq, &cfg, Backend::Compiled, 4);
        // Stable across recomputation and across a parse/print round trip.
        assert_eq!(k, CacheKey::compute(&seq, &cfg, Backend::Compiled, 4));
        let reparsed = parse_sequence(&render_sequence(&seq)).expect("round trip");
        assert_eq!(k, CacheKey::compute(&reparsed, &cfg, Backend::Compiled, 4));
        // Sensitive to every keyed input.
        assert_ne!(k, CacheKey::compute(&seq, &cfg, Backend::Compiled, 8));
        assert_ne!(k, CacheKey::compute(&seq, &cfg, Backend::Interp, 4));
        // The SIMD backend keys its own artifact even though the tape it
        // lowers is identical: backends must never alias in the cache.
        let ks = CacheKey::compute(&seq, &cfg, Backend::Simd, 4);
        assert_ne!(k, ks);
        assert_ne!(ks, CacheKey::compute(&seq, &cfg, Backend::Interp, 4));
        assert_ne!(
            k,
            CacheKey::compute(&seq, &PlanConfig::unfused(2), Backend::Compiled, 4)
        );
        assert_ne!(
            k,
            CacheKey::compute(
                &seq,
                &PlanConfig::fused(2).method(CodegenMethod::Direct),
                Backend::Compiled,
                4
            )
        );
        assert_ne!(
            k,
            CacheKey::compute(&jacobi::sequence(33), &cfg, Backend::Compiled, 4),
            "different program text must not alias"
        );
        // Display is fixed-width hex.
        assert_eq!(format!("{k}").len(), 16);
    }

    /// The values the commit before the single-buffer renderer printed.
    /// The rendered text, and with it every key, must not drift; and a key derived from text a caller already
    /// holds is the key derived from the sequence.
    #[test]
    fn keys_are_pinned_and_the_same_by_text() {
        let seq = jacobi::sequence(32);
        let text = render_sequence(&seq);
        let cfg = PlanConfig::fused(2);
        let k = CacheKey::compute(&seq, &cfg, Backend::Compiled, 4);
        assert_eq!(format!("{k}"), "fba94f95ab885cb6");
        assert_eq!(k, CacheKey::of_rendered(&text, &cfg, Backend::Compiled, 4));
        let hashed = CacheKey::canonical_text(&seq, &cfg, Backend::Compiled, 4);
        assert_eq!(k.0, fnv1a64(hashed.as_bytes()));
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

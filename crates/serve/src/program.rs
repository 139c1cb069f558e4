//! The program a job runs, made once and shared by everyone who needs it.
//!
//! A [`SharedProgram`] holds a [`LoopSequence`] together with the two
//! things every layer between a socket and the scheduler used to derive
//! from it again: its canonical text ([`render_sequence`]) and the
//! FNV-1a of that text, which is the program's content digest on the
//! wire and the program half of every cache key. All three sit behind
//! one `Arc`, so a [`JobSpec`](crate::JobSpec) clone, a registry hit and
//! a queue hand-off are pointer bumps, and nothing after construction
//! renders, hashes or copies the program.

use crate::hash::fnv1a64;
use sp_ir::display::render_sequence;
use sp_ir::LoopSequence;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable program with its canonical text and digest, shared by
/// reference count. Dereferences to the [`LoopSequence`].
#[derive(Clone, Debug)]
pub struct SharedProgram(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    seq: LoopSequence,
    text: String,
    digest: u64,
}

impl SharedProgram {
    /// The canonical text: `render_sequence` of the sequence, rendered
    /// when the program was made.
    pub fn text(&self) -> &str {
        &self.0.text
    }

    /// FNV-1a of [`SharedProgram::text`]: the content digest a wire
    /// client names the program by.
    pub fn digest(&self) -> u64 {
        self.0.digest
    }

    /// Whether `a` and `b` are the same shared object (not merely equal
    /// programs).
    pub fn ptr_eq(a: &SharedProgram, b: &SharedProgram) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<LoopSequence> for SharedProgram {
    fn from(seq: LoopSequence) -> SharedProgram {
        let text = render_sequence(&seq);
        let digest = fnv1a64(text.as_bytes());
        SharedProgram(Arc::new(Inner { seq, text, digest }))
    }
}

impl Deref for SharedProgram {
    type Target = LoopSequence;

    fn deref(&self) -> &LoopSequence {
        &self.0.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpec;
    use sp_exec::RunConfig;
    use sp_kernels::jacobi;

    #[test]
    fn a_spec_holds_its_program_text_and_digest_and_clones_share_them() {
        let seq = jacobi::sequence(32);
        let plan = RunConfig::fused([2]).plan().clone();
        let spec = JobSpec::new("j", seq.clone(), plan.clone());
        assert_eq!(spec.seq.text(), render_sequence(&seq));
        assert_eq!(spec.seq.digest(), fnv1a64(render_sequence(&seq).as_bytes()));
        // It is the sequence, to everything that takes one.
        let held: &LoopSequence = &spec.seq;
        assert_eq!(held, &seq);
        // A clone of the spec, and a spec made from the shared program,
        // point at the same object.
        let clone = spec.clone();
        assert!(SharedProgram::ptr_eq(&clone.seq, &spec.seq));
        let other = JobSpec::new("k", spec.seq.clone(), plan);
        assert!(SharedProgram::ptr_eq(&other.seq, &spec.seq));
        assert_eq!(other.cache_key(), spec.cache_key());
        // An equal program made separately is equal, not shared.
        let apart = SharedProgram::from(seq);
        assert!(!SharedProgram::ptr_eq(&apart, &spec.seq));
        assert_eq!(apart.digest(), spec.seq.digest());
    }
}

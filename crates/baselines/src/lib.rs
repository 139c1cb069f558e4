//! # sp-baselines — the alignment/replication comparator
//!
//! The techniques of Callahan [8] and Appelbe & Smith [2] that the
//! paper's Figure 26 compares shift-and-peel against: align iteration
//! spaces so every inter-loop dependence becomes loop-independent, and
//! resolve *alignment conflicts* (Figure 14) by replication — copying
//! arrays read before they are overwritten (data replication) and
//! inlining defining statements into conflicting reads (computation
//! replication). The replication overhead is exactly what makes
//! shift-and-peel win in Figure 26.
//!
//! * [`conflict`] — alignment derivation and conflict detection;
//! * [`transform`] — conflict resolution producing an [`AlignedProgram`],
//!   and its lowering to the fusion plan ([`AlignedProgram::plan`]) that
//!   runs it on `sp-exec`'s executors and `sp_machine::simulate`.

pub mod conflict;
pub mod transform;

pub use conflict::{derive_alignment, AlignmentResult, Conflict};
pub use transform::{align_with_replication, AlignError, AlignedProgram};

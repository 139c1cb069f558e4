//! # sp-dep — dependence analysis for loop fusion
//!
//! Implements the dependence machinery the shift-and-peel transformation
//! requires (Sections 2.1 and 3.3 of Manjikian & Abdelrahman, ICPP 1995):
//!
//! * exact dependence **distances** for uniform affine reference pairs via
//!   a small rational linear solver ([`linsolve`]) — the role the Omega
//!   test plays in the paper's prototype;
//! * conservative **independence tests** (GCD, Banerjee) for non-uniform
//!   pairs ([`indep`]);
//! * **interloop dependence** extraction over whole sequences with
//!   flow/anti/output classification and per-level uniformity
//!   ([`analysis`]);
//! * per-nest **parallelism** detection (which levels are `doall`);
//! * the **dependence chain multigraph** per fused dimension with the
//!   min/max reductions used by the shift and peel derivations
//!   ([`graph`]).

pub mod analysis;
pub mod describe;
pub mod graph;
pub mod indep;
pub mod linsolve;
pub mod rational;

pub use analysis::{
    analyze_sequence, ref_distance, AnalysisError, DepKind, InterDep, NestInfo, PairDistance,
    SequenceDeps,
};
pub use describe::describe_deps;
pub use graph::{DepEdge, DepMultigraph};
pub use indep::{test_pair, IndepResult};
pub use linsolve::{solve, solve_separable, LinSolution};
pub use rational::Rational;

//! # shift-peel-core — the shift-and-peel transformation
//!
//! The primary contribution of Manjikian & Abdelrahman, *"Fusion of Loops
//! for Parallelism and Locality"* (ICPP 1995), implemented on the `sp-ir`
//! program model with `sp-dep` dependence analysis.
//!
//! The public API is grouped into four modules (downstream crates import
//! from these, never from file-level paths):
//!
//! * [`plan`] — what to execute: [`FusionPlan`]/[`FusedGroup`], the
//!   [`PlanConfig`] describing how a plan is derived, the codegen method
//!   choice (Figure 11), and the low-level planning entry points.
//! * [`pipeline`] — how plans are derived: the [`Planner`] builder that
//!   runs the two stages (dependence, plan) in a row, the one planning
//!   entry point for the CLI and the serve tier.
//! * [`analysis`] — the individual analyses the stages are built from:
//!   shift/peel derivation (Figure 8), Theorem 1's block check on a
//!   grid, block-geometry scheduling (Figures 12 and 16), strip
//!   selection (Section 4), profitability (Section 6), and array
//!   contraction.
//! * [`explain`] — opt-in decision tracing: structured events recording
//!   why each pass decided what it did (edge contributions, fusion
//!   rejections, Theorem 1 threshold checks), rendered by `spfc explain`.
//!
//! The most common names are re-exported at the crate root and from
//! [`prelude`].

mod codegen;
mod contract;
mod derive;
mod emit;
mod legality;
mod profit;
mod schedule;

pub mod explain;
pub mod pipeline;
pub mod plan;

/// The individual analyses behind the planning stages: derivation,
/// legality, block-geometry scheduling, strip selection, profitability,
/// array contraction, and plan rendering.
pub mod analysis {
    pub use crate::codegen::StripSpec;
    pub use crate::contract::{find_contractable, ContractionCandidate};
    pub use crate::derive::{
        derive_dim, derive_dim_observed, derive_levels, derive_shift_peel, Derivation, DeriveError,
        DimDerivation,
    };
    pub use crate::emit::render_plan;
    pub use crate::legality::{check_blocks, max_procs, LegalityError};
    pub use crate::profit::ProfitabilityModel;
    pub use crate::schedule::{
        decompose, global_fused_range, nest_regions, NestRegions, ProcBlock,
    };
}

/// Glob-import surface for the common planning workflow: build a
/// [`Planner`], call
/// [`plan`](crate::pipeline::Planner::plan), consume the
/// [`Planned`] artifacts.
///
/// ```
/// use shift_peel_core::prelude::*;
/// # use sp_ir::SeqBuilder;
/// # let mut b = SeqBuilder::new("ex");
/// # let a = b.array("a", [16]);
/// # let c = b.array("c", [16]);
/// # b.nest("L1", [(1, 14)], |x| { let r = x.ld(a, [0]); x.assign(c, [0], r); });
/// # b.nest("L2", [(1, 14)], |x| { let r = x.ld(c, [1]); x.assign(a, [0], r); });
/// # let seq = b.finish();
/// let planned = Planner::new(PlanConfig::fused(1)).plan(&seq).unwrap();
/// assert!(planned.plan.fused_group_count() > 0);
/// ```
pub mod prelude {
    pub use crate::analysis::{derive_shift_peel, Derivation, LegalityError, ProfitabilityModel};
    pub use crate::explain::ExplainTrace;
    pub use crate::pipeline::{Planned, Planner};
    pub use crate::plan::{CodegenMethod, FusionPlan, PlanConfig};
}

// Curated root re-exports: the types and entry points nearly every
// consumer needs. Anything more specialized lives under the grouped
// modules above.
pub use analysis::{
    derive_shift_peel, Derivation, DeriveError, DimDerivation, LegalityError, ProfitabilityModel,
};
pub use explain::{ExplainEvent, ExplainTrace};
pub use pipeline::{NullObserver, PassTiming, PassTimings, PlanObserver, Planned, Planner};
pub use plan::{fusion_plan, singleton_plan, CodegenMethod, FusedGroup, FusionPlan, PlanConfig};

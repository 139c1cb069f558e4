//! # sp-cache — cache simulation and conflict-free data layout
//!
//! The second contribution of Manjikian & Abdelrahman (ICPP 1995) is
//! **cache partitioning** (Section 4): a data transformation that inserts
//! gaps between arrays so that each array's live window maps into its own
//! partition of the cache, making the locality benefit of loop fusion
//! immune to cross-conflicts. This crate provides:
//!
//! * [`sim`] — a trace-driven set-associative LRU cache simulator (the
//!   substitute for the KSR2/Convex hardware miss counters), plus an
//!   infinite cache for isolating compulsory misses;
//! * [`hierarchy`] — inclusive stacks of those caches, one level or more;
//! * [`layout`] — memory layouts: contiguous, inner-dimension padding
//!   (the erratic classical technique of Figures 18/20), and cache
//!   partitioning;
//! * [`partition`] — the greedy layout algorithm of Figure 19, including
//!   its set-associative variant;
//! * [`compat`] — the reference-compatibility analysis (`h_A = h_B`) that
//!   guarantees partitions stay conflict-free throughout execution, with
//!   diagnosis of the repairing data transformation when they are not.

pub mod classify;
pub mod compat;
pub mod hierarchy;
pub mod layout;
pub mod partition;
pub mod sim;

pub use classify::{ClassifyingCache, FullyAssocLru, MissClasses};
pub use compat::{address_profile, compatibility, group_compatibility, Compatibility};
pub use hierarchy::CacheHierarchy;
pub use layout::{ArrayPlacement, LayoutStrategy, MemoryLayout};
pub use partition::{gap_overhead, greedy_partition_starts};
pub use sim::{Cache, CacheConfig, CacheStats, InfiniteCache};

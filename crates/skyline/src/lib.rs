#![warn(missing_docs)]

//! Centralized skyline machinery underpinning SKYPEER.
//!
//! This crate implements everything a single node needs to compute
//! (subspace) skylines:
//!
//! * [`PointSet`] — a flat, row-major store of `d`-dimensional points;
//! * [`Subspace`] — dimension subsets `U ⊆ D` as bitmasks;
//! * dominance algebra ([`dominance`]) covering both the classic skyline
//!   dominance (`≤` everywhere, `<` somewhere) and the paper's *extended*
//!   dominance (`<` everywhere, Definition 1);
//! * the 1-d mapping of Section 5.1 ([`mapping`]): `f(p) = min_i p[i]` and
//!   `dist_U(p) = max_{i∈U} p[i]`, whose interplay (Observation 5) powers
//!   threshold pruning;
//! * classic engines: block-nested-loops ([`bnl`]), sort-filter-skyline
//!   ([`sfs`]), divide & conquer ([`dnc`]), branch-and-bound over an
//!   R-tree ([`bbs`]);
//! * the paper's **Algorithm 1** ([`sorted`]): threshold-based local
//!   subspace skyline over an `f(p)`-sorted list, with either a linear or
//!   an R-tree dominance index;
//! * the paper's **Algorithm 2** ([`merge`]): threshold-based merging of
//!   several `f`-sorted skyline lists;
//! * extended-skyline computation ([`extended`]) and the full skycube
//!   ([`skycube`]) used to validate Observation 4;
//! * quadratic brute-force oracles ([`brute`]) for testing.
//!
//! All skylines are computed under *min* conditions on non-negative values,
//! exactly as the paper assumes.
//!
//! # Quick example
//!
//! ```
//! use skypeer_skyline::{PointSet, Subspace, bnl, Dominance};
//!
//! let mut points = PointSet::new(3);
//! points.push(&[1.0, 5.0, 3.0], 0);
//! points.push(&[2.0, 2.0, 2.0], 1);
//! points.push(&[3.0, 6.0, 4.0], 2); // dominated by both others
//!
//! let sky = bnl::skyline(&points, Subspace::full(3), Dominance::Standard);
//! assert_eq!(sky, vec![0, 1]);
//! ```

pub mod bbs;
pub mod bnl;
pub mod brute;
pub mod constrained;
pub mod dnc;
pub mod dominance;
pub mod estimate;
pub mod extended;
pub mod mapping;
pub mod merge;
pub mod point;
pub mod progressive;
pub mod sfs;
pub mod skyband;
pub mod skycube;
pub mod sorted;
pub mod subspace;

pub use dominance::Dominance;
pub use mapping::{dist, f_value};
pub use point::{PointSet, MAX_DIM};
pub use sorted::{DominanceIndex, SortedDataset, ThresholdOutcome};
pub use subspace::Subspace;

#[cfg(test)]
mod kernel_counts;
#[cfg(test)]
mod proptests;

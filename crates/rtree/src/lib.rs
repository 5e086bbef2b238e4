#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Main-memory R-tree with runtime-chosen dimensionality.
//!
//! SKYPEER's local subspace-skyline computation (Algorithm 1 of the paper)
//! performs two hot operations against the set of skyline points found so
//! far:
//!
//! 1. *is the candidate dominated by any current skyline point?* — a window
//!    query over the box `[origin, candidate]`, and
//! 2. *drop every current skyline point the candidate dominates* — a window
//!    query over the box `[candidate, +inf)` followed by deletions.
//!
//! The paper performs both "in a way similar to traditional window queries
//! using a main-memory R-tree with dimensionality equal to the query
//! dimensionality" (Section 5.2.1). This crate provides exactly that
//! substrate: a Guttman R-tree held entirely in memory, with quadratic-split
//! insertion, deletion with orphan reinsertion, STR bulk loading, window
//! queries, and the two dominance-specific queries above.
//!
//! The tree stores points (degenerate rectangles) tagged with a `u64`
//! identifier. Dimensionality is fixed per tree at construction but chosen
//! at runtime, because the query dimensionality `k = |U|` varies per query.
//!
//! # Page layout
//!
//! Nodes are pages in one arena owned by the tree: flat vectors of page
//! heads (level, length, offset), slot ids and values, plus free lists of
//! released leaf and internal pages that the next allocation of that kind
//! reuses. A page has `M + 1` slots (`M` is the fan-out, 16 by default), so
//! a node that overflows holds its extra entry in place until it splits.
//!
//! * A **leaf page** holds its points' ids and, contiguously, their
//!   coordinates: `slots × k` values.
//! * An **internal page** holds its children's page numbers and,
//!   contiguously, their bounding boxes (`lo` then `hi`, `2k` values each).
//!   A traversal tests every child's box without touching the child; the
//!   root's box is kept by the tree.
//!
//! Every point and every box lives inline in its page: inserting, removing
//! and querying allocate nothing per entry, and the removal path, the
//! orphans of a condensed node and the entries of a split node live in
//! buffers the tree reuses. The box tests and the volume arithmetic run on
//! code specialized to `k ≤ 8` at compile time, so their loops over the
//! axes unroll.
//!
//! # Decisions kept bit for bit
//!
//! The skyline window counts the points a window visits as dominance tests,
//! and the network's simulated time is derived from those counts. The tree
//! therefore makes every decision of the Guttman tree it replaced, from the
//! same `f64` values: least-enlargement choose-subtree with ties by volume,
//! quadratic split (PickSeeds, PickNext, the minimum-fill rule and its
//! tie-breaks), find-path in depth-first slot order, `swap_remove` of the
//! first matching entry, condensing with orphans reinserted in depth-first
//! order, STR bulk loading with a stable sort per axis, and windows that
//! visit children and points in slot order. Tree shape, entry order and
//! visit order are pinned by `tests::insert_remove_shape_and_visit_order_are_pinned`
//! (dimensionalities 2, 3, 6 and 8, with and without coordinate ties) and
//! `tests::bulk_load_shape_is_pinned`, and the window's counts by
//! `skypeer_skyline`'s `kernel_counts` tests.
//!
//! # Example
//!
//! ```
//! use skypeer_rtree::RTree;
//!
//! let mut tree = RTree::new(2);
//! tree.insert(&[1.0, 4.0], 1);
//! tree.insert(&[3.0, 2.0], 2);
//! tree.insert(&[4.0, 4.0], 3);
//!
//! // (4,4) is dominated by both (1,4) and (3,2).
//! assert!(tree.is_dominated(&[4.0, 4.0]));
//! // (0.5, 0.5) dominates everything.
//! let gone = tree.remove_dominated_by(&[0.5, 0.5]);
//! assert_eq!(gone.len(), 3);
//! assert!(tree.is_empty());
//! ```

mod rect;
mod tree;

pub use rect::Rect;
pub use tree::{NodeRef, RTree, TreeStats};

#[cfg(test)]
mod tests;

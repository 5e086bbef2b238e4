//! Branch-and-Bound Skyline (Papadias, Tao, Fu, Seeger — TODS 2005).
//!
//! BBS is the reference progressive skyline algorithm over an R-tree: a
//! best-first traversal ordered by the L1 *mindist* of each entry's MBR.
//! Because a box's lower corner lower-bounds every point inside it, an
//! entry whose lower corner is dominated by an already-found skyline point
//! can be pruned wholesale, and points pop off the priority queue in an
//! order that guarantees no later point can dominate an earlier one —
//! every popped, non-dominated point is immediately a confirmed skyline
//! point (the "progressive with guaranteed minimum I/O" property the
//! SKYPEER paper cites when borrowing the dominance-window technique).
//!
//! SKYPEER itself uses Algorithm 1 (the `f(p)` threshold scan) at query
//! time because its data already arrives `f`-sorted; BBS is provided as
//! the canonical centralized engine for comparison and for workloads where
//! the data is R-tree-resident.

use crate::dominance::Dominance;
use crate::point::PointSet;
use crate::subspace::Subspace;
use skypeer_rtree::{NodeRef, RTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: either an R-tree node or a concrete point, keyed by L1
/// mindist from the origin (ascending).
enum Candidate<'a> {
    Node(NodeRef<'a>),
    Point { coords: &'a [f64], id: u64 },
}

struct Keyed<'a> {
    mindist: f64,
    seq: u64,
    cand: Candidate<'a>,
}

impl PartialEq for Keyed<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.mindist == other.mindist && self.seq == other.seq
    }
}
impl Eq for Keyed<'_> {}
impl PartialOrd for Keyed<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on mindist; seq breaks ties (FIFO).
        other
            .mindist
            .partial_cmp(&self.mindist)
            .expect("mindist is finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// L1 mindist from the origin of a node: the sum of its box's lower
/// corner. No point inside the box can have a smaller coordinate sum, and
/// a point dominating the lower corner dominates every point in the box.
fn mindist_l1(node: NodeRef<'_>) -> f64 {
    node.mbr().0.iter().sum()
}

/// Computes the skyline of the points stored in `tree` on subspace `u`
/// (the tree must be built over the *projected* `u.k()`-dimensional
/// coordinates — see [`skyline_ids`] for the all-in-one path), returning
/// `(projected coords, id)` pairs in discovery (mindist) order.
pub fn skyline_from_tree(tree: &RTree, flavour: Dominance) -> Vec<(Vec<f64>, u64)> {
    let full = Subspace::full(tree.dim().clamp(1, crate::point::MAX_DIM));
    let mut heap: BinaryHeap<Keyed<'_>> = BinaryHeap::new();
    let mut seq = 0u64;
    if !tree.is_empty() {
        heap.push(Keyed {
            mindist: mindist_l1(tree.root()),
            seq,
            cand: Candidate::Node(tree.root()),
        });
        seq += 1;
    }
    let mut skyline: Vec<(Vec<f64>, u64)> = Vec::new();
    let dominated_by_result = |coords: &[f64], skyline: &[(Vec<f64>, u64)]| {
        skyline.iter().any(|(s, _)| flavour.dominates(s, coords, full))
    };
    while let Some(Keyed { cand, .. }) = heap.pop() {
        match cand {
            Candidate::Node(node) => {
                // Prune the whole subtree if its lower corner is dominated.
                if dominated_by_result(node.mbr().0, &skyline) {
                    continue;
                }
                if node.is_leaf() {
                    for (coords, id) in node.points() {
                        heap.push(Keyed {
                            mindist: coords.iter().sum(),
                            seq,
                            cand: Candidate::Point { coords, id },
                        });
                        seq += 1;
                    }
                } else {
                    for child in node.children() {
                        heap.push(Keyed {
                            mindist: mindist_l1(child),
                            seq,
                            cand: Candidate::Node(child),
                        });
                        seq += 1;
                    }
                }
            }
            Candidate::Point { coords, id } => {
                if !dominated_by_result(coords, &skyline) {
                    skyline.push((coords.to_vec(), id));
                }
            }
        }
    }
    skyline
}

/// All-in-one: bulk-loads an R-tree over the `u`-projections of `set` and
/// runs BBS. Returns sorted skyline identifiers.
///
/// ```
/// use skypeer_skyline::{bbs, Dominance, PointSet, Subspace};
/// let mut s = PointSet::new(2);
/// s.push(&[1.0, 9.0], 0);
/// s.push(&[5.0, 5.0], 1);
/// s.push(&[6.0, 6.0], 2); // dominated
/// assert_eq!(bbs::skyline_ids(&s, Subspace::full(2), Dominance::Standard), vec![0, 1]);
/// ```
pub fn skyline_ids(set: &PointSet, u: Subspace, flavour: Dominance) -> Vec<u64> {
    let mut proj = Vec::new();
    let mut projected: Vec<(Vec<f64>, u64)> = Vec::with_capacity(set.len());
    for (_, id, coords) in set.iter() {
        u.project_into(coords, &mut proj);
        projected.push((proj.clone(), id));
    }
    let refs: Vec<(&[f64], u64)> = projected.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
    let tree = RTree::bulk_load(u.k(), &refs);
    let mut ids: Vec<u64> =
        skyline_from_tree(&tree, flavour).into_iter().map(|(_, id)| id).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::brute;

    fn sample() -> PointSet {
        let mut s = PointSet::new(3);
        let rows = [
            [4.0, 1.0, 6.0],
            [2.0, 2.0, 2.0],
            [1.0, 7.0, 3.0],
            [6.0, 6.0, 6.0],
            [2.0, 2.0, 2.0],
            [0.0, 9.0, 1.0],
            [3.0, 3.0, 1.0],
            [5.0, 0.5, 4.0],
        ];
        for (i, r) in rows.iter().enumerate() {
            s.push(r, i as u64);
        }
        s
    }

    #[test]
    fn matches_brute_on_every_subspace() {
        let s = sample();
        for u in Subspace::enumerate_all(3) {
            for flavour in [Dominance::Standard, Dominance::Extended] {
                assert_eq!(
                    skyline_ids(&s, u, flavour),
                    brute::skyline_ids(&s, u, flavour),
                    "subspace {u} flavour {flavour:?}"
                );
            }
        }
    }

    #[test]
    fn progressive_order_is_mindist_ascending() {
        let s = sample();
        let u = Subspace::full(3);
        let mut proj = Vec::new();
        let mut projected: Vec<(Vec<f64>, u64)> = Vec::new();
        for (_, id, coords) in s.iter() {
            u.project_into(coords, &mut proj);
            projected.push((proj.clone(), id));
        }
        let refs: Vec<(&[f64], u64)> =
            projected.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
        let tree = RTree::bulk_load(3, &refs);
        let result = skyline_from_tree(&tree, Dominance::Standard);
        let dists: Vec<f64> = result.iter().map(|(p, _)| p.iter().sum()).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "not progressive: {dists:?}");
    }

    #[test]
    fn scales_past_node_capacity() {
        // Enough points to force a multi-level tree (fanout 16).
        let mut s = PointSet::new(2);
        let mut x = 7u64;
        for i in 0..2000u64 {
            let mut c = [0.0; 2];
            for v in &mut c {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = ((x >> 33) % 10_000) as f64 / 100.0;
            }
            s.push(&c, i);
        }
        let u = Subspace::full(2);
        assert_eq!(
            skyline_ids(&s, u, Dominance::Standard),
            crate::bnl::skyline_ids(&s, u, Dominance::Standard)
        );
    }

    #[test]
    fn empty_and_singleton() {
        let s = PointSet::new(2);
        assert!(skyline_ids(&s, Subspace::full(2), Dominance::Standard).is_empty());
        let mut s1 = PointSet::new(2);
        s1.push(&[3.0, 3.0], 42);
        assert_eq!(skyline_ids(&s1, Subspace::full(2), Dominance::Standard), vec![42]);
    }
}

//! The paper's **Algorithm 2**: threshold-based merging of several
//! `f`-sorted skyline lists.
//!
//! Rather than concatenating, re-sorting, and re-running Algorithm 1, the
//! merge repeatedly takes the globally smallest-`f` head among the input
//! lists (a small binary heap), runs the usual dominance check against the
//! accumulated result, and terminates as soon as the smallest remaining
//! head exceeds the threshold. Every list is thus read only up to the
//! threshold — the property the super-peers rely on both when merging peer
//! ext-skylines in the preprocessing phase and when merging query results
//! (progressive or at the initiator).

use crate::dominance::Dominance;
use crate::mapping::dist;
use crate::sorted::{DominanceIndex, SortedDataset, ThresholdOutcome};
use crate::subspace::Subspace;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap key: the current head of list `list` has value `f`.
struct Head {
    f: f64,
    id: u64,
    list: usize,
    pos: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.id == other.id && self.list == other.list
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest f first.
        other
            .f
            .partial_cmp(&self.f)
            .expect("f values are finite")
            .then_with(|| other.id.cmp(&self.id))
            .then_with(|| other.list.cmp(&self.list))
    }
}

/// **Algorithm 2** — merges `lists` (each `f`-sorted; in SKYPEER each is a
/// skyline or ext-skyline in its own right, though the algorithm does not
/// require that) into the skyline of their union on `u`.
///
/// ```
/// use skypeer_skyline::{merge, Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};
///
/// let mut a = PointSet::new(2);
/// a.push(&[1.0, 6.0], 1);
/// let mut b = PointSet::new(2);
/// b.push(&[2.0, 2.0], 2);
/// b.push(&[3.0, 7.0], 3); // dominated across lists
/// let (a, b) = (SortedDataset::from_set(&a), SortedDataset::from_set(&b));
/// let out = merge::merge_sorted(
///     &[&a, &b], Subspace::full(2), Dominance::Standard, f64::INFINITY, DominanceIndex::Linear);
/// assert_eq!(out.result.len(), 2);
/// ```
///
/// `initial_threshold` plays the same role as in Algorithm 1. Lists must
/// contain points with pairwise-distinct identifiers if the caller wants a
/// duplicate-free result; exact duplicates are mutually non-dominating and
/// all survive, mirroring the centralized semantics.
pub fn merge_sorted(
    lists: &[&SortedDataset],
    u: Subspace,
    flavour: Dominance,
    initial_threshold: f64,
    index: DominanceIndex,
) -> ThresholdOutcome {
    skypeer_obs::scope!("skyline::merge_sorted");
    let dim = lists.iter().map(|l| l.dim()).max().unwrap_or(u.dims().last().map_or(1, |d| d + 1));
    for l in lists {
        assert_eq!(l.dim(), dim, "merged lists must share dimensionality");
    }

    let mut heap: BinaryHeap<Head> = BinaryHeap::with_capacity(lists.len());
    for (li, l) in lists.iter().enumerate() {
        if !l.is_empty() {
            heap.push(Head { f: l.f(0), id: l.points().id(0), list: li, pos: 0 });
        }
    }

    let mut window = super::sorted::Window::new(dim, u, flavour, index);
    let mut threshold = initial_threshold;
    let mut pruned: u64 = 0;
    while let Some(head) = heap.pop() {
        let list = lists[head.list];
        if head.f > threshold {
            // The globally smallest remaining head already exceeds the
            // threshold: everything left in every list is pruned.
            pruned += (list.len() - head.pos) as u64;
            pruned += heap.drain().map(|h| (lists[h.list].len() - h.pos) as u64).sum::<u64>();
            break;
        }
        let coords = list.points().point(head.pos);
        if window.offer(coords, list.points().id(head.pos), head.f) {
            let d = dist(coords, u);
            if d < threshold {
                threshold = d;
            }
        }
        let next = head.pos + 1;
        if next < list.len() {
            heap.push(Head {
                f: list.f(next),
                id: list.points().id(next),
                list: head.list,
                pos: next,
            });
        }
    }
    let mut out = window.into_outcome(threshold);
    out.stats.pruned_by_threshold = pruned;
    out
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::point::PointSet;
    use crate::{brute, sorted::threshold_skyline};

    fn sorted_of(rows: &[(&[f64], u64)], dim: usize) -> SortedDataset {
        let mut s = PointSet::new(dim);
        for (r, id) in rows {
            s.push(r, *id);
        }
        SortedDataset::from_set(&s)
    }

    fn union(lists: &[&SortedDataset], dim: usize) -> PointSet {
        let mut all = PointSet::new(dim);
        for l in lists {
            all.extend_from(l.points());
        }
        all
    }

    #[test]
    fn merge_equals_centralized_skyline() {
        let a = sorted_of(&[(&[1.0, 6.0], 1), (&[3.0, 3.0], 2), (&[7.0, 1.0], 3)], 2);
        let b = sorted_of(&[(&[2.0, 2.0], 4), (&[6.0, 6.0], 5)], 2);
        let c = sorted_of(&[(&[0.5, 9.0], 6)], 2);
        let lists = [&a, &b, &c];
        let u = Subspace::full(2);
        let out =
            merge_sorted(&lists, u, Dominance::Standard, f64::INFINITY, DominanceIndex::Linear);
        let mut got: Vec<u64> = (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
        got.sort_unstable();
        let all = union(&lists, 2);
        assert_eq!(got, brute::skyline_ids(&all, u, Dominance::Standard));
    }

    #[test]
    fn merge_matches_algorithm1_on_concatenation() {
        // Merging pre-computed skylines must give the same set as running
        // Algorithm 1 over the union from scratch.
        let raw = [
            (&[4.0, 1.0, 5.0][..], 1u64),
            (&[2.0, 2.0, 2.0], 2),
            (&[1.0, 9.0, 9.0], 3),
            (&[9.0, 9.0, 0.5], 4),
            (&[3.0, 3.0, 3.0], 5),
            (&[2.0, 2.0, 2.0], 6),
        ];
        let u = Subspace::from_dims(&[0, 2]);
        for split in 1..raw.len() {
            let left = sorted_of(&raw[..split], 3);
            let right = sorted_of(&raw[split..], 3);
            // Reduce each side to its local skyline first, as SKYPEER does.
            let ls = threshold_skyline(
                &left,
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let rs = threshold_skyline(
                &right,
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let merged = merge_sorted(
                &[&ls.result, &rs.result],
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let all = union(&[&left, &right], 3);
            let direct = threshold_skyline(
                &SortedDataset::from_set(&all),
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let mut got: Vec<u64> =
                (0..merged.result.len()).map(|i| merged.result.points().id(i)).collect();
            let mut want: Vec<u64> =
                (0..direct.result.len()).map(|i| direct.result.points().id(i)).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "split at {split}");
        }
    }

    #[test]
    fn threshold_stops_reading_lists() {
        let a = sorted_of(&[(&[1.0, 1.0], 1)], 2);
        let b = sorted_of(&[(&[3.0, 2.0], 2), (&[4.0, 4.0], 3), (&[5.0, 5.0], 4)], 2);
        let out = merge_sorted(
            &[&a, &b],
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.threshold, 1.0);
        assert_eq!(out.stats.pruned_by_threshold, 3, "all of list b is pruned unread");
    }

    #[test]
    fn initial_threshold_respected() {
        let a = sorted_of(&[(&[2.0, 2.0], 1)], 2);
        let out = merge_sorted(
            &[&a],
            Subspace::full(2),
            Dominance::Standard,
            1.0,
            DominanceIndex::Linear,
        );
        assert!(out.result.is_empty());
        assert_eq!(out.threshold, 1.0);
    }

    #[test]
    fn empty_lists_are_fine() {
        let e = SortedDataset::empty(2);
        let a = sorted_of(&[(&[1.0, 2.0], 1)], 2);
        let out = merge_sorted(
            &[&e, &a, &e],
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        assert_eq!(out.result.len(), 1);
        let none = merge_sorted(
            &[],
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        assert!(none.result.is_empty());
    }

    #[test]
    fn result_stays_f_sorted_across_lists() {
        let a = sorted_of(&[(&[1.0, 9.0], 1), (&[5.0, 5.0], 2)], 2);
        let b = sorted_of(&[(&[2.0, 8.0], 3), (&[4.0, 6.0], 4)], 2);
        let out = merge_sorted(
            &[&a, &b],
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        let f = out.result.f_values();
        assert!(f.windows(2).all(|w| w[0] <= w[1]), "merged output must stay sorted: {f:?}");
    }

    #[test]
    fn ext_flavour_merge_for_preprocessing() {
        // Super-peers merge peer ext-skylines with ext-dominance; ties must
        // survive the merge.
        let a = sorted_of(&[(&[1.0, 3.0], 1)], 2);
        let b = sorted_of(&[(&[1.0, 5.0], 2), (&[2.0, 4.0], 3)], 2);
        let out = merge_sorted(
            &[&a, &b],
            Subspace::full(2),
            Dominance::Extended,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        let mut ids: Vec<u64> = (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
        ids.sort_unstable();
        // (1,5) ties (1,3) on the first dimension, so it survives
        // ext-dominance; (2,4) is strictly worse than (1,3) everywhere.
        assert_eq!(ids, vec![1, 2]);
    }
}

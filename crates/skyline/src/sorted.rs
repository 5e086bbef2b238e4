//! The paper's **Algorithm 1**: threshold-based local subspace skyline
//! computation over an `f(p)`-sorted dataset.
//!
//! Points are consumed in ascending `f(p)` order. The running threshold is
//! the minimum `dist_U` over the skyline points found so far (seeded by an
//! optional incoming threshold from another super-peer). By Observation 5,
//! once `f(p)` strictly exceeds the threshold, neither this point nor any
//! later one can be a skyline point, and the scan terminates.
//!
//! The dominance test against the accumulated skyline uses either a linear
//! scan or a main-memory R-tree of dimensionality `k = |U|`, per
//! Section 5.2.1.

use crate::dominance::Dominance;
use crate::mapping::{dist, f_value};
use crate::point::PointSet;
use crate::subspace::Subspace;
use skypeer_rtree::{RTree, Rect};

/// A point set paired with its `f(p)` values, sorted ascending by `f`.
///
/// This is the resting representation of data everywhere in SKYPEER: peers
/// upload their ext-skylines in this form, super-peers store the merged
/// ext-skyline in this form, and query results travel in this form so that
/// receivers can merge them with Algorithm 2 without re-sorting.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedDataset {
    set: PointSet,
    f: Vec<f64>,
}

impl SortedDataset {
    /// Builds a sorted dataset from an arbitrary point set, computing
    /// `f(p)` for every point (over the full space, Equation 1) and sorting
    /// ascending. Ties are broken by id for determinism.
    pub fn from_set(set: &PointSet) -> Self {
        let mut order: Vec<usize> = (0..set.len()).collect();
        let f_raw: Vec<f64> = (0..set.len()).map(|i| f_value(set.point(i))).collect();
        order.sort_by(|&a, &b| {
            f_raw[a]
                .partial_cmp(&f_raw[b])
                .expect("f values are finite")
                .then_with(|| set.id(a).cmp(&set.id(b)))
        });
        let sorted_set = set.gather(&order);
        let f = order.into_iter().map(|i| f_raw[i]).collect();
        SortedDataset { set: sorted_set, f }
    }

    /// Wraps parts that are already sorted ascending by `f`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree; debug-asserts sortedness and that each
    /// `f` value matches its point.
    pub fn from_sorted_parts(set: PointSet, f: Vec<f64>) -> Self {
        assert_eq!(set.len(), f.len(), "f values misaligned with points");
        debug_assert!(f.windows(2).all(|w| w[0] <= w[1]), "f values not sorted");
        debug_assert!(
            (0..set.len()).all(|i| (f_value(set.point(i)) - f[i]).abs() < 1e-12),
            "f values inconsistent with coordinates"
        );
        SortedDataset { set, f }
    }

    /// An empty sorted dataset of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        SortedDataset { set: PointSet::new(dim), f: Vec::new() }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Dimensionality of the full space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.set.dim()
    }

    /// The underlying point set (sorted by `f`).
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.set
    }

    /// `f` value of the `i`-th point.
    #[inline]
    pub fn f(&self, i: usize) -> f64 {
        self.f[i]
    }

    /// All `f` values, ascending.
    #[inline]
    pub fn f_values(&self) -> &[f64] {
        &self.f
    }

    /// Bytes this dataset occupies on the wire (ids + coordinates; `f` is
    /// recomputable and not shipped).
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        self.set.wire_bytes()
    }

    /// Runs Algorithm 1 on this dataset. See [`threshold_skyline`].
    pub fn subspace_skyline(
        &self,
        u: Subspace,
        flavour: Dominance,
        initial_threshold: f64,
        index: DominanceIndex,
    ) -> ThresholdOutcome {
        threshold_skyline(self, u, flavour, initial_threshold, index)
    }
}

/// How Algorithm 1/2 test candidates against the accumulated skyline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominanceIndex {
    /// Plain scan over the current skyline points.
    Linear,
    /// Main-memory R-tree over the `U`-projections (Section 5.2.1).
    RTree,
}

/// Operation counts of one Algorithm 1/2 run; fed to the network cost
/// model so simulated computation time tracks real kernel work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pairwise dominance tests (or R-tree point visits standing in for
    /// them).
    pub dominance_tests: u64,
    /// Points consumed from the sorted input before termination.
    pub points_scanned: u64,
    /// Points never examined because the threshold cut the scan short.
    pub pruned_by_threshold: u64,
}

impl KernelStats {
    /// Accumulates another run's counts.
    pub fn absorb(&mut self, other: KernelStats) {
        self.dominance_tests += other.dominance_tests;
        self.points_scanned += other.points_scanned;
        self.pruned_by_threshold += other.pruned_by_threshold;
    }
}

/// Result of Algorithm 1 or Algorithm 2.
#[derive(Clone, Debug)]
pub struct ThresholdOutcome {
    /// The skyline found, still sorted ascending by `f`.
    pub result: SortedDataset,
    /// Final threshold: `min(initial, min over result of dist_U)`. This is
    /// the `t` SKYPEER attaches to the query it forwards.
    pub threshold: f64,
    /// Operation counts.
    pub stats: KernelStats,
}

/// The mutable skyline window shared by Algorithm 1 and Algorithm 2:
/// accepted entries in arrival (= `f`) order, with dominated entries
/// tombstoned, and an optional R-tree over the `U`-projections.
pub(crate) struct Window {
    u: Subspace,
    flavour: Dominance,
    /// Accepted entries in arrival order: coordinates and ids in one flat
    /// set, `f` values and liveness alongside.
    entries: PointSet,
    f: Vec<f64>,
    alive: Vec<bool>,
    tree: Option<RTree>,
    /// The candidate's `U`-projection and the two window-query boxes over
    /// it, `[0, proj]` (dominators) and `[proj, ∞)` (victims), reused
    /// across offers.
    proj: Vec<f64>,
    dominators: Rect,
    victims: Rect,
    /// Eviction victims' slots, and a buffer for a victim's projection.
    victim_slots: Vec<u64>,
    victim_proj: Vec<f64>,
    stats: KernelStats,
}

impl Window {
    pub(crate) fn new(dim: usize, u: Subspace, flavour: Dominance, index: DominanceIndex) -> Self {
        let tree = match index {
            DominanceIndex::Linear => None,
            DominanceIndex::RTree => Some(RTree::new(u.k())),
        };
        let origin = vec![0.0; u.k()];
        Window {
            u,
            flavour,
            entries: PointSet::new(dim),
            f: Vec::new(),
            alive: Vec::new(),
            tree,
            proj: Vec::new(),
            dominators: Rect::from_origin(&origin),
            victims: Rect::to_infinity(&origin),
            victim_slots: Vec::new(),
            victim_proj: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// Offers a candidate. Returns whether it was accepted into the window
    /// (evicting any entries it dominates). Candidates must arrive in
    /// ascending `f` order.
    pub(crate) fn offer(&mut self, coords: &[f64], id: u64, f: f64) -> bool {
        debug_assert!(self.f.last().is_none_or(|&last| last <= f), "offers out of f order");
        self.stats.points_scanned += 1;
        match &mut self.tree {
            Some(tree) => {
                self.u.project_into(coords, &mut self.proj);
                let flavour = self.flavour;
                let proj = &self.proj;
                // Window query over [0, candidate]: is any stored point a
                // dominator? Each visited point counts as one dominance
                // test, so the cost model sees the tree's real work.
                let mut visited = 0u64;
                let mut dominated = false;
                self.dominators.set_from_origin(proj);
                tree.window(&self.dominators, |c, _| {
                    visited += 1;
                    let dom = match flavour {
                        // Inside the box already means <= everywhere.
                        Dominance::Standard => c.iter().zip(proj).any(|(a, b)| a < b),
                        Dominance::Extended => c.iter().zip(proj).all(|(a, b)| a < b),
                    };
                    if dom {
                        dominated = true;
                    }
                    !dominated
                });
                if dominated {
                    self.stats.dominance_tests += visited;
                    return false;
                }
                // Window query over [candidate, ∞): evict everything the
                // candidate dominates. When U = D the window is provably
                // empty once the last stored f is below the candidate's:
                // a point >= the candidate on every dimension has
                // f >= f(candidate), and every stored f is <= the last.
                let full_space = self.u.k() == coords.len();
                if !(full_space && self.f.last().is_some_and(|&last| last < f)) {
                    self.victims.set_to_infinity(proj);
                    let victim_slots = &mut self.victim_slots;
                    tree.window(&self.victims, |c, slot| {
                        visited += 1;
                        let dom = match flavour {
                            Dominance::Standard => c.iter().zip(proj).any(|(a, b)| a > b),
                            Dominance::Extended => c.iter().zip(proj).all(|(a, b)| a > b),
                        };
                        if dom {
                            victim_slots.push(slot);
                        }
                        true
                    });
                }
                self.stats.dominance_tests += visited;
                for slot in self.victim_slots.drain(..) {
                    let slot_ix = slot as usize;
                    self.u.project_into(self.entries.point(slot_ix), &mut self.victim_proj);
                    let removed = tree.remove(&self.victim_proj, slot);
                    debug_assert!(removed, "victim vanished from the window tree");
                    self.alive[slot_ix] = false;
                }
                tree.insert(&self.proj, self.f.len() as u64);
            }
            None => {
                for i in 0..self.f.len() {
                    if !self.alive[i] {
                        continue;
                    }
                    self.stats.dominance_tests += 1;
                    if self.flavour.dominates(self.entries.point(i), coords, self.u) {
                        return false;
                    }
                }
                for i in 0..self.f.len() {
                    if !self.alive[i] {
                        continue;
                    }
                    self.stats.dominance_tests += 1;
                    if self.flavour.dominates(coords, self.entries.point(i), self.u) {
                        self.alive[i] = false;
                    }
                }
            }
        }
        self.entries.push(coords, id);
        self.f.push(f);
        self.alive.push(true);
        true
    }

    /// Finalizes into an `f`-sorted dataset of the surviving entries. The
    /// survivors are copied out at their exact size: results can live as
    /// long as the network (super-peer stores), and the window's own
    /// buffers carry up to twice their length in spare capacity.
    pub(crate) fn into_outcome(self, threshold: f64) -> ThresholdOutcome {
        let keep: Vec<usize> = (0..self.f.len()).filter(|&i| self.alive[i]).collect();
        let f = keep.iter().map(|&i| self.f[i]).collect();
        ThresholdOutcome {
            result: SortedDataset::from_sorted_parts(self.entries.gather(&keep), f),
            threshold,
            stats: self.stats,
        }
    }
}

/// **Algorithm 1** — threshold-based subspace skyline over `data` (which
/// must be `f`-sorted, as [`SortedDataset`] guarantees).
///
/// `initial_threshold` seeds the scan-termination threshold; pass
/// `f64::INFINITY` when no upstream threshold is known. The scan stops at
/// the first point with `f(p) > threshold` (strictly — equality-tied points
/// still enter, see the module docs of [`crate::mapping`]).
pub fn threshold_skyline(
    data: &SortedDataset,
    u: Subspace,
    flavour: Dominance,
    initial_threshold: f64,
    index: DominanceIndex,
) -> ThresholdOutcome {
    skypeer_obs::scope!("skyline::threshold_skyline");
    let mut window = Window::new(data.dim(), u, flavour, index);
    let mut threshold = initial_threshold;
    let mut consumed = 0usize;
    for i in 0..data.len() {
        if data.f(i) > threshold {
            break;
        }
        consumed = i + 1;
        let coords = data.points().point(i);
        if window.offer(coords, data.points().id(i), data.f(i)) {
            let d = dist(coords, u);
            if d < threshold {
                threshold = d;
            }
        }
    }
    window.stats.pruned_by_threshold = (data.len() - consumed) as u64;
    window.into_outcome(threshold)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::brute;

    fn dataset(rows: &[&[f64]]) -> SortedDataset {
        let mut s = PointSet::new(rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            s.push(r, i as u64);
        }
        SortedDataset::from_set(&s)
    }

    #[test]
    fn from_set_sorts_by_f() {
        let d = dataset(&[&[5.0, 9.0], &[1.0, 8.0], &[3.0, 3.0]]);
        assert_eq!(d.f_values(), &[1.0, 3.0, 5.0]);
        assert_eq!(d.points().id(0), 1);
        assert_eq!(d.points().id(2), 0);
    }

    #[test]
    fn algorithm1_matches_brute_force() {
        let rows: Vec<Vec<f64>> = vec![
            vec![4.0, 1.0, 6.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0, 7.0, 3.0],
            vec![6.0, 6.0, 6.0],
            vec![2.0, 2.0, 2.0],
            vec![0.0, 9.0, 1.0],
            vec![3.0, 3.0, 1.0],
        ];
        let mut s = PointSet::new(3);
        for (i, r) in rows.iter().enumerate() {
            s.push(r, i as u64);
        }
        let sorted = SortedDataset::from_set(&s);
        for u in Subspace::enumerate_all(3) {
            for flavour in [Dominance::Standard, Dominance::Extended] {
                for index in [DominanceIndex::Linear, DominanceIndex::RTree] {
                    let out = threshold_skyline(&sorted, u, flavour, f64::INFINITY, index);
                    let mut got: Vec<u64> =
                        (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        brute::skyline_ids(&s, u, flavour),
                        "U={u} flavour={flavour:?} index={index:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_terminates_scan_early() {
        // Point (1,1) yields threshold 1; all points with f > 1 are pruned.
        let d = dataset(&[&[1.0, 1.0], &[2.0, 9.0], &[3.0, 3.0], &[9.0, 2.0]]);
        let out = threshold_skyline(
            &d,
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.threshold, 1.0);
        assert_eq!(out.stats.pruned_by_threshold, 3);
    }

    #[test]
    fn equality_ties_at_threshold_survive() {
        // p=(2,2) sets threshold 2; q=(2,2) has f=2 == threshold and must
        // be kept (the paper's strict-< loop would drop it).
        let mut s = PointSet::new(2);
        s.push(&[2.0, 2.0], 0);
        s.push(&[2.0, 2.0], 1);
        let d = SortedDataset::from_set(&s);
        let out = threshold_skyline(
            &d,
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        assert_eq!(out.result.len(), 2, "tie at the threshold must not be pruned");
    }

    #[test]
    fn initial_threshold_prunes_everything_far() {
        // An upstream threshold of 0.5 kills a dataset whose smallest f is 1.
        let d = dataset(&[&[1.0, 4.0], &[2.0, 2.0]]);
        let out = threshold_skyline(
            &d,
            Subspace::full(2),
            Dominance::Standard,
            0.5,
            DominanceIndex::Linear,
        );
        assert!(out.result.is_empty());
        assert_eq!(out.threshold, 0.5);
        assert_eq!(out.stats.pruned_by_threshold, 2);
    }

    #[test]
    fn rtree_and_linear_agree_on_result_order() {
        let d = dataset(&[
            &[5.0, 1.0, 2.0],
            &[1.0, 5.0, 2.0],
            &[2.0, 2.0, 2.0],
            &[4.0, 4.0, 0.5],
            &[3.0, 3.0, 3.0],
        ]);
        let u = Subspace::from_dims(&[0, 1]);
        let a =
            threshold_skyline(&d, u, Dominance::Standard, f64::INFINITY, DominanceIndex::Linear);
        let b = threshold_skyline(&d, u, Dominance::Standard, f64::INFINITY, DominanceIndex::RTree);
        assert_eq!(a.result, b.result);
        assert_eq!(a.threshold, b.threshold);
    }

    #[test]
    fn outcome_result_is_f_sorted() {
        let d = dataset(&[&[9.0, 1.0], &[1.0, 9.0], &[5.0, 5.0], &[2.0, 7.0]]);
        let out = threshold_skyline(
            &d,
            Subspace::full(2),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        let f = out.result.f_values();
        assert!(f.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ext_flavour_retains_tied_points() {
        let d = dataset(&[&[1.0, 3.0], &[1.0, 5.0], &[2.0, 6.0]]);
        let out = threshold_skyline(
            &d,
            Subspace::full(2),
            Dominance::Extended,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        // (1,5) ties (1,3) on dim 0 → not ext-dominated; (2,6) is
        // ext-dominated by (1,3).
        assert_eq!(out.result.len(), 2);
    }

    #[test]
    fn empty_dataset() {
        let d = SortedDataset::empty(4);
        let out = threshold_skyline(
            &d,
            Subspace::full(4),
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::RTree,
        );
        assert!(out.result.is_empty());
        assert_eq!(out.threshold, f64::INFINITY);
    }
}

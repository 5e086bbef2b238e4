//! Block-nested-loops skyline (Börzsönyi, Kossmann, Stocker — ICDE'01).
//!
//! The straightforward in-memory formulation: maintain a window of
//! candidate skyline points; each incoming point is compared against the
//! window, evicting dominated candidates and being discarded if dominated
//! itself. This is the engine the *naive* distributed baseline runs — no
//! sorting, no threshold, no early termination.

use crate::dominance::Dominance;
use crate::point::PointSet;
use crate::subspace::Subspace;

/// Statistics of one BNL run, used by the cost model: dominance tests are
/// the dominant kernel cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BnlStats {
    /// Number of pairwise dominance tests performed.
    pub dominance_tests: u64,
    /// Number of points read from the input.
    pub points_scanned: u64,
}

/// Computes the skyline of `set` on `u` under `flavour`, returning indices
/// into `set` in discovery order.
pub fn skyline(set: &PointSet, u: Subspace, flavour: Dominance) -> Vec<usize> {
    skyline_with_stats(set, u, flavour).0
}

/// Like [`skyline`], additionally returning operation counts.
pub fn skyline_with_stats(
    set: &PointSet,
    u: Subspace,
    flavour: Dominance,
) -> (Vec<usize>, BnlStats) {
    skypeer_obs::scope!("skyline::bnl");
    let mut stats = BnlStats::default();
    // The window holds indices of current candidates.
    let mut window: Vec<usize> = Vec::new();
    'outer: for i in 0..set.len() {
        stats.points_scanned += 1;
        let p = set.point(i);
        let mut w = 0;
        while w < window.len() {
            let cand = set.point(window[w]);
            stats.dominance_tests += 1;
            if flavour.dominates(cand, p, u) {
                continue 'outer; // p is dominated: drop it
            }
            stats.dominance_tests += 1;
            if flavour.dominates(p, cand, u) {
                window.swap_remove(w); // candidate evicted, don't advance
            } else {
                w += 1;
            }
        }
        window.push(i);
    }
    (window, stats)
}

/// Skyline identifiers (sorted), convenience wrapper for tests and merges.
pub fn skyline_ids(set: &PointSet, u: Subspace, flavour: Dominance) -> Vec<u64> {
    let mut ids: Vec<u64> = skyline(set, u, flavour).into_iter().map(|i| set.id(i)).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::brute;

    fn sample() -> PointSet {
        let mut s = PointSet::new(3);
        s.push(&[1.0, 5.0, 3.0], 0);
        s.push(&[2.0, 2.0, 2.0], 1);
        s.push(&[3.0, 6.0, 4.0], 2);
        s.push(&[1.0, 5.0, 3.0], 3); // duplicate of 0
        s.push(&[0.5, 9.0, 9.0], 4);
        s
    }

    #[test]
    fn matches_brute_force_full_space() {
        let s = sample();
        let u = Subspace::full(3);
        assert_eq!(
            skyline_ids(&s, u, Dominance::Standard),
            brute::skyline_ids(&s, u, Dominance::Standard)
        );
        assert_eq!(
            skyline_ids(&s, u, Dominance::Extended),
            brute::skyline_ids(&s, u, Dominance::Extended)
        );
    }

    #[test]
    fn matches_brute_force_every_subspace() {
        let s = sample();
        for u in Subspace::enumerate_all(3) {
            assert_eq!(
                skyline_ids(&s, u, Dominance::Standard),
                brute::skyline_ids(&s, u, Dominance::Standard),
                "subspace {u}"
            );
        }
    }

    #[test]
    fn eviction_mid_window_is_handled() {
        // A later point dominating several window entries at once exercises
        // the swap_remove path.
        let mut s = PointSet::new(2);
        s.push(&[5.0, 6.0], 0);
        s.push(&[6.0, 5.0], 1);
        s.push(&[5.5, 5.5], 2);
        s.push(&[1.0, 1.0], 3); // dominates all three
        let u = Subspace::full(2);
        assert_eq!(skyline_ids(&s, u, Dominance::Standard), vec![3]);
    }

    #[test]
    fn stats_are_plausible() {
        let s = sample();
        let (_, stats) = skyline_with_stats(&s, Subspace::full(3), Dominance::Standard);
        assert_eq!(stats.points_scanned, 5);
        assert!(stats.dominance_tests >= 4, "at least one test per non-first point");
    }

    #[test]
    fn empty_input() {
        let s = PointSet::new(2);
        assert!(skyline(&s, Subspace::full(2), Dominance::Standard).is_empty());
    }
}

//! Pinned kernel counts of the full-space preprocessing kernels.
//!
//! `dominance_tests` counts the R-tree points a window visits up to the
//! first dominator, and the analytic cost model turns that count into
//! simulated time. A change to the window or the R-tree that alters the
//! tree's shape, its entry order or any traversal order moves these
//! counts, so they are pinned exactly.
//!
//! Two datasets cover both branches of the eviction window when `U = D`:
//! uniform points, whose `f` values do not tie (after the first offer the
//! window is provably empty and skipped), and points quantised to
//! `{0, 1, 2}`, whose `f` values tie on most offers (the window runs, and
//! under standard dominance it evicts).
//!
//! Churn's cached queries run the window at `k = 6` on a subspace: an
//! ext-merge (Algorithm 2) and a standard refine of an ext-skyline
//! (Algorithm 1). Those shapes are pinned on the same datasets.

use crate::extended::ext_skyline;
use crate::merge::merge_sorted;
use crate::sorted::{threshold_skyline, DominanceIndex, KernelStats, SortedDataset};
use crate::{Dominance, PointSet, Subspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

/// `n_peers` peer datasets of `per_peer` points each, uniform in `[0, 1)`
/// or quantised to `{0, 1, 2}`, with globally unique ids.
fn peers(quantised: bool, n_peers: usize, per_peer: usize, seed: u64) -> Vec<PointSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_peers)
        .map(|p| {
            let mut set = PointSet::new(DIM);
            let mut buf = [0.0; DIM];
            for i in 0..per_peer {
                for v in &mut buf {
                    *v = if quantised { f64::from(rng.gen_range(0u32..3)) } else { rng.gen() };
                }
                set.push(&buf, (p * per_peer + i) as u64);
            }
            set
        })
        .collect()
}

/// The counts of one super-peer's preprocessing: the peers' ext-skylines
/// (summed), the full-space ext-merge of their uploads, the merged
/// store's size, and a full-space standard skyline over the store with
/// its size.
#[derive(Debug, PartialEq)]
struct Counts {
    peer_ext: KernelStats,
    merge: KernelStats,
    stored: usize,
    refine: KernelStats,
    refined: usize,
}

/// The peers' ext-skylines and their summed counts.
fn uploads(peers: &[PointSet]) -> (KernelStats, Vec<SortedDataset>) {
    let mut peer_ext = KernelStats::default();
    let uploads = peers
        .iter()
        .map(|set| {
            let out = ext_skyline(set, DominanceIndex::RTree);
            peer_ext.absorb(out.stats);
            out.result
        })
        .collect();
    (peer_ext, uploads)
}

fn counts(peers: &[PointSet]) -> Counts {
    let (peer_ext, uploads) = uploads(peers);
    let refs: Vec<&SortedDataset> = uploads.iter().collect();
    let full = Subspace::full(DIM);
    let merged =
        merge_sorted(&refs, full, Dominance::Extended, f64::INFINITY, DominanceIndex::RTree);
    let refine = threshold_skyline(
        &merged.result,
        full,
        Dominance::Standard,
        f64::INFINITY,
        DominanceIndex::RTree,
    );
    Counts {
        peer_ext,
        merge: merged.stats,
        stored: merged.result.len(),
        refine: refine.stats,
        refined: refine.result.len(),
    }
}

/// The counts of the `k = 6` shapes over the uploads: the ext-merge on
/// `u` (Algorithm 2) and its size, and a standard refine on `u` of the
/// full-space store (Algorithm 1, as a cache refine or a super-peer's
/// local query runs it) and that skyline's size.
#[derive(Debug, PartialEq)]
struct SubspaceCounts {
    ext_merge: KernelStats,
    merged: usize,
    refine: KernelStats,
    refined: usize,
}

fn subspace_counts(peers: &[PointSet], u: Subspace) -> SubspaceCounts {
    let (_, uploads) = uploads(peers);
    let refs: Vec<&SortedDataset> = uploads.iter().collect();
    let ext = |u| merge_sorted(&refs, u, Dominance::Extended, f64::INFINITY, DominanceIndex::RTree);
    let merged = ext(u);
    let store = ext(Subspace::full(DIM)).result;
    let refine =
        threshold_skyline(&store, u, Dominance::Standard, f64::INFINITY, DominanceIndex::RTree);
    SubspaceCounts {
        ext_merge: merged.stats,
        merged: merged.result.len(),
        refine: refine.stats,
        refined: refine.result.len(),
    }
}

/// The 6-d subspace of the `k = 6` rows.
fn u6() -> Subspace {
    Subspace::from_dims(&[0, 1, 2, 4, 5, 7])
}

fn stats(dominance_tests: u64, points_scanned: u64, pruned_by_threshold: u64) -> KernelStats {
    KernelStats { dominance_tests, points_scanned, pruned_by_threshold }
}

#[test]
fn uniform_full_space_counts_are_pinned() {
    let got = counts(&peers(false, 20, 250, 0x5EED_0001));
    let want = Counts {
        peer_ext: stats(1405, 4954, 46),
        merge: stats(2010, 3548, 1),
        stored: 1538,
        refine: stats(0, 1538, 0),
        refined: 1538,
    };
    assert_eq!(got, want);
}

#[test]
fn quantised_full_space_counts_are_pinned() {
    let got = counts(&peers(true, 10, 200, 0x5EED_0002));
    let want = Counts {
        peer_ext: stats(13447, 2000, 0),
        merge: stats(119389, 1977, 0),
        stored: 1951,
        refine: stats(1932, 1951, 0),
        refined: 47,
    };
    assert_eq!(got, want);
}

#[test]
fn uniform_k6_subspace_counts_are_pinned() {
    let got = subspace_counts(&peers(false, 20, 250, 0x5EED_0001), u6());
    let want = SubspaceCounts {
        ext_merge: stats(2829, 3514, 35),
        merged: 685,
        refine: stats(853, 1538, 0),
        refined: 685,
    };
    assert_eq!(got, want);
}

#[test]
fn quantised_k6_subspace_counts_are_pinned() {
    let got = subspace_counts(&peers(true, 10, 200, 0x5EED_0002), u6());
    let want = SubspaceCounts {
        ext_merge: stats(229770, 1928, 49),
        merged: 1834,
        refine: stats(1941, 1928, 23),
        refined: 3,
    };
    assert_eq!(got, want);
}

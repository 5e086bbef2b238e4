//! The preprocessing phase (Section 5.3).
//!
//! Every peer computes the extended skyline of its local dataset in the
//! full space `D` and uploads it to its super-peer. The super-peer merges
//! the uploads with Algorithm 2 under ext-dominance into a single
//! `f`-sorted store — the only data it ever touches at query time.
//! Observation 4 guarantees the store can answer *any* subspace skyline
//! query exactly.
//!
//! Peer joins are incremental: a new peer's upload is ext-merged with the
//! existing store without reprocessing the other peers' lists.
//!
//! Super-peers preprocess independently, so [`preprocess_network`] builds
//! them in parallel, one worker per available core, and obtains each
//! peer's data inside the worker that needs it. The result does not
//! depend on the worker count.

use std::borrow::Borrow;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use skypeer_skyline::extended::ext_skyline;
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::{Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};

/// A super-peer's query-time state after preprocessing.
///
/// ```
/// use skypeer_core::preprocess::SuperPeerStore;
/// use skypeer_skyline::{Dominance, DominanceIndex, PointSet, Subspace};
///
/// let mut peer = PointSet::new(2);
/// peer.push(&[1.0, 4.0], 0);
/// peer.push(&[2.0, 2.0], 1);
/// peer.push(&[5.0, 5.0], 2); // ext-dominated: never uploaded
/// let store = SuperPeerStore::preprocess(&[peer], 2, DominanceIndex::Linear);
/// assert_eq!(store.store.len(), 2);
/// // The store answers any subspace skyline exactly (Observation 4).
/// let out = store.store.subspace_skyline(
///     Subspace::from_dims(&[1]), Dominance::Standard, f64::INFINITY, DominanceIndex::Linear);
/// assert_eq!(out.result.points().id(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SuperPeerStore {
    /// The ext-skyline of the union of all attached peers' data,
    /// `f`-ascending (the paper's `∪ ext-SKY_Di`). Shared with the nodes
    /// that answer queries from it; a join replaces it.
    pub store: Arc<SortedDataset>,
    /// Total raw points held by the attached peers.
    pub raw_points: usize,
    /// Total points uploaded by peers (Σ local ext-skyline sizes) —
    /// the numerator of `SEL_p`.
    pub uploaded_points: usize,
    /// Bytes uploaded from peers to this super-peer.
    pub uploaded_bytes: u64,
}

impl SuperPeerStore {
    /// An empty store of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        SuperPeerStore {
            store: Arc::new(SortedDataset::empty(dim)),
            raw_points: 0,
            uploaded_points: 0,
            uploaded_bytes: 0,
        }
    }

    /// Builds the store from the attached peers' local datasets: each peer
    /// computes its ext-skyline (Algorithm 1 with ext-dominance), the
    /// super-peer merges the uploads (Algorithm 2 with ext-dominance).
    ///
    /// Peers are taken one at a time, in order, and may be borrowed or
    /// owned: an iterator that generates each peer's data lets that data
    /// go as soon as its upload is computed.
    pub fn preprocess<P: Borrow<PointSet>>(
        peer_sets: impl IntoIterator<Item = P>,
        dim: usize,
        index: DominanceIndex,
    ) -> Self {
        let mut uploads: Vec<SortedDataset> = Vec::new();
        let mut raw_points = 0usize;
        let mut uploaded_points = 0usize;
        let mut uploaded_bytes = 0u64;
        for set in peer_sets {
            let set = set.borrow();
            assert_eq!(set.dim(), dim, "peer data dimensionality mismatch");
            raw_points += set.len();
            let up = ext_skyline(set, index).result;
            uploaded_points += up.len();
            uploaded_bytes += up.wire_bytes();
            uploads.push(up);
        }
        let refs: Vec<&SortedDataset> = uploads.iter().collect();
        let store = if refs.is_empty() {
            SortedDataset::empty(dim)
        } else {
            merge_sorted(&refs, Subspace::full(dim), Dominance::Extended, f64::INFINITY, index)
                .result
        };
        SuperPeerStore { store: Arc::new(store), raw_points, uploaded_points, uploaded_bytes }
    }

    /// Handles a peer join (Section 5.3): ext-merges the newcomer's upload
    /// into the existing store incrementally.
    pub fn join_peer(&mut self, new_peer: &PointSet, index: DominanceIndex) {
        assert_eq!(new_peer.dim(), self.store.dim(), "joining peer dimensionality mismatch");
        let up = ext_skyline(new_peer, index).result;
        self.raw_points += new_peer.len();
        self.uploaded_points += up.len();
        self.uploaded_bytes += up.wire_bytes();
        let merged = merge_sorted(
            &[&*self.store, &up],
            Subspace::full(self.store.dim()),
            Dominance::Extended,
            f64::INFINITY,
            index,
        );
        self.store = Arc::new(merged.result);
    }
}

/// Network-wide preprocessing statistics — the quantities of Figure 3(a).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PreprocessReport {
    /// Total raw points in the network (`n`).
    pub raw_points: usize,
    /// Σ over peers of local ext-skyline size.
    pub uploaded_points: usize,
    /// Σ over super-peers of stored (merged) ext-skyline size.
    pub stored_points: usize,
    /// Total peer → super-peer upload volume in bytes.
    pub uploaded_bytes: u64,
}

impl PreprocessReport {
    /// `SEL_p`: fraction of raw data transmitted from peers to super-peers.
    pub fn sel_p(&self) -> f64 {
        ratio(self.uploaded_points, self.raw_points)
    }

    /// `SEL_sp`: fraction of raw data stored at super-peers after merging.
    pub fn sel_sp(&self) -> f64 {
        ratio(self.stored_points, self.raw_points)
    }

    /// `SEL_sp / SEL_p`: survivor rate of uploaded points at super-peers.
    pub fn sel_ratio(&self) -> f64 {
        ratio(self.stored_points, self.uploaded_points)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Preprocesses a whole network: peer `p` attaches to super-peer
/// `peer_home[p]` and holds the data `peer_data(p)`. Returns per-super-peer
/// stores and the aggregate report.
///
/// One worker per available core takes the next super-peer from a shared
/// counter, fetches its peers' data from `peer_data` in ascending peer
/// order, ext-skylines and ext-merges it, and drops it. `peer_data` may
/// borrow data held elsewhere (`|p| &sets[p]`) or generate it on the spot,
/// so that no more than a few peers' raw data is alive at once. Stores
/// and report are assembled in super-peer order: the result is
/// byte-identical for any worker count.
pub fn preprocess_network<P: Borrow<PointSet>>(
    peer_home: &[usize],
    n_superpeers: usize,
    dim: usize,
    index: DominanceIndex,
    peer_data: impl Fn(usize) -> P + Sync,
) -> (Vec<SuperPeerStore>, PreprocessReport) {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    preprocess_network_on(workers, peer_home, n_superpeers, dim, index, peer_data)
}

/// [`preprocess_network`] on exactly `workers` threads (capped at the
/// super-peer count).
pub(crate) fn preprocess_network_on<P: Borrow<PointSet>>(
    workers: usize,
    peer_home: &[usize],
    n_superpeers: usize,
    dim: usize,
    index: DominanceIndex,
    peer_data: impl Fn(usize) -> P + Sync,
) -> (Vec<SuperPeerStore>, PreprocessReport) {
    assert!(workers > 0, "preprocessing needs at least one worker");
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_superpeers];
    for (peer, &home) in peer_home.iter().enumerate() {
        assert!(home < n_superpeers, "peer assigned to unknown super-peer {home}");
        members[home].push(peer);
    }
    // The counter only hands out super-peer indices, so `Relaxed` is
    // enough: the workers share nothing else mutable, and the built stores
    // come back through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut built = Vec::new();
        loop {
            let sp = next.fetch_add(1, Ordering::Relaxed);
            let Some(peers) = members.get(sp) else { return built };
            let data = peers.iter().map(|&peer| peer_data(peer));
            built.push((sp, SuperPeerStore::preprocess(data, dim, index)));
        }
    };
    let mut slots: Vec<Option<SuperPeerStore>> = (0..n_superpeers).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..workers.min(n_superpeers).max(1)).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            let built = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (sp, store) in built {
                slots[sp] = Some(store);
            }
        }
    });
    let mut report = PreprocessReport::default();
    let stores: Vec<SuperPeerStore> = slots
        .into_iter()
        .map(|slot| {
            let store = slot.expect("every super-peer is built by one worker");
            report.raw_points += store.raw_points;
            report.uploaded_points += store.uploaded_points;
            report.stored_points += store.store.len();
            report.uploaded_bytes += store.uploaded_bytes;
            store
        })
        .collect();
    (stores, report)
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_skyline::brute;

    fn peers() -> Vec<PointSet> {
        // Figure 2's three peers (P_A exactly; P_B, P_C reconstructed).
        let mut a = PointSet::new(4);
        a.push(&[2.0, 2.0, 2.0, 2.0], 1);
        a.push(&[1.0, 3.0, 2.0, 3.0], 2);
        a.push(&[1.0, 3.0, 5.0, 4.0], 3);
        a.push(&[2.0, 3.0, 2.0, 1.0], 4);
        a.push(&[5.0, 2.0, 4.0, 1.0], 5);
        let mut b = PointSet::new(4);
        b.push(&[3.0, 1.0, 1.0, 3.0], 6);
        b.push(&[4.0, 5.0, 4.0, 6.0], 7);
        b.push(&[2.0, 3.0, 3.0, 3.0], 8);
        b.push(&[1.0, 2.0, 3.0, 4.0], 9);
        b.push(&[5.0, 5.0, 5.0, 5.0], 10);
        let mut c = PointSet::new(4);
        c.push(&[5.0, 7.0, 5.0, 8.0], 11);
        c.push(&[7.0, 7.0, 7.0, 5.0], 12);
        c.push(&[7.0, 7.0, 7.0, 7.0], 13);
        c.push(&[1.0, 1.0, 3.0, 4.0], 14);
        c.push(&[6.0, 6.0, 6.0, 4.0], 15);
        vec![a, b, c]
    }

    fn union(sets: &[PointSet]) -> PointSet {
        let mut all = PointSet::new(4);
        for s in sets {
            all.extend_from(s);
        }
        all
    }

    #[test]
    fn store_is_ext_skyline_of_union() {
        let ps = peers();
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        let mut got: Vec<u64> = (0..sp.store.len()).map(|i| sp.store.points().id(i)).collect();
        got.sort_unstable();
        let want = brute::skyline_ids(&union(&ps), Subspace::full(4), Dominance::Extended);
        assert_eq!(got, want);
    }

    #[test]
    fn store_answers_every_subspace_query() {
        let ps = peers();
        let all = union(&ps);
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        for u in Subspace::enumerate_all(4) {
            let out = sp.store.subspace_skyline(
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let mut got: Vec<u64> =
                (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
            got.sort_unstable();
            assert_eq!(got, brute::skyline_ids(&all, u, Dominance::Standard), "subspace {u}");
        }
    }

    #[test]
    fn upload_accounting() {
        let ps = peers();
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        assert_eq!(sp.raw_points, 15);
        assert!(sp.uploaded_points <= 15);
        assert!(sp.store.len() <= sp.uploaded_points);
        assert_eq!(sp.uploaded_bytes, sp.uploaded_points as u64 * (8 + 4 * 8));
    }

    #[test]
    fn incremental_join_equals_batch() {
        let ps = peers();
        let batch = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        let mut inc = SuperPeerStore::preprocess(&ps[..2], 4, DominanceIndex::Linear);
        inc.join_peer(&ps[2], DominanceIndex::Linear);
        let ids = |s: &SortedDataset| {
            let mut v: Vec<u64> = (0..s.len()).map(|i| s.points().id(i)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&batch.store), ids(&inc.store));
        assert_eq!(batch.raw_points, inc.raw_points);
        assert_eq!(batch.uploaded_points, inc.uploaded_points);
    }

    #[test]
    fn empty_network() {
        let sp = SuperPeerStore::preprocess(&[], 3, DominanceIndex::Linear);
        assert!(sp.store.is_empty());
        let (stores, report) =
            preprocess_network(&[], 2, 3, DominanceIndex::Linear, |_| PointSet::new(3));
        assert_eq!(stores.len(), 2);
        assert_eq!(report, PreprocessReport::default());
        assert_eq!(report.sel_p(), 0.0);
    }

    #[test]
    fn network_report_sums_superpeers() {
        let ps = peers();
        let homes = vec![0, 0, 1];
        let (stores, report) = preprocess_network(&homes, 2, 4, DominanceIndex::Linear, |p| &ps[p]);
        assert_eq!(stores.len(), 2);
        assert_eq!(report.raw_points, 15);
        assert_eq!(report.stored_points, stores.iter().map(|s| s.store.len()).sum::<usize>());
        assert!(report.sel_p() > 0.0 && report.sel_p() <= 1.0);
        assert!(report.sel_ratio() <= 1.0);
    }

    /// Every bit of a store as one word string: its report fields, then
    /// each point's id, coordinate bits and `f` bits, in stored order.
    fn store_bits(store: &SuperPeerStore) -> Vec<u64> {
        let mut bits =
            vec![store.raw_points as u64, store.uploaded_points as u64, store.uploaded_bytes];
        for i in 0..store.store.len() {
            bits.push(store.store.points().id(i));
            bits.extend(store.store.points().point(i).iter().map(|v| v.to_bits()));
            bits.push(store.store.f(i).to_bits());
        }
        bits
    }

    /// Builds the network on 1, 2 and 5 workers and checks each build
    /// against the per-super-peer serial build, bit for bit.
    fn assert_worker_count_invariant(
        spec: DatasetSpec,
        index: DominanceIndex,
        homes: &[usize],
        n_sp: usize,
    ) {
        let sets: Vec<PointSet> =
            homes.iter().enumerate().map(|(p, &home)| spec.generate_peer(p, home)).collect();
        let serial: Vec<SuperPeerStore> = (0..n_sp)
            .map(|sp| {
                let mine = sets.iter().zip(homes).filter(|(_, &home)| home == sp).map(|(s, _)| s);
                SuperPeerStore::preprocess(mine, spec.dim, index)
            })
            .collect();
        let want: Vec<_> = serial.iter().map(store_bits).collect();
        let mut want_report = PreprocessReport::default();
        for s in &serial {
            want_report.raw_points += s.raw_points;
            want_report.uploaded_points += s.uploaded_points;
            want_report.stored_points += s.store.len();
            want_report.uploaded_bytes += s.uploaded_bytes;
        }
        for workers in [1, 2, 5] {
            let (stores, report) =
                preprocess_network_on(workers, homes, n_sp, spec.dim, index, |p| {
                    spec.generate_peer(p, homes[p])
                });
            let got: Vec<_> = stores.iter().map(store_bits).collect();
            assert_eq!(got, want, "stores differ on {workers} workers");
            assert_eq!(report, want_report, "report differs on {workers} workers");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_for_any_worker_count() {
        // R-tree index on uniform data; super-peer 3 hosts no peer.
        let uniform =
            DatasetSpec { dim: 6, points_per_peer: 80, kind: DatasetKind::Uniform, seed: 21 };
        let homes: Vec<usize> = (0..23).map(|p| [0, 1, 2, 4, 5][p % 5]).collect();
        assert_worker_count_invariant(uniform, DominanceIndex::RTree, &homes, 6);
        // Linear index on anticorrelated data (large stores).
        let anti =
            DatasetSpec { dim: 4, points_per_peer: 40, kind: DatasetKind::Anticorrelated, seed: 8 };
        let homes: Vec<usize> = (0..12).map(|p| p % 3).collect();
        assert_worker_count_invariant(anti, DominanceIndex::Linear, &homes, 3);
        // More workers (5) than super-peers (2).
        let clustered = DatasetSpec {
            dim: 5,
            points_per_peer: 50,
            kind: DatasetKind::Clustered { centroids_per_superpeer: 2 },
            seed: 3,
        };
        assert_worker_count_invariant(clustered, DominanceIndex::RTree, &[1, 0, 1, 1, 0, 1], 2);
    }

    #[test]
    fn selectivity_monotonicity() {
        // SEL_sp ≤ SEL_p always (merging can only discard).
        let ps = peers();
        let (_, report) = preprocess_network(&[0, 0, 0], 1, 4, DominanceIndex::Linear, |p| &ps[p]);
        assert!(report.sel_sp() <= report.sel_p());
    }
}

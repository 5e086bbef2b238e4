//! Exactness oracles.
//!
//! The paper's central claim is that SKYPEER "provably returns exact
//! answers to arbitrary subspace skyline computations". These helpers give
//! tests and examples a ground truth independent of the protocol: the
//! skyline computed centrally over the *raw* union of every peer's data
//! (brute force for small inputs, sorted-threshold otherwise).

use skypeer_data::DatasetSpec;
use skypeer_skyline::sorted::threshold_skyline;
use skypeer_skyline::{brute, Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};

/// Rebuilds the full global dataset of a generated network (all peers'
/// raw points). Memory scales with `n_peers × points_per_peer`; use for
/// verification-sized networks only.
pub fn global_dataset(spec: &DatasetSpec, peer_home: &[usize]) -> PointSet {
    let mut all = PointSet::new(spec.dim);
    for (peer, &home) in peer_home.iter().enumerate() {
        all.extend_from(&spec.generate_peer(peer, home));
    }
    all
}

/// The exact subspace skyline of an arbitrary point set, as sorted ids.
/// Uses the O(n²) oracle below `cutoff` points, Algorithm 1 above it, on
/// the linear dominance window: the oracle shares no code with the R-tree
/// it checks.
pub fn exact_skyline_ids(set: &PointSet, u: Subspace, cutoff: usize) -> Vec<u64> {
    if set.len() <= cutoff {
        brute::skyline_ids(set, u, Dominance::Standard)
    } else {
        let sorted = SortedDataset::from_set(set);
        let out = threshold_skyline(
            &sorted,
            u,
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        let mut ids: Vec<u64> = (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::engine::{EngineConfig, SkypeerEngine};
    use crate::variants::Variant;
    use skypeer_data::{DatasetKind, Query, WorkloadSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;

    /// End-to-end exactness against the *raw data* oracle (not just the
    /// merged-store oracle the engine itself uses).
    #[test]
    fn distributed_answers_match_raw_data_oracle() {
        let n_superpeers = 5;
        let cfg = EngineConfig {
            n_peers: 15,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 5,
                points_per_peer: 40,
                kind: DatasetKind::Clustered { centroids_per_superpeer: 2 },
                seed: 77,
            },
            topology: TopologySpec::paper_default(n_superpeers, 78),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: crate::engine::RoutingMode::Flood,
        };
        let engine = SkypeerEngine::build(cfg);
        let peer_home = engine.topology().assign_peers(15);
        let all = global_dataset(&cfg.dataset, &peer_home);

        let workload = WorkloadSpec { dim: 5, k: 2, queries: 6, n_superpeers, seed: 9 };
        for q in workload.generate() {
            let want = exact_skyline_ids(&all, q.subspace, usize::MAX);
            for variant in Variant::ALL {
                let got = engine.run_query(q, variant);
                assert_eq!(got.result_ids, want, "query {q:?} variant {variant}");
            }
        }
    }

    #[test]
    fn oracle_consistent_above_and_below_cutoff() {
        let spec =
            DatasetSpec { dim: 3, points_per_peer: 120, kind: DatasetKind::Uniform, seed: 5 };
        let set = spec.generate_peer(0, 0);
        let u = Subspace::from_dims(&[0, 2]);
        assert_eq!(
            exact_skyline_ids(&set, u, usize::MAX),
            exact_skyline_ids(&set, u, 0),
            "brute force and Algorithm 1 oracles must agree"
        );
    }

    #[test]
    fn global_dataset_covers_all_peers() {
        let spec = DatasetSpec { dim: 2, points_per_peer: 10, kind: DatasetKind::Uniform, seed: 1 };
        let all = global_dataset(&spec, &[0, 1, 0]);
        assert_eq!(all.len(), 30);
        let _ = Query { subspace: Subspace::full(2), initiator: 0 }; // type sanity
    }
}

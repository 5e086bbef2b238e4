//! Randomized whole-system stress: networks of varying shape, skewed data
//! placement, both dominance indexes, and long mixed scenarios — everything
//! must stay exact.

use skypeer::core::engine::{EngineConfig, SkypeerEngine};
use skypeer::core::node::{InitQuery, SuperPeerNode};
use skypeer::core::preprocess::SuperPeerStore;
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec, WorkloadSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::{LinkModel, Sim};
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::{brute, Dominance, DominanceIndex, PointSet, Subspace};
use std::sync::Arc;

/// Skewed placement: even with 80% of the data on one super-peer, every
/// variant stays exact under either dominance index.
#[test]
fn skewed_data_placement_stays_exact() {
    let n_sp = 6;
    let topo = TopologySpec::paper_default(n_sp, 3).generate();
    let spec = DatasetSpec { dim: 4, points_per_peer: 40, kind: DatasetKind::Uniform, seed: 9 };
    let homes = topo.assign_peers_skewed(30, 1.5, 4);
    let mut all = PointSet::new(4);
    let mut grouped: Vec<Vec<PointSet>> = vec![Vec::new(); n_sp];
    for (peer, &home) in homes.iter().enumerate() {
        let set = spec.generate_peer(peer, home);
        all.extend_from(&set);
        grouped[home].push(set);
    }
    let stores: Vec<Arc<_>> = grouped
        .iter()
        .map(|sets| SuperPeerStore::preprocess(sets, 4, DominanceIndex::RTree).store)
        .collect();
    let u = Subspace::from_dims(&[0, 2]);
    let want = brute::skyline_ids(&all, u, Dominance::Standard);
    for index in [DominanceIndex::Linear, DominanceIndex::RTree] {
        for variant in Variant::ALL {
            let nodes: Vec<SuperPeerNode> = (0..n_sp)
                .map(|sp| {
                    let init = (sp == 1).then_some(InitQuery::standard(1, u, variant));
                    let store = Arc::clone(&stores[sp]);
                    SuperPeerNode::new(sp, topo.neighbors(sp).to_vec(), store, index, init)
                })
                .collect();
            let out = Sim::new(nodes, LinkModel::paper_4kbps(), CostModel::default()).run(1);
            let answer =
                out.nodes.into_iter().nth(1).expect("initiator").into_outcome().expect("done");
            let mut got: Vec<u64> =
                (0..answer.result.len()).map(|i| answer.result.points().id(i)).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{variant} on skewed placement, {index:?} index");
        }
    }
}

/// The dominance index is a performance choice only: node-level runs
/// under either index answer exactly what the engine does, across a
/// workload.
#[test]
fn index_choice_is_transparent() {
    let n_superpeers = 6;
    let cfg = EngineConfig {
        n_peers: 24,
        n_superpeers,
        dataset: DatasetSpec { dim: 6, points_per_peer: 50, kind: DatasetKind::Uniform, seed: 12 },
        topology: TopologySpec::paper_default(n_superpeers, 13),
        index: DominanceIndex::RTree,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    };
    let engine = SkypeerEngine::build(cfg);
    // Drive each index directly at node level over the engine's stores.
    let workload = WorkloadSpec { dim: 6, k: 3, queries: 5, n_superpeers, seed: 7 }.generate();
    for q in &workload {
        let fixed = engine.run_query(*q, Variant::Ftpm);
        for index in [DominanceIndex::Linear, DominanceIndex::RTree] {
            let nodes: Vec<SuperPeerNode> = (0..n_superpeers)
                .map(|sp| {
                    let init = (sp == q.initiator).then_some(InitQuery::standard(
                        77,
                        q.subspace,
                        Variant::Ftpm,
                    ));
                    SuperPeerNode::new(
                        sp,
                        engine.topology().neighbors(sp).to_vec(),
                        Arc::new(engine.store(sp).clone()),
                        index,
                        init,
                    )
                })
                .collect();
            let out =
                Sim::new(nodes, LinkModel::paper_4kbps(), CostModel::default()).run(q.initiator);
            let answer = out
                .nodes
                .into_iter()
                .nth(q.initiator)
                .expect("initiator")
                .into_outcome()
                .expect("done");
            let mut got: Vec<u64> =
                (0..answer.result.len()).map(|i| answer.result.points().id(i)).collect();
            got.sort_unstable();
            assert_eq!(got, fixed.result_ids, "{index:?} index changed the answer for {q:?}");
        }
    }
}

/// A long, deterministic pseudo-random gauntlet: 40 queries across
/// dataset kinds, initiators, subspaces, and variants on one engine each.
#[test]
fn long_mixed_gauntlet() {
    let kinds = [
        DatasetKind::Uniform,
        DatasetKind::Clustered { centroids_per_superpeer: 2 },
        DatasetKind::Correlated,
        DatasetKind::Anticorrelated,
    ];
    for (ki, kind) in kinds.into_iter().enumerate() {
        let n_superpeers = 6;
        let cfg = EngineConfig {
            n_peers: 18,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 25, kind, seed: ki as u64 },
            topology: TopologySpec::paper_default(n_superpeers, 99 + ki as u64),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: skypeer_core::engine::RoutingMode::Flood,
        };
        let engine = SkypeerEngine::build(cfg);
        let workload =
            WorkloadSpec { dim: 4, k: 2, queries: 10, n_superpeers, seed: 1000 + ki as u64 }
                .generate();
        for (i, q) in workload.iter().enumerate() {
            let variant = Variant::ALL[i % Variant::ALL.len()];
            let out = engine.run_query(*q, variant);
            assert_eq!(
                out.result_ids,
                engine.centralized_skyline(q.subspace),
                "kind {kind:?} query {i} variant {variant}"
            );
            assert!(out.complete);
        }
    }
}

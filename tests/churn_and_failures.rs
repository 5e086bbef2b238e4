//! Peer churn (joins) and failure injection.
//!
//! The paper handles peer joins incrementally (Section 5.3) and leaves
//! failures to future work; these tests pin down both what the
//! implementation guarantees (join-order independence of the store) and
//! what it deliberately does not (loss tolerance).

use skypeer::core::node::{InitQuery, SuperPeerNode};
use skypeer::core::preprocess::SuperPeerStore;
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::{LinkModel, Sim};
use skypeer::netsim::topology::Topology;
use skypeer::skyline::{DominanceIndex, Subspace};
use std::sync::Arc;

fn peer_sets(n: usize, seed: u64) -> Vec<skypeer::skyline::PointSet> {
    let spec = DatasetSpec { dim: 4, points_per_peer: 40, kind: DatasetKind::Uniform, seed };
    (0..n).map(|p| spec.generate_peer(p, 0)).collect()
}

fn store_ids(store: &SuperPeerStore) -> Vec<u64> {
    let mut v: Vec<u64> = (0..store.store.len()).map(|i| store.store.points().id(i)).collect();
    v.sort_unstable();
    v
}

#[test]
fn join_order_does_not_change_the_store() {
    let peers = peer_sets(6, 3);
    let batch = SuperPeerStore::preprocess(&peers, 4, DominanceIndex::Linear);
    // Join one at a time, in two different orders.
    let mut fwd = SuperPeerStore::empty(4);
    for p in &peers {
        fwd.join_peer(p, DominanceIndex::Linear);
    }
    let mut rev = SuperPeerStore::empty(4);
    for p in peers.iter().rev() {
        rev.join_peer(p, DominanceIndex::Linear);
    }
    assert_eq!(store_ids(&batch), store_ids(&fwd));
    assert_eq!(store_ids(&batch), store_ids(&rev));
}

#[test]
fn queries_stay_exact_after_joins() {
    let peers = peer_sets(8, 17);
    let mut store = SuperPeerStore::preprocess(&peers[..4], 4, DominanceIndex::Linear);
    for p in &peers[4..] {
        store.join_peer(p, DominanceIndex::Linear);
    }
    let mut all = skypeer::skyline::PointSet::new(4);
    for p in &peers {
        all.extend_from(p);
    }
    for u in [Subspace::from_dims(&[0, 1]), Subspace::full(4)] {
        let out = store.store.subspace_skyline(
            u,
            skypeer::skyline::Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        let mut got: Vec<u64> = (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            skypeer::skyline::brute::skyline_ids(&all, u, skypeer::skyline::Dominance::Standard)
        );
    }
}

/// Builds protocol nodes over an explicit topology for failure tests.
fn make_nodes(
    topo: &Topology,
    stores: &[Arc<skypeer::skyline::SortedDataset>],
    initiator: usize,
    variant: Variant,
) -> Vec<SuperPeerNode> {
    (0..topo.len())
        .map(|sp| {
            let init = (sp == initiator).then_some(InitQuery::standard(
                1,
                Subspace::from_dims(&[0, 1]),
                variant,
            ));
            SuperPeerNode::new(
                sp,
                topo.neighbors(sp).to_vec(),
                Arc::clone(&stores[sp]),
                DominanceIndex::Linear,
                init,
            )
        })
        .collect()
}

fn line_stores(n: usize) -> Vec<Arc<skypeer::skyline::SortedDataset>> {
    peer_sets(n, 50)
        .iter()
        .map(|p| {
            SuperPeerStore::preprocess(std::slice::from_ref(p), 4, DominanceIndex::Linear).store
        })
        .collect()
}

#[test]
fn lost_answer_stalls_the_query_as_documented() {
    // SKYPEER assumes reliable links (failures are the paper's future
    // work). Dropping a child's answer must stall the query rather than
    // silently return a wrong result.
    let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
    let stores = line_stores(3);
    let nodes = make_nodes(&topo, &stores, 0, Variant::Ftpm);
    let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default())
        .with_delivery_hook(|from, to, msg| (from != 2 || to != 1).then_some(msg)) // sever 2 → 1
        .run(0);
    assert!(out.stats.finished_at.is_none(), "query must not complete with a lost subtree");
    assert!(out.stats.dropped > 0);
}

#[test]
fn lost_query_forward_also_stalls() {
    let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
    let stores = line_stores(3);
    let nodes = make_nodes(&topo, &stores, 0, Variant::Rtfm);
    let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default())
        .with_delivery_hook(|from, to, msg| (from != 1 || to != 2).then_some(msg))
        .run(0);
    assert!(out.stats.finished_at.is_none());
}

#[test]
fn unaffected_links_still_deliver_exact_results() {
    // Drops on a link that the spanning tree never uses must be harmless.
    let topo = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]); // star
    let stores = line_stores(4);
    let want = {
        let nodes = make_nodes(&topo, &stores, 0, Variant::Ftfm);
        let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(0);
        let mut ids: Vec<u64> = {
            let r = out
                .nodes
                .into_iter()
                .next()
                .expect("node 0")
                .into_outcome()
                .expect("result")
                .result;
            (0..r.len()).map(|i| r.points().id(i)).collect()
        };
        ids.sort_unstable();
        ids
    };
    let nodes = make_nodes(&topo, &stores, 0, Variant::Ftfm);
    let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default())
        .with_delivery_hook(|from, to, msg| (from != 2 || to != 3).then_some(msg)) // not a link
        .run(0);
    assert!(out.stats.finished_at.is_some());
    let mut ids: Vec<u64> = {
        let r =
            out.nodes.into_iter().next().expect("node 0").into_outcome().expect("result").result;
        (0..r.len()).map(|i| r.points().id(i)).collect()
    };
    ids.sort_unstable();
    assert_eq!(ids, want);
}

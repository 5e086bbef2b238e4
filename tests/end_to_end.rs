//! End-to-end integration: generate → partition → preprocess → query on
//! the DES and the live runtime → verify exactness against the raw data.

use skypeer::core::engine::{EngineConfig, SkypeerEngine};
use skypeer::core::live::run_query_live;
use skypeer::core::verify::{exact_skyline_ids, global_dataset};
use skypeer::core::{QueryRequest, Variant};
use skypeer::data::{DatasetKind, DatasetSpec, Query, WorkloadSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::{Dominance, DominanceIndex, Subspace};
use std::sync::Arc;
use std::time::Duration;

fn config(kind: DatasetKind, dim: usize, n_peers: usize, seed: u64) -> EngineConfig {
    let n_superpeers = (n_peers / 4).max(6);
    EngineConfig {
        n_peers,
        n_superpeers,
        dataset: DatasetSpec { dim, points_per_peer: 30, kind, seed },
        topology: TopologySpec::paper_default(n_superpeers, seed ^ 0xF00D),
        index: DominanceIndex::RTree,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    }
}

#[test]
fn uniform_network_all_variants_exact() {
    let cfg = config(DatasetKind::Uniform, 5, 32, 11);
    let engine = SkypeerEngine::build(cfg);
    let all = global_dataset(&cfg.dataset, &engine.topology().assign_peers(cfg.n_peers));
    let workload =
        WorkloadSpec { dim: 5, k: 3, queries: 8, n_superpeers: cfg.n_superpeers, seed: 21 }
            .generate();
    for q in &workload {
        let want = exact_skyline_ids(&all, q.subspace, 2000);
        for variant in Variant::ALL {
            let got = engine.run_query(*q, variant);
            assert_eq!(got.result_ids, want, "query {q:?} variant {variant}");
        }
    }
}

#[test]
fn clustered_network_exact_and_rt_wins_on_volume() {
    let cfg = config(DatasetKind::Clustered { centroids_per_superpeer: 1 }, 3, 32, 5);
    let engine = SkypeerEngine::build(cfg);
    let all = global_dataset(&cfg.dataset, &engine.topology().assign_peers(cfg.n_peers));
    // Global skyline queries, as the paper does for its clustered study.
    let q = Query { subspace: Subspace::full(3), initiator: 2 };
    let want = exact_skyline_ids(&all, q.subspace, 2000);
    let ft = engine.run_query(q, Variant::Ftfm);
    let rt = engine.run_query(q, Variant::Rtfm);
    assert_eq!(ft.result_ids, want);
    assert_eq!(rt.result_ids, want);
    // Refined thresholds can only tighten pruning: never more volume.
    assert!(
        rt.volume_bytes <= ft.volume_bytes,
        "RTFM volume {} exceeds FTFM {}",
        rt.volume_bytes,
        ft.volume_bytes
    );
}

#[test]
fn anticorrelated_stress_is_exact() {
    // Anticorrelated data has enormous skylines — the adversarial case for
    // threshold pruning (thresholds stay high, little is pruned).
    let cfg = config(DatasetKind::Anticorrelated, 4, 24, 9);
    let engine = SkypeerEngine::build(cfg);
    let all = global_dataset(&cfg.dataset, &engine.topology().assign_peers(cfg.n_peers));
    for u in [Subspace::from_dims(&[0, 1]), Subspace::full(4)] {
        let want = exact_skyline_ids(&all, u, usize::MAX);
        let q = Query { subspace: u, initiator: 0 };
        for variant in [Variant::Ftpm, Variant::Naive] {
            assert_eq!(engine.run_query(q, variant).result_ids, want, "U {u} {variant}");
        }
    }
}

/// The live runtime is the one path where the codec moves real bytes, so
/// its answers must equal the DES's in both dominance flavours.
#[test]
fn des_and_live_agree_for_every_variant() {
    let cfg = config(DatasetKind::Uniform, 4, 24, 33);
    let engine = SkypeerEngine::build(cfg);
    let stores: Vec<Arc<_>> =
        (0..cfg.n_superpeers).map(|sp| Arc::new(engine.store(sp).clone())).collect();
    let timeout = Duration::from_secs(30);
    for (dims, initiator) in [(&[0, 2][..], 1), (&[1, 3], 4), (&[0, 1, 3], 5)] {
        let q = Query { subspace: Subspace::from_dims(dims), initiator };
        for variant in Variant::ALL {
            let (topo, index) = (engine.topology(), cfg.index);
            let live = |flavour| {
                let u = q.subspace;
                run_query_live(
                    topo, &stores, u, initiator, variant, flavour, index, timeout, None, None,
                )
            };
            let ext =
                QueryRequest { flavour: Dominance::Extended, ..QueryRequest::new(q, variant) };
            for (flavour, des, live) in [
                ("standard", engine.run_query(q, variant), live(Dominance::Standard)),
                ("extended", engine.execute(&ext, None), live(Dominance::Extended)),
            ] {
                let live = live.unwrap_or_else(|| panic!("live {flavour} {variant} {q:?} hung"));
                assert!(des.complete && live.complete, "{flavour} {variant} {q:?}");
                assert_eq!(des.result_ids, live.result_ids, "{flavour} {variant} {q:?}");
            }
        }
    }
}

#[test]
fn engine_rebuild_is_deterministic() {
    let cfg = config(DatasetKind::Uniform, 5, 20, 77);
    let a = SkypeerEngine::build(cfg);
    let b = SkypeerEngine::build(cfg);
    assert_eq!(a.preprocess_report(), b.preprocess_report());
    let q = Query { subspace: Subspace::from_dims(&[1, 3]), initiator: 0 };
    let oa = a.run_query(q, Variant::Rtpm);
    let ob = b.run_query(q, Variant::Rtpm);
    assert_eq!(oa.result_ids, ob.result_ids);
    assert_eq!(oa.total_time_ns, ob.total_time_ns);
    assert_eq!(oa.volume_bytes, ob.volume_bytes);
    assert_eq!(oa.messages, ob.messages);
}

#[test]
fn linear_and_rtree_indexes_agree_end_to_end() {
    let mut cfg = config(DatasetKind::Uniform, 5, 24, 13);
    let engine_rtree = SkypeerEngine::build(cfg);
    cfg.index = DominanceIndex::Linear;
    let engine_linear = SkypeerEngine::build(cfg);
    let workload =
        WorkloadSpec { dim: 5, k: 2, queries: 5, n_superpeers: cfg.n_superpeers, seed: 2 }
            .generate();
    for q in &workload {
        assert_eq!(
            engine_rtree.run_query(*q, Variant::Ftpm).result_ids,
            engine_linear.run_query(*q, Variant::Ftpm).result_ids,
            "dominance index changed the answer for {q:?}"
        );
    }
}

#[test]
fn one_dimensional_subspace_returns_minima() {
    let cfg = config(DatasetKind::Uniform, 5, 20, 55);
    let engine = SkypeerEngine::build(cfg);
    let all = global_dataset(&cfg.dataset, &engine.topology().assign_peers(cfg.n_peers));
    for d in 0..5 {
        let u = Subspace::from_dims(&[d]);
        let q = Query { subspace: u, initiator: 0 };
        let got = engine.run_query(q, Variant::Ftfm);
        // The 1-d skyline is every point attaining the global minimum.
        let min = (0..all.len()).map(|i| all.point(i)[d]).fold(f64::INFINITY, f64::min);
        let mut want: Vec<u64> =
            (0..all.len()).filter(|&i| all.point(i)[d] == min).map(|i| all.id(i)).collect();
        want.sort_unstable();
        assert_eq!(got.result_ids, want, "dimension {d}");
    }
}

#[test]
fn spanning_tree_routing_is_exact_and_leaner() {
    let mut cfg = config(DatasetKind::Uniform, 5, 32, 19);
    let flood_engine = SkypeerEngine::build(cfg);
    cfg.routing = skypeer_core::engine::RoutingMode::SpanningTree;
    let tree_engine = SkypeerEngine::build(cfg);
    let workload =
        WorkloadSpec { dim: 5, k: 3, queries: 6, n_superpeers: cfg.n_superpeers, seed: 44 }
            .generate();
    for q in &workload {
        for variant in [Variant::Ftfm, Variant::Ftpm, Variant::Rtpm, Variant::Naive] {
            let flood = flood_engine.run_query(*q, variant);
            let tree = tree_engine.run_query(*q, variant);
            assert_eq!(flood.result_ids, tree.result_ids, "{q:?} {variant}");
            assert!(
                tree.messages <= flood.messages,
                "{q:?} {variant}: tree routing sent {} messages vs flood {}",
                tree.messages,
                flood.messages
            );
            assert!(
                tree.volume_bytes <= flood.volume_bytes,
                "{q:?} {variant}: tree routing moved more bytes than flooding"
            );
        }
    }
}

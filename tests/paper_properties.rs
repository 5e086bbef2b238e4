//! Network-scale checks of the paper's analytical claims: the
//! observations behind the extended skyline, threshold monotonicity, and
//! the qualitative performance orderings the evaluation section reports.

use proptest::prelude::*;
use skypeer::core::engine::{EngineConfig, QueryMetrics, SkypeerEngine};
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec, Query, WorkloadSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::skycube::Skycube;
use skypeer::skyline::{DominanceIndex, PointSet, Subspace};

fn build(n_peers: usize, dim: usize, seed: u64) -> SkypeerEngine {
    let n_superpeers = (n_peers / 4).max(6);
    SkypeerEngine::build(EngineConfig {
        n_peers,
        n_superpeers,
        dataset: DatasetSpec { dim, points_per_peer: 25, kind: DatasetKind::Uniform, seed },
        topology: TopologySpec::paper_default(n_superpeers, seed ^ 1),
        index: DominanceIndex::RTree,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    })
}

/// Observation 4 at network scale: every super-peer store answers the full
/// skycube of its own raw data exactly.
#[test]
fn stores_cover_their_skycubes() {
    let engine = build(24, 4, 3);
    let homes = engine.topology().assign_peers(24);
    let spec = engine.config().dataset;
    for sp in 0..engine.config().n_superpeers {
        let mut raw = PointSet::new(4);
        for (peer, &home) in homes.iter().enumerate() {
            if home == sp {
                raw.extend_from(&spec.generate_peer(peer, home));
            }
        }
        if raw.is_empty() {
            continue;
        }
        let cube = Skycube::compute(&raw);
        let store = engine.store(sp);
        let have: Vec<u64> = (0..store.len()).map(|i| store.points().id(i)).collect();
        for id in cube.union_ids() {
            assert!(have.contains(&id), "store of SP{sp} misses skycube point {id}");
        }
    }
}

/// The qualitative ordering of the paper's evaluation on uniform data:
/// every SKYPEER variant beats naive on volume and total time, and
/// progressive merging beats fixed merging on volume.
#[test]
fn evaluation_orderings_hold_on_uniform_data() {
    let engine = build(60, 6, 9);
    let workload = WorkloadSpec {
        dim: 6,
        k: 3,
        queries: 10,
        n_superpeers: engine.config().n_superpeers,
        seed: 4,
    }
    .generate();
    let metric = |v: Variant| {
        let outcomes: Vec<_> = workload.iter().map(|q| engine.run_query(*q, v)).collect();
        QueryMetrics::from_outcomes(&outcomes)
    };
    let naive = metric(Variant::Naive);
    let ftfm = metric(Variant::Ftfm);
    let ftpm = metric(Variant::Ftpm);
    let rtpm = metric(Variant::Rtpm);

    for (name, m) in [("FTFM", &ftfm), ("FTPM", &ftpm), ("RTPM", &rtpm)] {
        assert!(
            m.avg_volume_bytes < naive.avg_volume_bytes,
            "{name} volume {} should beat naive {}",
            m.avg_volume_bytes,
            naive.avg_volume_bytes
        );
        assert!(
            m.avg_total_time_ns < naive.avg_total_time_ns,
            "{name} total time should beat naive"
        );
    }
    assert!(
        ftpm.avg_volume_bytes <= ftfm.avg_volume_bytes,
        "progressive merging must not ship more than fixed merging"
    );
}

/// Refined thresholds can only tighten pruning: RTFM never ships more
/// bytes than FTFM on the same query.
#[test]
fn refined_threshold_never_increases_volume() {
    let engine = build(40, 5, 21);
    let workload = WorkloadSpec {
        dim: 5,
        k: 2,
        queries: 12,
        n_superpeers: engine.config().n_superpeers,
        seed: 8,
    }
    .generate();
    for q in &workload {
        let ft = engine.run_query(*q, Variant::Ftfm);
        let rt = engine.run_query(*q, Variant::Rtfm);
        assert!(
            rt.volume_bytes <= ft.volume_bytes,
            "query {q:?}: RTFM {} > FTFM {}",
            rt.volume_bytes,
            ft.volume_bytes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small networks: every variant is exact for random queries.
    /// (Case count is low because each case builds a full network; the
    /// kernel-level property tests in skypeer-skyline run hundreds.)
    #[test]
    fn prop_random_networks_are_exact(
        seed in 0u64..1000,
        dim in 3usize..6,
        k in 1usize..4,
        initiator_pick in 0usize..100,
    ) {
        let k = k.min(dim);
        let engine = build(20, dim, seed);
        let n_sp = engine.config().n_superpeers;
        let q = Query {
            subspace: WorkloadSpec { dim, k, queries: 1, n_superpeers: n_sp, seed }
                .generate()[0].subspace,
            initiator: initiator_pick % n_sp,
        };
        let want = engine.centralized_skyline(q.subspace);
        for variant in [Variant::Ftfm, Variant::Rtpm, Variant::Naive] {
            prop_assert_eq!(&engine.run_query(q, variant).result_ids, &want);
        }
        let _ = Subspace::full(dim);
    }
}

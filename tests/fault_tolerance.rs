//! The fault-tolerance extension: super-peer crashes, child timeouts, and
//! the completeness flag. This is the paper's declared future work
//! ("we will investigate how churn, in particular peer failure, affects
//! the performance of SKYPEER"), implemented and characterized here.

use skypeer::core::engine::{EngineConfig, SkypeerEngine};
use skypeer::core::{FaultPlan, QueryOutcome, QueryRequest, Variant};
use skypeer::data::{DatasetKind, DatasetSpec, Query};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::{DominanceIndex, Subspace};

const TIMEOUT_NS: u64 = 60_000_000_000; // 60 simulated seconds

fn engine(seed: u64) -> SkypeerEngine {
    let n_superpeers = 8;
    SkypeerEngine::build(EngineConfig {
        n_peers: 24,
        n_superpeers,
        dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
        topology: TopologySpec::paper_default(n_superpeers, seed ^ 0xBEEF),
        index: DominanceIndex::Linear,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    })
}

/// Executes `q` while the given super-peers crash at the given simulated
/// times; child timeouts keep the query terminating.
fn run_with_failures(
    engine: &SkypeerEngine,
    q: Query,
    variant: Variant,
    crashes: &[(usize, u64)],
) -> QueryOutcome {
    let faults = FaultPlan {
        crashes: crashes.to_vec(),
        child_timeout_ns: Some(TIMEOUT_NS),
        answer_fault: None,
    };
    engine.execute(&QueryRequest { faults, ..QueryRequest::new(q, variant) }, None)
}

#[test]
fn no_failures_means_complete_and_exact() {
    let engine = engine(1);
    let q = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 0 };
    for variant in Variant::ALL {
        let out = run_with_failures(&engine, q, variant, &[]);
        assert!(out.complete, "{variant}");
        assert_eq!(out.result_ids, engine.centralized_skyline(q.subspace), "{variant}");
        assert_eq!(out.comp_time_ns, 0, "one simulation, no zero-delay leg: {variant}");
    }
}

#[test]
fn crashed_superpeer_yields_incomplete_but_terminating_query() {
    let engine = engine(2);
    let q = Query { subspace: Subspace::from_dims(&[1, 3]), initiator: 0 };
    let exact = engine.centralized_skyline(q.subspace);
    // Crash a non-initiator super-peer from the start.
    for victim in 1..engine.config().n_superpeers {
        for variant in [Variant::Ftpm, Variant::Rtfm] {
            let out = run_with_failures(&engine, q, variant, &[(victim, 0)]);
            assert!(!out.complete, "victim {victim} {variant}: lost subtree must be reported");
            // The degraded answer is the exact skyline of the surviving
            // stores; at minimum it cannot invent points from nowhere.
            let survivors: Vec<u64> = {
                use skypeer::skyline::{merge::merge_sorted, Dominance, SortedDataset};
                let stores: Vec<&SortedDataset> =
                    (0..engine.config().n_superpeers).map(|sp| engine.store(sp)).collect();
                let mut all_ids: Vec<u64> =
                    stores.iter().flat_map(|s| (0..s.len()).map(|i| s.points().id(i))).collect();
                all_ids.sort_unstable();
                let _ = merge_sorted(
                    &stores,
                    q.subspace,
                    Dominance::Standard,
                    f64::INFINITY,
                    DominanceIndex::Linear,
                );
                all_ids
            };
            for id in &out.result_ids {
                assert!(survivors.contains(id), "invented point {id}");
            }
            let _ = &exact;
        }
    }
}

#[test]
fn mid_query_crash_still_terminates() {
    let engine = engine(3);
    let q = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 2 };
    // Crash a node 2 simulated seconds in — after it likely received the
    // query but before large transfers complete.
    let out = run_with_failures(&engine, q, Variant::Ftfm, &[(5, 2_000_000_000)]);
    assert!(out.total_time_ns > 0);
    // Whether the crash bites depends on the spanning tree; in either case
    // the query terminated and the flag is consistent with exactness.
    if out.complete {
        assert_eq!(out.result_ids, engine.centralized_skyline(q.subspace));
    }
}

#[test]
fn incomplete_answer_is_subset_of_survivor_skyline_union() {
    let engine = engine(4);
    let q = Query { subspace: Subspace::full(4), initiator: 0 };
    let out = run_with_failures(&engine, q, Variant::Rtpm, &[(3, 0), (6, 0)]);
    assert!(!out.complete);
    // Every returned point must come from a surviving super-peer's store.
    let mut survivor_ids: Vec<u64> = (0..engine.config().n_superpeers)
        .filter(|&sp| sp != 3 && sp != 6)
        .flat_map(|sp| {
            let s = engine.store(sp);
            (0..s.len()).map(|i| s.points().id(i)).collect::<Vec<_>>()
        })
        .collect();
    survivor_ids.sort_unstable();
    for id in &out.result_ids {
        assert!(survivor_ids.binary_search(id).is_ok(), "point {id} from a dead super-peer");
    }
}

#[test]
fn multiple_failures_every_variant_terminates() {
    let engine = engine(5);
    let q = Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 1 };
    for variant in Variant::ALL {
        let out = run_with_failures(
            &engine,
            q,
            variant,
            &[(0, 0), (4, 1_000_000_000), (7, 5_000_000_000)],
        );
        assert!(!out.result_ids.is_empty() || out.result.is_empty(), "{variant} terminated");
    }
}

#[test]
fn timeout_cost_shows_up_in_response_time() {
    let engine = engine(6);
    let q = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 0 };
    let healthy = run_with_failures(&engine, q, Variant::Ftpm, &[]);
    let degraded = run_with_failures(&engine, q, Variant::Ftpm, &[(2, 0)]);
    if !degraded.complete {
        assert!(
            degraded.total_time_ns >= TIMEOUT_NS.min(healthy.total_time_ns),
            "abandoning a child costs at least the timeout window: {} vs healthy {}",
            degraded.total_time_ns,
            healthy.total_time_ns
        );
    }
}

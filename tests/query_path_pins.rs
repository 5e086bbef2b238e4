//! Pins of the query paths no golden or gated digest covers: crash runs
//! under both routings, a perturbed link, Extended-flavour runs, the audit
//! drill's answer fault on both backends, a concurrent batch and a seeded
//! churn replay with and without the cache. The constants were recorded
//! from the separate entry points these paths had before every single
//! simulation became a `QueryRequest` run by `SkypeerEngine::execute`, so
//! they show that folding them changed no result, time, byte or count.

use skypeer::core::churn::{ChurnRunner, ChurnScenarioSpec};
use skypeer::core::engine::{EngineConfig, RoutingMode, SkypeerEngine};
use skypeer::core::{AnswerFault, BackendKind, FaultPlan, QueryOutcome, QueryRequest, Variant};
use skypeer::data::{DatasetKind, DatasetSpec, Query};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::LinkModel;
use skypeer::netsim::topology::TopologySpec;
use skypeer::skyline::{Dominance, DominanceIndex, Subspace};

const TIMEOUT_NS: u64 = 60_000_000_000; // 60 simulated seconds

/// Every field of an outcome but the result points themselves, whose ids
/// it lists.
fn pin(o: &QueryOutcome) -> String {
    format!(
        "ids={:?} complete={} total={} comp={} volume={} messages={} dropped={} compute={} rounds={}",
        o.result_ids,
        o.complete,
        o.total_time_ns,
        o.comp_time_ns,
        o.volume_bytes,
        o.messages,
        o.dropped,
        o.compute_ns_total,
        o.rounds
    )
}

/// FNV-1a, for pinning long renderings in a short constant.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `tests/fault_tolerance.rs`'s network, under `routing`.
fn engine(seed: u64, routing: RoutingMode) -> SkypeerEngine {
    let n_superpeers = 8;
    SkypeerEngine::build(EngineConfig {
        n_peers: 24,
        n_superpeers,
        dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
        topology: TopologySpec::paper_default(n_superpeers, seed ^ 0xBEEF),
        index: DominanceIndex::Linear,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing,
    })
}

#[test]
fn crash_runs() {
    let pins = [
        (
            RoutingMode::Flood,
            "ids=[74, 100, 105, 118, 313, 339, 542, 550, 551, 553, 556, 564, 571, 580, 588, 594] complete=false total=60000052050 comp=0 volume=1010 messages=37 dropped=4 compute=826640 rounds=4",
            "ids=[4, 25, 53, 100, 118, 183, 272, 313, 374, 375, 377, 384, 484, 490, 499, 518, 528, 550, 580, 610] complete=false total=60000058860 comp=0 volume=3529 messages=56 dropped=1 compute=1214670 rounds=6",
        ),
        (
            RoutingMode::SpanningTree,
            "ids=[4, 25, 53, 100, 118, 183, 272, 313, 374, 375, 377, 384, 484, 490, 499, 518, 528, 550, 580, 610] complete=false total=60000058420 comp=0 volume=2353 messages=17 dropped=1 compute=449260 rounds=4",
            "ids=[4, 25, 53, 100, 118, 183, 272, 313, 374, 375, 377, 384, 484, 490, 499, 518, 528, 550, 580, 610] complete=false total=60000058860 comp=0 volume=3097 messages=20 dropped=1 compute=494670 rounds=4",
        ),
    ];
    for (routing, at_start, mid_run) in pins {
        let engine = engine(3, routing);
        let q = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 2 };
        let crash = |variant, at| {
            let faults = FaultPlan {
                crashes: vec![(5, at)],
                child_timeout_ns: Some(TIMEOUT_NS),
                answer_fault: None,
            };
            pin(&engine.execute(&QueryRequest { faults, ..QueryRequest::new(q, variant) }, None))
        };
        assert_eq!(crash(Variant::Ftpm, 0), at_start, "{routing:?}");
        assert_eq!(crash(Variant::Ftfm, 100_000_000), mid_run, "{routing:?}");
    }
}

#[test]
fn perturbed_and_extended_runs() {
    let engine = engine(7, RoutingMode::Flood);
    let q = Query { subspace: Subspace::from_dims(&[1, 3]), initiator: 0 };
    let to = engine.topology().neighbors(0)[0];
    assert_eq!(to, 6);
    let slow = LinkModel { latency_ns: 5_000_000_000, ns_per_byte: 244_141 };
    let perturbed =
        QueryRequest { link_overrides: vec![(0, to, slow)], ..QueryRequest::new(q, Variant::Rtpm) };
    assert_eq!(
        pin(&engine.execute(&perturbed, None)),
        "ids=[103, 195, 410, 436, 518, 590, 602, 707] complete=true total=10138759888 comp=0 volume=1929 messages=50 dropped=0 compute=1040030 rounds=6"
    );
    for (variant, want) in [
        (Variant::Ftpm, "ids=[103, 195, 410, 436, 518, 590, 602, 707] complete=true total=128604806 comp=0 volume=1849 messages=57 dropped=0 compute=1181360 rounds=6"),
        (Variant::Rtfm, "ids=[103, 195, 410, 436, 518, 590, 602, 707] complete=true total=154894934 comp=0 volume=2245 messages=53 dropped=0 compute=1095520 rounds=6"),
    ] {
        let ext = QueryRequest { flavour: Dominance::Extended, ..QueryRequest::new(q, variant) };
        assert_eq!(pin(&engine.execute(&ext, None)), want, "{variant}");
    }
}

#[test]
fn answer_fault_on_both_backends() {
    let engine = engine(7, RoutingMode::Flood);
    let q = Query { subspace: Subspace::from_dims(&[0, 2, 3]), initiator: 1 };
    let clean = engine.run_query_observed(q, Variant::Ftpm, None);
    // The largest answer id held away from the initiator must cross the
    // wire, so the drill can remove it.
    let local: Vec<u64> =
        (0..engine.store(1).len()).map(|i| engine.store(1).points().id(i)).collect();
    let victim = *clean.result_ids.iter().rev().find(|id| !local.contains(id)).expect("remote");
    assert_eq!(victim, 698);
    let faults =
        FaultPlan { answer_fault: Some(AnswerFault { drop_id: victim }), ..FaultPlan::default() };
    for (backend, want) in [
        (BackendKind::Skypeer, "ids=[5, 16, 34, 65, 69, 82, 185, 194, 252, 362, 370, 410, 420, 431, 523, 531, 540, 543, 563, 590, 595, 651, 671, 690] complete=true total=347352722 comp=0 volume=4609 messages=57 dropped=0 compute=1287090 rounds=6"),
        (BackendKind::Sampling, "ids=[5, 16, 34, 65, 69, 82, 185, 194, 252, 362, 370, 410, 420, 431, 523, 531, 540, 543, 563, 590, 595, 651, 671, 690] complete=true total=270150426 comp=0 volume=7022 messages=14 dropped=0 compute=435570 rounds=2"),
    ] {
        let req =
            QueryRequest { backend, faults: faults.clone(), ..QueryRequest::new(q, Variant::Ftpm) };
        assert_eq!(pin(&engine.execute(&req, None)), want, "{backend}");
    }
}

#[test]
fn concurrent_batch() {
    let engine = engine(7, RoutingMode::Flood);
    let batch = [
        (Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 }, Variant::Ftpm),
        (Query { subspace: Subspace::from_dims(&[2, 3]), initiator: 4 }, Variant::Rtfm),
        (Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 0 }, Variant::Naive),
        (Query { subspace: Subspace::full(4), initiator: 6 }, Variant::Rtpm),
    ];
    let out = engine.run_concurrent(&batch);
    assert_eq!(out.finish_times_ns, [488_953_782, 543_640_516, 599_268_444, 848_572_744]);
    assert_eq!((out.makespan_ns, out.volume_bytes, out.messages), (848_572_744, 15_880, 222));
    assert_eq!(fnv(&format!("{:?}", out.result_ids)), 0x51d0_57a3_b5d7_eea2);
}

#[test]
fn churn_replay_with_and_without_cache() {
    for (cached, served, digest) in
        [(false, 0, 0x2c44_4598_2888_a77d), (true, 5, 0xa6e7_9c56_ffe5_90ad)]
    {
        let n_superpeers = 6;
        let mut topology = TopologySpec::paper_default(n_superpeers, 19);
        topology.avg_degree = 3.0;
        let mut runner = ChurnRunner::new(
            topology.generate(),
            3,
            DominanceIndex::RTree,
            CostModel::default(),
            LinkModel::paper_4kbps(),
            TIMEOUT_NS,
        );
        if cached {
            runner = runner.with_cache(4 << 20);
        }
        let events = ChurnScenarioSpec {
            n_superpeers,
            dim: 3,
            points_per_peer: 15,
            events: 60,
            initiator: 0,
            max_concurrent_failures: 1,
            seed: 8,
        }
        .generate();
        let reports = runner.run_scenario(events);
        assert_eq!(reports.len(), 21, "cached={cached}");
        assert_eq!(reports.iter().filter(|r| r.served_from_cache).count(), served);
        assert_eq!(reports.iter().filter(|r| !r.complete).count(), 8, "cached={cached}");
        // Every field of every report.
        assert_eq!(fnv(&format!("{reports:?}")), digest, "cached={cached}");
    }
}

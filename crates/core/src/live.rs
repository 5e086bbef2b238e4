//! Running a SKYPEER query on the live threaded runtime.
//!
//! The same [`crate::node::SuperPeerNode`] state machine
//! that the DES drives is handed to real OS threads here — one per
//! super-peer, crossbeam channels as links. The result must be the exact
//! subspace skyline regardless of thread scheduling, which the integration
//! tests assert repeatedly.

use std::sync::Arc;
use std::time::Duration;

use skypeer_cache::{Flight, SharedSubspaceCache};
use skypeer_data::Query;
use skypeer_netsim::live::{run_live_multi_traced, LiveStats};
use skypeer_netsim::obs::{SamplerHandle, Tracer};
use skypeer_netsim::topology::Topology;
use skypeer_skyline::{Dominance, DominanceIndex, SortedDataset, Subspace};

use crate::cached::refine_miss;
use crate::engine::{sorted_ids, Backbone, QueryRequest, RoutingMode};
use crate::node::FinalAnswer;
use crate::variants::Variant;

/// Result of a live query execution.
#[derive(Clone, Debug)]
pub struct LiveQueryOutcome {
    /// Sorted global ids of the exact subspace skyline.
    pub result_ids: Vec<u64>,
    /// Whether every super-peer contributed.
    pub complete: bool,
    /// The result points.
    pub result: SortedDataset,
    /// Wire statistics of the run.
    pub stats: LiveStats,
    /// Wall-clock nanoseconds (since run start) at which the query's
    /// `finish` was observed — the live runtime's per-query latency
    /// sample.
    pub finish_ns: u64,
}

/// Executes one subspace skyline query over `stores` live, with one thread
/// per super-peer, under the dominance `flavour` (Extended leaves the
/// global `ext-SKY_U` at the initiator, as a cache miss needs). An optional
/// [`Tracer`] observes every node thread, and an optional metrics
/// [`SamplerHandle`] flushes a Prometheus snapshot of the same tracer to
/// its file while the query runs (plus one final flush after all threads
/// join). Returns `None` if the query does not complete within `timeout`
/// (which, absent deadlock bugs, it always does).
///
/// The live runtime has no link overrides, no fault injection and no
/// sampling backend, so it takes no [`QueryRequest`].
#[allow(clippy::too_many_arguments)]
pub fn run_query_live(
    topology: &Topology,
    stores: &[Arc<SortedDataset>],
    subspace: Subspace,
    initiator: usize,
    variant: Variant,
    flavour: Dominance,
    index: DominanceIndex,
    timeout: Duration,
    tracer: Option<Arc<dyn Tracer>>,
    sampler: Option<&SamplerHandle>,
) -> Option<LiveQueryOutcome> {
    assert_eq!(topology.len(), stores.len(), "one store per super-peer required");
    assert!(initiator < topology.len(), "initiator out of range");
    let backbone = Backbone { topology, stores, index, routing: RoutingMode::Flood };
    let req = QueryRequest { flavour, ..QueryRequest::new(Query { subspace, initiator }, variant) };
    let nodes = backbone.nodes(Some((1, &req)), None);
    let out = run_live_multi_traced(nodes, &[initiator], 1, timeout, tracer, sampler)?;
    let finish_ns = out.finish_times.first().copied().unwrap_or(0);
    let answer = FinalAnswer::take(out.nodes, initiator);
    Some(LiveQueryOutcome {
        result_ids: sorted_ids(&answer.result),
        complete: answer.complete,
        result: answer.result,
        stats: out.stats,
        finish_ns,
    })
}

/// Executes one query through a [`SharedSubspaceCache`] with blocking
/// single-flight admission — the live runtime's cached initiator path:
///
/// * a cache hit (exact or subsumed) is served locally, with zero wire
///   traffic (`stats` is all zeros);
/// * a miss whose subspace an in-flight execution covers blocks inside
///   [`SharedSubspaceCache::begin`] until that leader completes, then is
///   served from the freshly admitted entry;
/// * otherwise this caller leads: it runs the **Extended**-flavour live
///   query, admits the complete result (waking followers), and refines it
///   locally to the standard skyline. Timeouts and incomplete results
///   abort the flight so a waiting follower becomes the next leader.
#[allow(clippy::too_many_arguments)]
pub fn run_query_live_cached(
    topology: &Topology,
    stores: &[Arc<SortedDataset>],
    subspace: Subspace,
    initiator: usize,
    variant: Variant,
    index: DominanceIndex,
    timeout: Duration,
    cache: &SharedSubspaceCache,
) -> Option<LiveQueryOutcome> {
    match cache.begin(subspace) {
        Flight::Hit(ans) => Some(LiveQueryOutcome {
            result_ids: ans.result_ids,
            complete: true,
            result: ans.result,
            stats: LiveStats::default(),
            finish_ns: 0,
        }),
        Flight::Lead => {
            let ext = Dominance::Extended;
            let out = run_query_live(
                topology, stores, subspace, initiator, variant, ext, index, timeout, None, None,
            );
            match out {
                Some(out) if out.complete => {
                    cache.complete(subspace, out.result.clone(), out.stats.bytes);
                    let (refined, result_ids) = refine_miss(&out.result, subspace, index);
                    Some(LiveQueryOutcome {
                        result_ids,
                        complete: true,
                        result: refined.result,
                        stats: out.stats,
                        finish_ns: out.finish_ns,
                    })
                }
                other => {
                    cache.abort(subspace);
                    other
                }
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::preprocess::SuperPeerStore;
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::PointSet;

    fn build_stores(
        n_superpeers: usize,
        peers_per_sp: usize,
        seed: u64,
    ) -> (Topology, Vec<Arc<SortedDataset>>, PointSet) {
        let topo = TopologySpec::paper_default(n_superpeers, seed).generate();
        let spec = DatasetSpec { dim: 4, points_per_peer: 25, kind: DatasetKind::Uniform, seed };
        let mut all = PointSet::new(4);
        let mut stores = Vec::new();
        for sp in 0..n_superpeers {
            let sets: Vec<PointSet> =
                (0..peers_per_sp).map(|i| spec.generate_peer(sp * peers_per_sp + i, sp)).collect();
            for s in &sets {
                all.extend_from(s);
            }
            let store = SuperPeerStore::preprocess(&sets, 4, DominanceIndex::Linear);
            stores.push(store.store);
        }
        (topo, stores, all)
    }

    #[test]
    fn live_run_is_exact_for_every_variant() {
        let (topo, stores, all) = build_stores(6, 3, 42);
        let u = Subspace::from_dims(&[0, 2]);
        let want =
            skypeer_skyline::brute::skyline_ids(&all, u, skypeer_skyline::Dominance::Standard);
        for variant in Variant::ALL {
            let out = run_query_live(
                &topo,
                &stores,
                u,
                1,
                variant,
                Dominance::Standard,
                DominanceIndex::Linear,
                Duration::from_secs(20),
                None,
                None,
            )
            .expect("live query must complete");
            assert_eq!(out.result_ids, want, "variant {variant}");
            assert!(out.stats.messages > 0);
        }
    }

    #[test]
    fn live_cached_single_flight_is_exact_and_saves_traffic() {
        use skypeer_cache::{CacheConfig, SharedSubspaceCache};
        let (topo, stores, all) = build_stores(5, 2, 99);
        let cache = SharedSubspaceCache::new(CacheConfig {
            max_bytes: 4 << 20,
            index: DominanceIndex::Linear,
        });
        let u = Subspace::from_dims(&[0, 2]);
        let sub = Subspace::from_dims(&[0]);
        let outs: Vec<LiveQueryOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = [u, u, u, sub]
                .into_iter()
                .map(|q| {
                    let (topo, stores, cache) = (&topo, &stores, &cache);
                    s.spawn(move || {
                        run_query_live_cached(
                            topo,
                            stores,
                            q,
                            1,
                            Variant::Ftpm,
                            DominanceIndex::Linear,
                            Duration::from_secs(20),
                            cache,
                        )
                        .expect("live cached query must complete")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("join")).collect()
        });
        let std = skypeer_skyline::Dominance::Standard;
        for (out, q) in outs.iter().zip([u, u, u, sub]) {
            assert_eq!(out.result_ids, skypeer_skyline::brute::skyline_ids(&all, q, std));
            assert!(out.complete);
        }
        // Single-flight: exactly one of the four executions touched the
        // wire; the rest were hits or coalesced followers.
        let executed = outs.iter().filter(|o| o.stats.messages > 0).count();
        assert_eq!(executed, 1, "one leader, three cache-served");
        let st = cache.stats();
        assert_eq!(st.hits() + st.coalesced, 3);
        assert_eq!(st.misses, 1);
        // And a later identical query is a plain local hit.
        let again = run_query_live_cached(
            &topo,
            &stores,
            u,
            0,
            Variant::Rtfm,
            DominanceIndex::Linear,
            Duration::from_secs(20),
            &cache,
        )
        .expect("hit");
        assert_eq!(again.stats.bytes, 0);
        assert_eq!(again.result_ids, skypeer_skyline::brute::skyline_ids(&all, u, std));
    }

    #[test]
    fn repeated_live_runs_agree_despite_scheduling() {
        let (topo, stores, _) = build_stores(5, 2, 7);
        let u = Subspace::from_dims(&[1, 3]);
        let first = run_query_live(
            &topo,
            &stores,
            u,
            0,
            Variant::Ftpm,
            Dominance::Standard,
            DominanceIndex::Linear,
            Duration::from_secs(20),
            None,
            None,
        )
        .expect("completes");
        for _ in 0..5 {
            let again = run_query_live(
                &topo,
                &stores,
                u,
                0,
                Variant::Ftpm,
                Dominance::Standard,
                DominanceIndex::Linear,
                Duration::from_secs(20),
                None,
                None,
            )
            .expect("completes");
            assert_eq!(again.result_ids, first.result_ids, "thread schedule changed the answer");
        }
    }
}

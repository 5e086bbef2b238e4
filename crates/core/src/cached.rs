//! Cache-fronted query execution: a [`SkypeerEngine`] behind a
//! [`SubspaceCache`].
//!
//! The miss path deliberately runs the backbone query with the
//! **Extended** dominance flavour (see [`QueryRequest::flavour`]): the
//! initiator then holds the global `ext-SKY_U`, which by the paper's
//! Observation 4 (generalized in
//! [`skypeer_skyline::extended::refine_from_ext`]) answers not just the
//! query at hand but *every* later query for a contained subspace — with a
//! purely local refinement, zero network traffic. The extended result
//! costs slightly more bytes than `SKY_U` on the wire once; every hit it
//! serves afterwards saves the whole backbone exchange.
//!
//! [`CachedEngine::run_batch`] adds **single-flight admission** on top:
//! simultaneous identical (or subsumed) queries coalesce onto one backbone
//! execution, visible in the DES as fewer messages than running each query
//! separately.

use std::sync::Arc;

use skypeer_cache::{CacheAnswer, CacheConfig, CacheStats, FlightRole, HitKind, SubspaceCache};
use skypeer_data::Query;
use skypeer_netsim::cost::WorkReport;
use skypeer_netsim::obs::Tracer;
use skypeer_skyline::extended::refine_from_ext;
use skypeer_skyline::sorted::ThresholdOutcome;
use skypeer_skyline::{Dominance, DominanceIndex, SortedDataset, Subspace};

use crate::engine::{sorted_ids, QueryOutcome, QueryRequest, SkypeerEngine};
use crate::variants::Variant;

/// How the cache participated in one query.
#[derive(Clone, Debug)]
pub enum CacheRole {
    /// Served from a cached entry, no backbone execution.
    Hit {
        /// Exact or subsumption hit.
        kind: HitKind,
        /// The cached subspace the answer was refined from.
        source: Subspace,
        /// Network bytes the hit avoided re-shipping.
        saved_bytes: u64,
    },
    /// Executed on the backbone; the extended result was offered to the
    /// cache.
    Miss,
    /// Coalesced onto the in-flight execution of the batch query at this
    /// index (single-flight admission).
    Coalesced {
        /// Batch index of the leader whose result was shared.
        leader: usize,
    },
}

/// A query outcome plus how the cache was involved.
#[derive(Clone, Debug)]
pub struct CachedOutcome {
    /// The query outcome. On a hit, `total_time_ns` is the local
    /// refinement's modeled service time and `volume_bytes`/`messages`
    /// are zero — nothing touched the network.
    pub outcome: QueryOutcome,
    /// Hit, miss, or coalesced.
    pub role: CacheRole,
    /// Dominance tests the initiator-local refinement performed (on top
    /// of any backbone work the trace accounts for).
    pub refine_tests: u64,
}

impl CachedOutcome {
    /// Whether the answer was produced without a backbone execution of its
    /// own (a cache hit or a coalesced follower).
    pub fn served_from_cache(&self) -> bool {
        !matches!(self.role, CacheRole::Miss)
    }

    /// A one-line, EXPLAIN-style note describing the cache's part in this
    /// query, suitable for appending to a query plan rendering.
    pub fn explain_note(&self) -> String {
        match &self.role {
            CacheRole::Hit { kind: HitKind::Exact, saved_bytes, .. } => {
                format!("cache: exact hit — served locally, saved {saved_bytes} backbone bytes")
            }
            CacheRole::Hit { kind: HitKind::Subsumed, source, saved_bytes } => format!(
                "cache: subsumption hit — refined from cached ext-skyline of {source}, \
                 saved {saved_bytes} backbone bytes"
            ),
            CacheRole::Miss => format!(
                "cache: miss — executed on the backbone ({} bytes), extended result admitted",
                self.outcome.volume_bytes
            ),
            CacheRole::Coalesced { leader } => {
                format!("cache: coalesced onto in-flight batch query #{leader} (single-flight)")
            }
        }
    }
}

/// A [`SkypeerEngine`] fronted by a [`SubspaceCache`] at the initiator.
///
/// ```
/// use skypeer_core::cached::CachedEngine;
/// use skypeer_core::{EngineConfig, QueryRequest, SkypeerEngine, Variant};
/// use skypeer_data::Query;
/// use skypeer_skyline::Subspace;
///
/// let engine = SkypeerEngine::build(EngineConfig::paper_default(60, 5));
/// let mut cached = CachedEngine::new(&engine, 4 << 20);
/// let q = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 1 };
/// let req = QueryRequest::new(q, Variant::Ftpm);
/// let miss = cached.run_query(&req, None);
/// let hit = cached.run_query(&req, None);
/// assert!(!miss.served_from_cache());
/// assert!(hit.served_from_cache());
/// assert_eq!(hit.outcome.result_ids, miss.outcome.result_ids);
/// assert_eq!(hit.outcome.volume_bytes, 0);
/// ```
pub struct CachedEngine<'a> {
    engine: &'a SkypeerEngine,
    cache: SubspaceCache,
}

impl<'a> CachedEngine<'a> {
    /// Wraps `engine` with a fresh cache of the given byte budget, using
    /// the engine's dominance index for refinement.
    pub fn new(engine: &'a SkypeerEngine, max_bytes: u64) -> Self {
        let config = CacheConfig { max_bytes, index: engine.config().index };
        CachedEngine { engine, cache: SubspaceCache::new(config) }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &SkypeerEngine {
        self.engine
    }

    /// Cache counters so far.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Invalidates every cached entry (network membership changed).
    pub fn bump_epoch(&mut self) {
        self.cache.bump_epoch();
    }

    /// Executes one request, consulting the cache first. A miss executes
    /// the request with the Extended flavour and admits its result. A
    /// tracer observes the backbone execution of a miss; hits perform no
    /// simulation, so their trace is empty.
    pub fn run_query(
        &mut self,
        req: &QueryRequest,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> CachedOutcome {
        match self.cache.lookup(req.query.subspace) {
            Some(ans) => self.hit_outcome(ans, None),
            None => self.run_miss(req, tracer),
        }
    }

    /// Executes a batch with **single-flight admission**: cache-covered
    /// queries are served; of the rest, only the first query of each
    /// coverage group executes on the backbone, and every later query
    /// whose subspace it contains shares that result. Outcomes are in
    /// batch order.
    pub fn run_batch(&mut self, batch: &[(Query, Variant)]) -> Vec<CachedOutcome> {
        let subspaces: Vec<Subspace> = batch.iter().map(|(q, _)| q.subspace).collect();
        let roles = self.cache.plan_flight(&subspaces);
        batch
            .iter()
            .zip(roles)
            .map(|(&(q, variant), role)| match role {
                // `run_query` re-checks the cache, so a Served role that an
                // eviction raced away simply becomes a miss.
                FlightRole::Served | FlightRole::Leader => {
                    self.run_query(&QueryRequest::new(q, variant), None)
                }
                FlightRole::Follower(leader) => match self.cache.answer_via(q.subspace) {
                    Some(ans) => self.hit_outcome(ans, Some(leader)),
                    // The leader's result was refused admission (e.g.
                    // oversized): fall back to executing ourselves.
                    None => self.run_miss(&QueryRequest::new(q, variant), None),
                },
            })
            .collect()
    }

    fn run_miss(&mut self, req: &QueryRequest, tracer: Option<Arc<dyn Tracer>>) -> CachedOutcome {
        let ext_req = QueryRequest { flavour: Dominance::Extended, ..req.clone() };
        let ext = self.engine.execute(&ext_req, tracer);
        let (refined, result_ids) =
            refine_miss(&ext.result, req.query.subspace, self.engine.config().index);
        let refine_ns = self.engine.config().cost.service_ns(&WorkReport::from_counts(
            refined.stats.dominance_tests,
            refined.stats.points_scanned,
        ));
        self.cache.admit(req.query.subspace, ext.result, ext.volume_bytes);
        CachedOutcome {
            outcome: QueryOutcome {
                result_ids,
                complete: ext.complete,
                result: refined.result,
                total_time_ns: ext.total_time_ns + refine_ns,
                comp_time_ns: 0,
                volume_bytes: ext.volume_bytes,
                messages: ext.messages,
                dropped: ext.dropped,
                compute_ns_total: ext.compute_ns_total + refine_ns,
                rounds: ext.rounds,
            },
            role: CacheRole::Miss,
            refine_tests: refined.stats.dominance_tests,
        }
    }

    fn hit_outcome(&self, ans: CacheAnswer, coalesced_onto: Option<usize>) -> CachedOutcome {
        let refine_ns = self.engine.config().cost.service_ns(&WorkReport::from_counts(
            ans.refine_stats.dominance_tests,
            ans.refine_stats.points_scanned,
        ));
        let role = match coalesced_onto {
            Some(leader) => CacheRole::Coalesced { leader },
            None => {
                CacheRole::Hit { kind: ans.kind, source: ans.source, saved_bytes: ans.saved_bytes }
            }
        };
        CachedOutcome {
            outcome: QueryOutcome {
                result_ids: ans.result_ids,
                complete: true,
                result: ans.result,
                total_time_ns: refine_ns,
                comp_time_ns: 0,
                volume_bytes: 0,
                messages: 0,
                dropped: 0,
                compute_ns_total: refine_ns,
                rounds: 0,
            },
            role,
            refine_tests: ans.refine_stats.dominance_tests,
        }
    }
}

/// Refines the Extended-flavour answer of a cache miss into the exact
/// `SKY_u` it stands for: the refinement and the answer's sorted ids.
pub(crate) fn refine_miss(
    ext: &SortedDataset,
    u: Subspace,
    index: DominanceIndex,
) -> (ThresholdOutcome, Vec<u64>) {
    let refined = refine_from_ext(ext, u, index);
    let ids = sorted_ids(&refined.result);
    (refined, ids)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::engine::{EngineConfig, RoutingMode};
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::DominanceIndex;

    fn engine(seed: u64) -> SkypeerEngine {
        let n_superpeers = 6;
        SkypeerEngine::build(EngineConfig {
            n_peers: 18,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
            topology: TopologySpec::paper_default(n_superpeers, seed),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        })
    }

    #[test]
    fn cached_answers_match_the_uncached_engine() {
        let eng = engine(19);
        let mut cached = CachedEngine::new(&eng, 4 << 20);
        let queries = [
            Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 0 },
            Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 3 }, // subsumed
            Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 5 }, // exact repeat
            Query { subspace: Subspace::from_dims(&[3]), initiator: 2 },    // miss
        ];
        for q in queries {
            let got = cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None);
            assert_eq!(
                got.outcome.result_ids,
                eng.centralized_skyline(q.subspace),
                "cached answer must be exact for {}",
                q.subspace
            );
        }
        let st = cached.stats();
        assert_eq!((st.exact_hits, st.subsumption_hits, st.misses), (1, 1, 2));
        assert!(st.bytes_saved > 0);
    }

    #[test]
    fn hits_cost_no_bytes_and_less_time_than_misses() {
        let eng = engine(23);
        let mut cached = CachedEngine::new(&eng, 4 << 20);
        let q = Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 1 };
        let miss = cached.run_query(&QueryRequest::new(q, Variant::Rtpm), None);
        let hit = cached.run_query(&QueryRequest::new(q, Variant::Rtpm), None);
        assert!(matches!(miss.role, CacheRole::Miss));
        assert!(matches!(hit.role, CacheRole::Hit { kind: HitKind::Exact, .. }));
        assert_eq!(hit.outcome.volume_bytes, 0);
        assert_eq!(hit.outcome.messages, 0);
        assert!(miss.outcome.volume_bytes > 0);
        assert!(
            hit.outcome.total_time_ns < miss.outcome.total_time_ns,
            "local refinement ({} ns) must beat the backbone round trip ({} ns)",
            hit.outcome.total_time_ns,
            miss.outcome.total_time_ns
        );
    }

    #[test]
    fn single_flight_batch_moves_fewer_messages_than_serial_execution() {
        let eng = engine(29);
        let q = Query { subspace: Subspace::from_dims(&[0, 2, 3]), initiator: 2 };
        let sub = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 4 };
        let batch =
            [(q, Variant::Ftpm), (q, Variant::Ftpm), (sub, Variant::Ftpm), (q, Variant::Ftpm)];

        // Serial baseline: every query pays its own backbone execution.
        let serial: u64 =
            batch.iter().map(|&(q, v)| eng.run_query_observed(q, v, None).messages).sum();

        let mut cached = CachedEngine::new(&eng, 4 << 20);
        let outcomes = cached.run_batch(&batch);
        let deduped: u64 = outcomes.iter().map(|o| o.outcome.messages).sum();
        assert!(deduped < serial, "single-flight must move fewer messages ({deduped} vs {serial})");
        assert!(matches!(outcomes[0].role, CacheRole::Miss), "first is the leader");
        assert!(matches!(outcomes[1].role, CacheRole::Coalesced { leader: 0 }));
        assert!(matches!(outcomes[2].role, CacheRole::Coalesced { leader: 0 }));
        assert!(matches!(outcomes[3].role, CacheRole::Coalesced { leader: 0 }));
        for (o, (q, _)) in outcomes.iter().zip(&batch) {
            assert_eq!(o.outcome.result_ids, eng.centralized_skyline(q.subspace));
        }
        assert_eq!(cached.stats().coalesced, 3);
    }

    #[test]
    fn epoch_bump_forces_reexecution() {
        let eng = engine(31);
        let mut cached = CachedEngine::new(&eng, 4 << 20);
        let q = Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 };
        cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None);
        assert!(cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None).served_from_cache());
        cached.bump_epoch();
        let after = cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None);
        assert!(!after.served_from_cache(), "stale entry must not serve");
        assert!(cached.stats().stale_rejects >= 1);
    }

    #[test]
    fn explain_notes_render_each_role() {
        let eng = engine(37);
        let mut cached = CachedEngine::new(&eng, 4 << 20);
        let q = Query { subspace: Subspace::from_dims(&[1, 3]), initiator: 1 };
        let sub = Query { subspace: Subspace::from_dims(&[1]), initiator: 2 };
        let miss = cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None);
        assert!(miss.explain_note().starts_with("cache: miss"));
        let exact = cached.run_query(&QueryRequest::new(q, Variant::Ftpm), None);
        assert!(exact.explain_note().starts_with("cache: exact hit"));
        let subsumed = cached.run_query(&QueryRequest::new(sub, Variant::Ftpm), None);
        assert!(subsumed.explain_note().starts_with("cache: subsumption hit"));
        let batch = [(sub, Variant::Naive), (sub, Variant::Naive)];
        cached.bump_epoch();
        let outcomes = cached.run_batch(&batch);
        assert!(outcomes[1].explain_note().starts_with("cache: coalesced"));
    }
}

//! Online correctness auditing: per-point lineage resolution, sampled
//! shadow verification, and deterministic violation records.
//!
//! The paper's central claim is exactness; the rest of the observability
//! stack watches performance. This module watches *correctness at
//! runtime*: a [`LineageResolver`] explains any point id's journey
//! through the pipeline (the `why` / `why-not` subcommands), and an
//! [`Auditor`] samples live queries at a configured rate,
//! shadow-recomputes them against the raw-data oracle
//! ([`crate::verify::exact_skyline_ids`]), cross-checks cache-fronted
//! answers against direct distributed answers, and turns every mismatch
//! into an [`AuditViolation`] carrying the lineage of each disputed
//! point — naming the offending point, its origin peer, and the queried
//! subspace.
//!
//! For drills, [`AnswerFault`] corrupts one in-flight ext-skyline entry
//! (removing a point id from every result list on the wire) without
//! touching timing or byte accounting: invisible to every performance
//! metric, caught only by the audit.

use crate::engine::SkypeerEngine;
use crate::msg::Msg;
use crate::verify;
use skypeer_data::Query;
use skypeer_obs::json::{arr, Obj};
use skypeer_obs::lineage::{dim_set, LineageStage, PointLineage, PointOrigin, Witness};
use skypeer_skyline::{dominance, PointSet, SortedDataset, Subspace};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Silent in-flight corruption: removes `drop_id` from every result list
/// crossing the wire — SKYPEER's [`Msg::Answer`] and the sampling
/// backend's [`Msg::Candidates`]. The message stays well-formed (its
/// flags untouched) and its wire size was fixed at send time, so the
/// drill changes no timing and no byte accounting — only the delivered
/// answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnswerFault {
    /// The point id silently removed from in-flight answers.
    pub drop_id: u64,
}

impl AnswerFault {
    /// Applies the fault to one message: returns it with the victim
    /// removed, or `None` when it is not a result list containing the
    /// victim (leave it untouched).
    pub fn tamper(&self, msg: &Msg) -> Option<Msg> {
        let without_victim = |points: &SortedDataset| {
            let set = points.points();
            let keep: Vec<usize> = (0..set.len()).filter(|&i| set.id(i) != self.drop_id).collect();
            (keep.len() < set.len()).then(|| Arc::new(SortedDataset::from_set(&set.gather(&keep))))
        };
        match msg {
            Msg::Answer { qid, done, complete, points } => Some(Msg::Answer {
                qid: *qid,
                done: *done,
                complete: *complete,
                points: without_victim(points)?,
            }),
            Msg::Candidates { qid, complete, points } => Some(Msg::Candidates {
                qid: *qid,
                complete: *complete,
                points: without_victim(points)?,
            }),
            _ => None,
        }
    }
}

/// Resolves the full provenance of any point id with respect to a
/// query: origin peer, owning super-peer, ext-skyline store membership,
/// and — for candidates that never reach an answer — the dominance
/// witness that killed them.
///
/// Construction regenerates every peer's raw dataset (the same
/// deterministic generation the engine itself used), so memory scales
/// with `n_peers × points_per_peer`: verification-sized networks only.
pub struct LineageResolver {
    peer_sets: Vec<PointSet>,
    peer_home: Vec<usize>,
    /// id → (origin peer, index within that peer's set).
    locate: HashMap<u64, (usize, usize)>,
    /// Per super-peer: ids present in its merged ext-skyline store.
    store_ids: Vec<HashSet<u64>>,
    all: PointSet,
}

impl LineageResolver {
    /// Builds a resolver for `engine`'s generated network.
    pub fn new(engine: &SkypeerEngine) -> Self {
        let cfg = engine.config();
        let peer_home = engine.topology().assign_peers(cfg.n_peers);
        let peer_sets: Vec<PointSet> =
            (0..cfg.n_peers).map(|p| cfg.dataset.generate_peer(p, peer_home[p])).collect();
        let mut locate = HashMap::new();
        let mut all = PointSet::new(cfg.dataset.dim);
        for (peer, set) in peer_sets.iter().enumerate() {
            for (i, id, _) in set.iter() {
                locate.insert(id, (peer, i));
            }
            all.extend_from(set);
        }
        let store_ids = (0..cfg.n_superpeers)
            .map(|sp| {
                let store = engine.store(sp).points();
                (0..store.len()).map(|i| store.id(i)).collect()
            })
            .collect();
        LineageResolver { peer_sets, peer_home, locate, store_ids, all }
    }

    /// The regenerated raw union of every peer's data.
    pub fn global(&self) -> &PointSet {
        &self.all
    }

    /// Full provenance of `id` with respect to subspace `u`.
    pub fn lineage(&self, id: u64, u: Subspace) -> PointLineage {
        let query_dims: Vec<usize> = u.dims().collect();
        let Some(&(peer, idx)) = self.locate.get(&id) else {
            return PointLineage {
                id,
                query_dims,
                origin: None,
                stage: LineageStage::NotGenerated,
            };
        };
        let coords = self.peer_sets[peer].point(idx).to_vec();
        let super_peer = self.peer_home[peer];
        let in_ext_store = self.store_ids[super_peer].contains(&id);
        let origin = Some(PointOrigin { coords: coords.clone(), peer, super_peer, in_ext_store });
        let full = Subspace::full(self.all.dim());
        let stage = if in_ext_store {
            // Survived preprocessing. Either it is in SKY_U or a standard
            // dominator on U excludes it — find the smallest-id one.
            match self.find_witness(&coords, id, u, false, None) {
                Some(w) => LineageStage::Dominated(w),
                None => LineageStage::InSkyline,
            }
        } else if let Some(w) = self.find_witness(&coords, id, full, true, Some(peer)) {
            // Ext-dominated by a same-peer point: never uploaded.
            LineageStage::PrunedAtPeer(w)
        } else {
            // Uploaded but ext-pruned during the super-peer merge; the
            // dominator lives on a sibling peer of the same super-peer.
            let group: Vec<usize> =
                (0..self.peer_sets.len()).filter(|&p| self.peer_home[p] == super_peer).collect();
            let w = group
                .iter()
                .filter_map(|&p| self.find_witness(&coords, id, full, true, Some(p)))
                .min_by_key(|w| w.id)
                .expect("a point absent from its store must have an ext-dominator in its group");
            LineageStage::PrunedAtSuperPeer(w)
        };
        PointLineage { id, query_dims, origin, stage }
    }

    /// Smallest-id point dominating `coords` on `u` (extended or
    /// standard), optionally restricted to one peer's set.
    fn find_witness(
        &self,
        coords: &[f64],
        victim: u64,
        u: Subspace,
        extended: bool,
        peer: Option<usize>,
    ) -> Option<Witness> {
        let test = |p: &[f64], q: &[f64]| {
            if extended {
                dominance::ext_dominates(p, q, u)
            } else {
                dominance::dominates(p, q, u)
            }
        };
        let dims: Vec<usize> = u.dims().collect();
        let mut best: Option<Witness> = None;
        let peers: Vec<usize> = match peer {
            Some(p) => vec![p],
            None => (0..self.peer_sets.len()).collect(),
        };
        for p in peers {
            for (_, id, cand) in self.peer_sets[p].iter() {
                if id == victim || !test(cand, coords) {
                    continue;
                }
                if best.as_ref().is_none_or(|b| id < b.id) {
                    best = Some(Witness {
                        id,
                        coords: cand.to_vec(),
                        origin_peer: p,
                        dims: dims.clone(),
                        extended,
                    });
                }
            }
        }
        best
    }
}

/// Audit configuration: what fraction of queries to shadow-verify and
/// the seed of the deterministic sampling hash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditSpec {
    /// Fraction of queries sampled, in `[0, 1]`. `1.0` audits everything.
    pub sample_rate: f64,
    /// Sampling seed — same seed, same rate, same workload ⇒ the same
    /// queries are audited, so audit output is byte-deterministic.
    pub seed: u64,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec { sample_rate: 0.1, seed: 0xA0D17 }
    }
}

/// Point count below which the shadow oracle brute-forces (above it,
/// Algorithm 1 over a sorted copy — same answer, much faster).
const ORACLE_CUTOFF: usize = 512;

/// Counters of one audited stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Queries sampled for shadow verification.
    pub sampled: u64,
    /// Cache-fronted answers additionally cross-checked against a direct
    /// distributed run.
    pub crosschecks: u64,
    /// Violations recorded (a query can contribute several).
    pub violations: u64,
    /// True-skyline points absent from audited answers, summed.
    pub missing_points: u64,
    /// Answered points absent from the true skyline, summed.
    pub spurious_points: u64,
}

/// One detected correctness violation, with the lineage of every
/// disputed point.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditViolation {
    /// Index of the query within its workload stream.
    pub query_index: usize,
    /// Dimensions of the queried subspace.
    pub dims: Vec<usize>,
    /// `"shadow"` (answer vs raw-data oracle) or `"cache"` (cache-fronted
    /// answer vs direct distributed answer).
    pub kind: &'static str,
    /// True-skyline points missing from the answer.
    pub missing: Vec<PointLineage>,
    /// Answered points that are not in the true skyline.
    pub spurious: Vec<PointLineage>,
}

impl AuditViolation {
    /// Deterministic single-line JSON record.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("query", self.query_index as u64)
            .raw("dims", &arr(self.dims.iter().map(|d| d.to_string())))
            .str("kind", self.kind)
            .raw("missing", &arr(self.missing.iter().map(|l| l.to_json())))
            .raw("spurious", &arr(self.spurious.iter().map(|l| l.to_json())))
            .build()
    }

    /// One-line human rendering naming each disputed point, its origin
    /// peer, and the queried subspace.
    pub fn render(&self) -> String {
        let name = |ls: &[PointLineage]| {
            arr(ls.iter().map(|l| match &l.origin {
                Some(o) => format!("#{} (peer {}, SP{})", l.id, o.peer, o.super_peer),
                None => format!("#{} (not generated)", l.id),
            }))
        };
        format!(
            "query #{} on {}: {} mismatch - missing {}, spurious {}",
            self.query_index,
            dim_set(&self.dims),
            self.kind,
            name(&self.missing),
            name(&self.spurious)
        )
    }
}

/// The online auditor: deterministic sampling, shadow recomputation,
/// cache cross-checking, violation records.
pub struct Auditor {
    resolver: LineageResolver,
    spec: AuditSpec,
    /// Aggregate counters.
    pub stats: AuditStats,
    /// Violations in detection order.
    pub violations: Vec<AuditViolation>,
}

/// SplitMix64 — the sampling hash. Deterministic, seedable, and good
/// enough to make "every r-th query on average" unbiased across the
/// stream without any OS randomness.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Auditor {
    /// Builds an auditor over `engine`'s network.
    pub fn new(engine: &SkypeerEngine, spec: AuditSpec) -> Self {
        Auditor {
            resolver: LineageResolver::new(engine),
            spec,
            stats: AuditStats::default(),
            violations: Vec::new(),
        }
    }

    /// The lineage resolver (shared with `why` / `why-not`).
    pub fn resolver(&self) -> &LineageResolver {
        &self.resolver
    }

    /// Whether query `index` of the stream is sampled for audit.
    /// Deterministic in `(seed, index)`.
    pub fn should_sample(&self, index: usize) -> bool {
        if self.spec.sample_rate >= 1.0 {
            return true;
        }
        if self.spec.sample_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.spec.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (h >> 11) as f64 / ((1u64 << 53) as f64) < self.spec.sample_rate
    }

    /// The exact answer for `query` per the raw-data oracle, sorted.
    pub fn shadow_skyline(&self, query: Query) -> Vec<u64> {
        verify::exact_skyline_ids(&self.resolver.all, query.subspace, ORACLE_CUTOFF)
    }

    /// Shadow-verifies one sampled answer against the raw-data oracle.
    /// Returns `true` when a violation was recorded. `answer_ids` must be
    /// sorted ascending (as `QueryOutcome::result_ids` is).
    pub fn check_answer(&mut self, index: usize, query: Query, answer_ids: &[u64]) -> bool {
        self.stats.sampled += 1;
        let truth = self.shadow_skyline(query);
        self.record_diff(index, query, &truth, answer_ids, "shadow")
    }

    /// Cross-checks a cache-fronted answer against the answer of a direct
    /// distributed run of the same query. Returns `true` when a violation
    /// was recorded.
    pub fn crosscheck_cache(
        &mut self,
        index: usize,
        query: Query,
        cached_ids: &[u64],
        direct_ids: &[u64],
    ) -> bool {
        self.stats.crosschecks += 1;
        self.record_diff(index, query, direct_ids, cached_ids, "cache")
    }

    fn record_diff(
        &mut self,
        index: usize,
        query: Query,
        want: &[u64],
        got: &[u64],
        kind: &'static str,
    ) -> bool {
        if want == got {
            return false;
        }
        let want_set: HashSet<u64> = want.iter().copied().collect();
        let got_set: HashSet<u64> = got.iter().copied().collect();
        let missing: Vec<PointLineage> = want
            .iter()
            .filter(|id| !got_set.contains(id))
            .map(|&id| self.resolver.lineage(id, query.subspace))
            .collect();
        let spurious: Vec<PointLineage> = got
            .iter()
            .filter(|id| !want_set.contains(id))
            .map(|&id| self.resolver.lineage(id, query.subspace))
            .collect();
        self.stats.violations += 1;
        self.stats.missing_points += missing.len() as u64;
        self.stats.spurious_points += spurious.len() as u64;
        self.violations.push(AuditViolation {
            query_index: index,
            dims: query.subspace.dims().collect(),
            kind,
            missing,
            spurious,
        });
        true
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::engine::{EngineConfig, FaultPlan, QueryRequest, RoutingMode, SkypeerEngine};
    use crate::variants::Variant;
    use skypeer_data::{DatasetKind, DatasetSpec, WorkloadSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::DominanceIndex;

    fn small_engine() -> SkypeerEngine {
        let n_superpeers = 4;
        let mut topology = TopologySpec::paper_default(n_superpeers, 22);
        topology.avg_degree = topology.avg_degree.min(n_superpeers as f64 - 1.0);
        SkypeerEngine::build(EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 4,
                points_per_peer: 25,
                kind: DatasetKind::Uniform,
                seed: 21,
            },
            topology,
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        })
    }

    #[test]
    fn lineage_is_consistent_with_the_engine_answer() {
        let engine = small_engine();
        let resolver = LineageResolver::new(&engine);
        let u = Subspace::from_dims(&[0, 2]);
        let q = Query { subspace: u, initiator: 0 };
        let answer = engine.run_query(q, Variant::Ftpm).result_ids;
        for id in 0..(12 * 25) as u64 {
            let l = resolver.lineage(id, u);
            let in_answer = answer.binary_search(&id).is_ok();
            assert_eq!(
                matches!(l.stage, LineageStage::InSkyline),
                in_answer,
                "lineage and answer disagree on #{id}: {:?}",
                l.stage
            );
            // Every witness claim must actually hold.
            if let Some(w) = l.stage.witness() {
                let wu = Subspace::from_dims(&w.dims);
                let victim = l.origin.as_ref().expect("witnessed points are generated");
                assert!(
                    if w.extended {
                        dominance::ext_dominates(&w.coords, &victim.coords, wu)
                    } else {
                        dominance::dominates(&w.coords, &victim.coords, wu)
                    },
                    "witness #{} does not dominate #{id}",
                    w.id
                );
            }
        }
    }

    #[test]
    fn lineage_stages_partition_the_pipeline() {
        let engine = small_engine();
        let resolver = LineageResolver::new(&engine);
        let u = Subspace::from_dims(&[1, 3]);
        let mut counts = [0usize; 5];
        for id in 0..(12 * 25) as u64 {
            let l = resolver.lineage(id, u);
            let origin = l.origin.as_ref().expect("generated");
            match l.stage {
                LineageStage::NotGenerated => counts[0] += 1,
                LineageStage::PrunedAtPeer(_) => {
                    assert!(!origin.in_ext_store);
                    counts[1] += 1;
                }
                LineageStage::PrunedAtSuperPeer(_) => {
                    assert!(!origin.in_ext_store);
                    counts[2] += 1;
                }
                LineageStage::Dominated(_) => {
                    assert!(origin.in_ext_store);
                    counts[3] += 1;
                }
                LineageStage::InSkyline => {
                    assert!(origin.in_ext_store, "answers come from ext stores");
                    counts[4] += 1;
                }
            }
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 0, "uniform data always ext-prunes something at peers");
        assert!(counts[3] > 0 && counts[4] > 0, "store splits into dominated and skyline");
        // An id beyond the dataset is NotGenerated.
        let l = resolver.lineage(10_000, u);
        assert_eq!(l.stage, LineageStage::NotGenerated);
        assert!(l.origin.is_none());
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let engine = small_engine();
        let a = Auditor::new(&engine, AuditSpec { sample_rate: 0.25, seed: 7 });
        let b = Auditor::new(&engine, AuditSpec { sample_rate: 0.25, seed: 7 });
        let hits: Vec<bool> = (0..1000).map(|i| a.should_sample(i)).collect();
        assert_eq!(hits, (0..1000).map(|i| b.should_sample(i)).collect::<Vec<_>>());
        let n = hits.iter().filter(|&&h| h).count();
        assert!((150..350).contains(&n), "got {n} samples at rate 0.25");
        let all = Auditor::new(&engine, AuditSpec { sample_rate: 1.0, seed: 7 });
        assert!((0..100).all(|i| all.should_sample(i)));
        let none = Auditor::new(&engine, AuditSpec { sample_rate: 0.0, seed: 7 });
        assert!(!(0..100).any(|i| none.should_sample(i)));
    }

    #[test]
    fn clean_answers_pass_and_corrupted_answers_are_named() {
        let engine = small_engine();
        let mut auditor = Auditor::new(&engine, AuditSpec { sample_rate: 1.0, seed: 1 });
        let workload = WorkloadSpec { dim: 4, k: 2, queries: 4, n_superpeers: 4, seed: 3 };
        for (i, q) in workload.generate().into_iter().enumerate() {
            let out = engine.run_query(q, Variant::Ftpm);
            assert!(!auditor.check_answer(i, q, &out.result_ids), "clean run must audit clean");
        }
        assert_eq!(auditor.stats.violations, 0);

        // Corrupt an answer by hand: drop its first point.
        let q = Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 };
        let mut ids = engine.run_query(q, Variant::Ftpm).result_ids;
        let victim = ids.remove(0);
        assert!(auditor.check_answer(99, q, &ids));
        let v = auditor.violations.last().unwrap();
        assert_eq!(v.query_index, 99);
        assert_eq!(v.missing.len(), 1);
        assert_eq!(v.missing[0].id, victim);
        assert!(v.spurious.is_empty());
        let text = v.render();
        assert!(text.contains(&format!("#{victim}")), "{text}");
        assert!(text.contains("peer "), "{text}");
        assert!(text.contains("on {0,1}"), "{text}");
        let json = v.to_json();
        assert!(json.contains(r#""kind":"shadow""#), "{json}");
        assert!(json.contains(r#""stage":"in-skyline""#), "{json}");
    }

    #[test]
    fn answer_fault_drops_exactly_one_id_and_audit_catches_it() {
        let engine = small_engine();
        let q = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 1 };
        let clean = engine.run_query_observed(q, Variant::Ftpm, None);
        // Pick a victim homed away from the initiator so it must cross
        // the wire.
        let resolver = LineageResolver::new(&engine);
        let victim = *clean
            .result_ids
            .iter()
            .find(|&&id| {
                let l = resolver.lineage(id, q.subspace);
                l.origin.as_ref().map(|o| o.super_peer) != Some(q.initiator)
            })
            .expect("some answer point is remote");
        let faults = FaultPlan {
            answer_fault: Some(AnswerFault { drop_id: victim }),
            ..FaultPlan::default()
        };
        let faulty =
            engine.execute(&QueryRequest { faults, ..QueryRequest::new(q, Variant::Ftpm) }, None);
        assert!(!faulty.result_ids.contains(&victim), "the fault must remove the victim");
        assert_eq!(faulty.volume_bytes, clean.volume_bytes, "tamper must not change bytes");
        assert_eq!(faulty.messages, clean.messages, "tamper must not change messages");

        let mut auditor = Auditor::new(&engine, AuditSpec { sample_rate: 1.0, seed: 1 });
        assert!(auditor.check_answer(0, q, &faulty.result_ids));
        let v = &auditor.violations[0];
        assert!(v.missing.iter().any(|l| l.id == victim), "violation names the dropped point");
    }

    #[test]
    fn tamper_leaves_non_answer_messages_alone() {
        let fault = AnswerFault { drop_id: 3 };
        let query = Msg::Query {
            qid: 1,
            subspace: Subspace::from_dims(&[0]),
            threshold: f64::INFINITY,
            variant: Variant::Ftpm,
            flavour: skypeer_skyline::Dominance::Standard,
        };
        assert_eq!(fault.tamper(&query), None);
        let points = |ids: &[u64]| {
            let mut set = PointSet::new(2);
            for &id in ids {
                set.push(&[id as f64, 10.0 - id as f64], id);
            }
            Arc::new(SortedDataset::from_set(&set))
        };
        // The sampling filter is a list too, but only pruning: it stays.
        let filter = Msg::SampleQuery {
            qid: 1,
            subspace: Subspace::from_dims(&[0]),
            flavour: skypeer_skyline::Dominance::Standard,
            filter: points(&[3, 4]),
        };
        assert_eq!(fault.tamper(&filter), None);
        // Both result lists lose the victim and keep their flags.
        let answer = Msg::Answer { qid: 1, done: true, complete: true, points: points(&[3, 4]) };
        let Some(Msg::Answer { qid: 1, done: true, complete: true, points: kept }) =
            fault.tamper(&answer)
        else {
            panic!("tampered message must stay an answer with its flags");
        };
        assert_eq!(kept, points(&[4]));
        let candidates = Msg::Candidates { qid: 2, complete: false, points: points(&[4, 3]) };
        let Some(Msg::Candidates { qid: 2, complete: false, points: kept }) =
            fault.tamper(&candidates)
        else {
            panic!("tampered message must stay a candidate list with its flags");
        };
        assert_eq!(kept, points(&[4]));
        // Lists without the victim pass through untouched.
        let benign = Msg::Answer { qid: 1, done: false, complete: true, points: points(&[9]) };
        assert_eq!(fault.tamper(&benign), None);
        let benign = Msg::Candidates { qid: 1, complete: true, points: points(&[9, 4]) };
        assert_eq!(fault.tamper(&benign), None);
    }
}

//! Network construction and query execution — the experiment driver.
//!
//! [`SkypeerEngine::build`] generates the synthetic network of the paper's
//! Section 6: `N_p` peers attached evenly to `N_sp` super-peers on a random
//! connected backbone, per-peer data, and the preprocessing phase. Queries
//! then run on the deterministic DES.
//!
//! A [`QueryRequest`] names everything one simulated query varies: the
//! query, the variant, the dominance flavour, the backend, per-link
//! overrides and a [`FaultPlan`]. [`SkypeerEngine::execute`] runs it in
//! one simulation with the configured links; it is the one executor behind
//! the observed, cached, failure-injected and sampling paths, the churn
//! runner and the CLI.
//!
//! [`SkypeerEngine::run_query`] simulates a query twice:
//!
//! * with the paper's **4 KB/s** link model — yielding the *total response
//!   time* and the *volume of transferred data*;
//! * with **zero-delay** links — yielding the *computational time* (the
//!   critical path of computation alone, "neglecting network delays" as
//!   the paper puts it for Figure 3(b)).
//!
//! Both runs execute the full protocol: every message is sent, delivered
//! and charged, and every merge runs. Local skylines are the exception:
//! each super-peer's Algorithm 1 (or BNL) run of the first simulation is
//! recorded, keyed by super-peer and incoming threshold, and the second
//! simulation replays it when it meets the same key, reporting the same
//! work and the same notes. The kernels are deterministic, so a replay
//! returns exactly what a fresh run would and every simulated number is
//! unchanged. The spanning tree that duplicate suppression induces can
//! differ between the two link models (first arrival wins), which is fine:
//! each metric is read from the run whose link model defines it. Under
//! `FT*`/naive every super-peer sees the initiator's threshold in both
//! runs, so every local skyline is replayed; an `RT*` super-peer whose
//! parent differs can see a different threshold and then computes afresh.
//!
//! The answers of the two runs are still checked against each other, and
//! the check loses nothing: where a replay stands in for a computation,
//! the two runs would have run the same deterministic kernel on the same
//! inputs, which can never disagree. What can differ is still compared:
//! routing, merges, and every local skyline computed from another
//! threshold. Under [`CostModel::Measured`] the second run charges a
//! replayed local skyline the wall time measured for it in the first run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use skypeer_data::{DatasetSpec, Query};
use skypeer_netsim::cost::CostModel;
use skypeer_netsim::des::{Behavior, LinkModel, Sim};
use skypeer_netsim::obs::{TraceEvent, Tracer};
use skypeer_netsim::topology::{Topology, TopologySpec};
use skypeer_skyline::{Dominance, DominanceIndex, SortedDataset, Subspace};

use crate::audit::AnswerFault;
use crate::backend::{sampling_nodes, BackendKind};
use crate::msg::Msg;
use crate::node::{FinalAnswer, InitQuery, Initiator, LocalRunMemo, SuperPeerNode};
use crate::preprocess::{preprocess_network, PreprocessReport};
use crate::variants::Variant;

/// Query dissemination strategy (see [`crate::node::Routing`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingMode {
    /// The paper's constrained flooding with duplicate suppression.
    #[default]
    Flood,
    /// Precomputed BFS spanning tree per initiator (routing-index style):
    /// no duplicate queries, no dup-acks, at the cost of maintaining
    /// per-root trees.
    SpanningTree,
}

/// Everything needed to build a SKYPEER network.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of peers `N_p`.
    pub n_peers: usize,
    /// Number of super-peers `N_sp`. The paper uses `5% · N_p`, dropping to
    /// `1%` for `N_p ≥ 20000`; see [`EngineConfig::paper_superpeers`].
    pub n_superpeers: usize,
    /// Dataset specification (dimensionality, points per peer, kind, seed).
    pub dataset: DatasetSpec,
    /// Backbone specification (degree `DEG_sp`, model, seed).
    pub topology: TopologySpec,
    /// Dominance index used by every kernel.
    pub index: DominanceIndex,
    /// Computation cost model for the simulator.
    pub cost: CostModel,
    /// Link model for the total-time run (the computational-time run always
    /// uses zero-delay links).
    pub link: LinkModel,
    /// Query dissemination strategy.
    pub routing: RoutingMode,
}

impl EngineConfig {
    /// The paper's super-peer count rule: `N_sp = 5% · N_p`, or `1%` for
    /// `N_p ≥ 20000`, never less than one.
    pub fn paper_superpeers(n_peers: usize) -> usize {
        let frac = if n_peers >= 20_000 { 0.01 } else { 0.05 };
        ((n_peers as f64 * frac).round() as usize).max(1)
    }

    /// The paper's default configuration (Section 6) at a chosen network
    /// size: `d = 8`, 250 points/peer, uniform data, `DEG_sp = 4`, 4 KB/s.
    pub fn paper_default(n_peers: usize, seed: u64) -> Self {
        let n_superpeers = Self::paper_superpeers(n_peers);
        // Tiny backbones cannot host the paper's degree 4; clamp rather
        // than surprise users experimenting at toy scale.
        let mut topology = TopologySpec::paper_default(n_superpeers, seed.wrapping_add(1));
        topology.avg_degree = topology.avg_degree.min(n_superpeers.saturating_sub(1) as f64);
        EngineConfig {
            n_peers,
            n_superpeers,
            dataset: DatasetSpec::paper_default(seed),
            topology,
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        }
    }
}

/// Metrics of one query execution.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The exact subspace skyline (global point ids, sorted).
    pub result_ids: Vec<u64>,
    /// Whether every super-peer contributed (always `true` without the
    /// fault-tolerance extension / node failures).
    pub complete: bool,
    /// The result points themselves (`f`-ascending).
    pub result: SortedDataset,
    /// Simulated response time with the configured link model, ns.
    pub total_time_ns: u64,
    /// Simulated response time with zero-delay links, ns — the paper's
    /// "computational time". Only [`SkypeerEngine::run_query`] and the
    /// calls built on it run the zero-delay simulation that defines it;
    /// every single-simulation path (observed, cached, failure-injected,
    /// other backends) reports 0. That simulation replays the local
    /// skylines the configured-link run computed, which leaves the value
    /// unchanged and the cross-check of the two answers as strong as
    /// before; under [`CostModel::Measured`] it charges them the wall
    /// times measured in that run (see the module docs).
    pub comp_time_ns: u64,
    /// Bytes transferred (configured-link run).
    pub volume_bytes: u64,
    /// Messages delivered (configured-link run).
    pub messages: u64,
    /// Messages dropped — by dead nodes or injected faults (configured-link
    /// run; always 0 on a failure-free query).
    pub dropped: u64,
    /// Total computation service time across all super-peers, ns.
    pub compute_ns_total: u64,
    /// Sequential communication rounds of the configured-link run — the
    /// maximum causal message depth (see
    /// [`skypeer_netsim::des::SimStats::rounds`]). SKYPEER floods scale
    /// with backbone diameter; the sampling backend is constant at 2.
    pub rounds: u64,
}

/// Averages over a batch of queries (the paper reports averages over 100).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryMetrics {
    /// Number of queries aggregated.
    pub queries: usize,
    /// Mean total response time, ns.
    pub avg_total_time_ns: f64,
    /// Mean computational time, ns.
    pub avg_comp_time_ns: f64,
    /// Mean transferred volume, bytes.
    pub avg_volume_bytes: f64,
    /// Mean delivered messages.
    pub avg_messages: f64,
    /// Mean dropped messages (non-zero only under failure injection).
    pub avg_dropped: f64,
}

impl QueryMetrics {
    /// Folds a batch of outcomes into averages.
    pub fn from_outcomes(outcomes: &[QueryOutcome]) -> Self {
        if outcomes.is_empty() {
            return QueryMetrics::default();
        }
        let n = outcomes.len() as f64;
        QueryMetrics {
            queries: outcomes.len(),
            avg_total_time_ns: outcomes.iter().map(|o| o.total_time_ns as f64).sum::<f64>() / n,
            avg_comp_time_ns: outcomes.iter().map(|o| o.comp_time_ns as f64).sum::<f64>() / n,
            avg_volume_bytes: outcomes.iter().map(|o| o.volume_bytes as f64).sum::<f64>() / n,
            avg_messages: outcomes.iter().map(|o| o.messages as f64).sum::<f64>() / n,
            avg_dropped: outcomes.iter().map(|o| o.dropped as f64).sum::<f64>() / n,
        }
    }
}

/// Result of a concurrent query batch (see
/// [`SkypeerEngine::run_concurrent`]).
#[derive(Clone, Debug)]
pub struct ConcurrentOutcome {
    /// Per-query sorted result ids, in batch order.
    pub result_ids: Vec<Vec<u64>>,
    /// Simulated time until the *last* query completed.
    pub makespan_ns: u64,
    /// Total bytes moved by the whole batch.
    pub volume_bytes: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Simulated completion time of each query, in completion order (one
    /// entry per query; the last equals `makespan_ns`). Read from the
    /// run's `Finish` trace events, so a workload runner can build a
    /// latency distribution from a single concurrent batch.
    pub finish_times_ns: Vec<u64>,
}

/// Faults injected into one simulated query (see [`QueryRequest`]). The
/// default injects none.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Super-peers that crash, with the simulated time of each crash:
    /// from then on they neither receive nor send.
    pub crashes: Vec<(usize, u64)>,
    /// Fault-tolerance extension (the paper's future work): every
    /// super-peer abandons children that stay silent this long after the
    /// query was forwarded, and flags the answer incomplete. With it, a
    /// query terminates whatever crashes.
    pub child_timeout_ns: Option<u64>,
    /// Silent in-flight answer corruption (audit drills). It changes no
    /// timing and no byte count, only the delivered answers.
    pub answer_fault: Option<AnswerFault>,
}

/// One query as [`SkypeerEngine::execute`] runs it.
///
/// Under a fault plan with a crash or a child timeout the answer may be
/// flagged incomplete; it is then the exact skyline *of the data that
/// reached the initiator*: relative to the true global skyline it may miss
/// points held by lost subtrees and may contain points that only a lost
/// subtree could have dominated. A complete answer is the exact global
/// skyline.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// The subspace and the initiating super-peer.
    pub query: Query,
    /// The SKYPEER strategy; the sampling backend has no variant axis and
    /// ignores it.
    pub variant: Variant,
    /// The dominance flavour of every kernel. Extended makes the initiator
    /// end up with the *global extended skyline* `ext-SKY_U`, a superset
    /// of `SKY_U` (Observation 3) that can be refined locally into the
    /// exact `SKY_{U'}` for **any** `U' ⊆ U` (see
    /// [`skypeer_skyline::extended::refine_from_ext`]) — which is what
    /// makes it worth caching. The run stays exact because removing
    /// ext-dominated points never removes a point another peer could not
    /// also ext-dominate, and threshold pruning stays sound: `f(p) >
    /// dist_U(q)` implies `q` is strictly smaller than `p` on every
    /// dimension of `U`.
    pub flavour: Dominance,
    /// The distributed-skyline protocol.
    pub backend: BackendKind,
    /// Per-directed-link overrides of the configured [`LinkModel`], for
    /// perturbation experiments: capture a baseline trace, bump one link's
    /// latency, capture again, and diff the two. They change timings only.
    pub link_overrides: Vec<(usize, usize, LinkModel)>,
    /// Injected faults.
    pub faults: FaultPlan,
}

impl QueryRequest {
    /// `query` under `variant`: standard dominance, the SKYPEER backend,
    /// the configured links and no faults.
    pub fn new(query: Query, variant: Variant) -> Self {
        QueryRequest {
            query,
            variant,
            flavour: Dominance::Standard,
            backend: BackendKind::Skypeer,
            link_overrides: Vec::new(),
            faults: FaultPlan::default(),
        }
    }
}

/// A built SKYPEER network, ready to answer queries. It is `Sync`: queries
/// may run on several threads at once.
///
/// ```
/// use skypeer_core::{EngineConfig, SkypeerEngine, Variant};
/// use skypeer_data::Query;
/// use skypeer_skyline::Subspace;
///
/// let engine = SkypeerEngine::build(EngineConfig::paper_default(100, 7));
/// let query = Query { subspace: Subspace::from_dims(&[0, 3]), initiator: 2 };
/// let out = engine.run_query(query, Variant::Ftpm);
/// assert_eq!(out.result_ids, engine.centralized_skyline(query.subspace));
/// assert!(out.complete);
/// ```
pub struct SkypeerEngine {
    config: EngineConfig,
    topology: Topology,
    /// Per-super-peer merged ext-skyline stores, shared with simulator
    /// nodes.
    stores: Vec<Arc<SortedDataset>>,
    preprocess: PreprocessReport,
    next_qid: AtomicU32,
}

const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<SkypeerEngine>();
};

impl SkypeerEngine {
    /// Generates topology and data and runs the preprocessing phase (in
    /// parallel across super-peers; see [`preprocess_network`]).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero peers/super-peers,
    /// topology/spec size mismatch).
    pub fn build(config: EngineConfig) -> Self {
        assert!(config.n_peers > 0, "need at least one peer");
        assert_eq!(
            config.topology.n_superpeers, config.n_superpeers,
            "topology spec does not match super-peer count"
        );
        let topology = config.topology.generate();
        let peer_home = topology.assign_peers(config.n_peers);
        // Each peer's data is generated inside the preprocessing worker
        // that consumes it, so the raw network is never held at once.
        let (stores, preprocess) = preprocess_network(
            &peer_home,
            config.n_superpeers,
            config.dataset.dim,
            config.index,
            |p| config.dataset.generate_peer(p, peer_home[p]),
        );
        let stores = stores.into_iter().map(|s| s.store).collect();
        SkypeerEngine::from_stores(config, topology, stores, preprocess)
    }

    /// An engine over stores preprocessed elsewhere — from a CSV file, for
    /// instance. Queries read the index, cost model, link model and routing
    /// of `config`; its dataset spec only describes the data to tools that
    /// regenerate it (lineage, audits).
    ///
    /// # Panics
    ///
    /// Panics unless there is one store per super-peer of `topology`.
    pub fn from_stores(
        config: EngineConfig,
        topology: Topology,
        stores: Vec<Arc<SortedDataset>>,
        preprocess: PreprocessReport,
    ) -> Self {
        assert_eq!(topology.len(), stores.len(), "one store per super-peer required");
        SkypeerEngine { config, topology, stores, preprocess, next_qid: AtomicU32::new(1) }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The super-peer backbone.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Preprocessing statistics (Figure 3(a) quantities).
    pub fn preprocess_report(&self) -> &PreprocessReport {
        &self.preprocess
    }

    /// The merged ext-skyline stored at super-peer `sp`.
    pub fn store(&self, sp: usize) -> &SortedDataset {
        &self.stores[sp]
    }

    /// The backbone and stores the engine's queries run on.
    fn backbone(&self) -> Backbone<'_> {
        Backbone {
            topology: &self.topology,
            stores: &self.stores,
            index: self.config.index,
            routing: self.config.routing,
        }
    }

    /// Allocates `n` consecutive query ids (wrapping), returning the first.
    /// The counter publishes no other data, so `Relaxed` suffices.
    fn alloc_qids(&self, n: u32) -> u32 {
        self.next_qid.fetch_add(n, Ordering::Relaxed)
    }

    /// Executes one query in a **single** simulation with the configured
    /// links, optionally traced. There is no zero-delay run, so
    /// `comp_time_ns` is reported as 0 (see [`SkypeerEngine::run_query`]).
    ///
    /// # Panics
    ///
    /// Panics if a fault plan without crashes and child timeouts leaves the
    /// answer incomplete (a protocol bug), if the query never finishes (a
    /// crash without a child timeout can stall it), or if the sampling
    /// backend is asked to survive crashes or timeouts, which it cannot.
    pub fn execute(&self, req: &QueryRequest, tracer: Option<Arc<dyn Tracer>>) -> QueryOutcome {
        let (link, cost) = (self.config.link, self.config.cost);
        self.backbone().execute(self.alloc_qids(1), req, link, cost, tracer)
    }

    /// Executes one query under `variant` on the DES and returns its
    /// metrics.
    ///
    /// # Panics
    ///
    /// Panics if either simulation fails to complete (a protocol bug) or if
    /// the two runs disagree on the result (ditto).
    pub fn run_query(&self, query: Query, variant: Variant) -> QueryOutcome {
        self.run_query_inner(query, variant, None).0
    }

    /// [`SkypeerEngine::run_query`] with a [`Tracer`] observing the
    /// total-time (configured-link) run — the run whose timings define the
    /// response time, so its trace is the one worth profiling. The
    /// zero-delay computational-time run stays untraced.
    pub fn run_query_traced(
        &self,
        query: Query,
        variant: Variant,
        tracer: Arc<dyn Tracer>,
    ) -> QueryOutcome {
        self.run_query_inner(query, variant, Some(tracer)).0
    }

    /// The soak-runner path: [`SkypeerEngine::execute`] of a plain
    /// [`QueryRequest::new`]. A long workload pays one simulation per query
    /// instead of two; `comp_time_ns` is reported as 0.
    pub fn run_query_observed(
        &self,
        query: Query,
        variant: Variant,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> QueryOutcome {
        self.execute(&QueryRequest::new(query, variant), tracer)
    }

    /// [`SkypeerEngine::run_query`], also returning how many local
    /// skylines the zero-delay run replayed.
    fn run_query_inner(
        &self,
        query: Query,
        variant: Variant,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> (QueryOutcome, usize) {
        let qid = self.alloc_qids(1);
        let req = QueryRequest::new(query, variant);
        // Both runs share one memo, so the zero-delay run replays the local
        // skylines the configured-link run computed.
        let memo = Arc::new(LocalRunMemo::default());
        let leg = |link, tracer| {
            let nodes = self.backbone().nodes(Some((qid, &req)), Some(&memo));
            simulate(nodes, &req, link, self.config.cost, tracer)
        };
        // Total-time run with the configured (4 KB/s) links, then the
        // computational-time run with zero-delay links.
        let real = leg(self.config.link, tracer);
        let zero = leg(LinkModel::zero_delay(), None);
        assert!(real.complete && zero.complete, "failure-free runs must be complete");
        assert_eq!(
            real.result_ids, zero.result_ids,
            "link model must not change the query answer (variant {variant})"
        );
        (QueryOutcome { comp_time_ns: zero.total_time_ns, ..real }, memo.hits())
    }

    /// Runs a whole batch of queries **concurrently** in one simulation:
    /// all initiators fire at t = 0, messages of different queries share
    /// nodes and links, and per-node busy time plus per-link bandwidth
    /// capture the queueing between them. Returns the per-query results
    /// (in input order) plus batch metrics.
    ///
    /// The paper runs its 100-query workloads serially; this extension
    /// measures what a loaded network does instead. Flood routing only.
    ///
    /// # Panics
    ///
    /// Panics under [`RoutingMode::SpanningTree`] (a tree is rooted at a
    /// single initiator) or if the batch does not complete.
    pub fn run_concurrent(&self, batch: &[(Query, Variant)]) -> ConcurrentOutcome {
        assert!(
            self.config.routing == RoutingMode::Flood,
            "concurrent batches require flood routing"
        );
        assert!(!batch.is_empty(), "empty batch");
        let base_qid = self.alloc_qids(batch.len() as u32);

        let mut nodes = self.backbone().nodes(None, None);
        let mut starts: Vec<usize> = Vec::new();
        for (i, (q, variant)) in batch.iter().enumerate() {
            let qid = base_qid.wrapping_add(i as u32);
            nodes[q.initiator].push_init_query(InitQuery::standard(qid, q.subspace, *variant));
            if !starts.contains(&q.initiator) {
                starts.push(q.initiator);
            }
        }
        let finishes = Arc::new(FinishTimes::default());
        let out = Sim::new(nodes, self.config.link, self.config.cost)
            .with_tracer(Arc::clone(&finishes) as Arc<dyn Tracer>)
            .run_multi(&starts, batch.len());
        let makespan_ns = out.stats.finished_at.expect("batch must complete");

        let mut per_query: Vec<Vec<u64>> = Vec::with_capacity(batch.len());
        for (i, (q, _)) in batch.iter().enumerate() {
            let qid = base_qid.wrapping_add(i as u32);
            let answer = out.nodes[q.initiator]
                .outcome_for(qid)
                .unwrap_or_else(|| panic!("query {qid} missing at its initiator"));
            assert!(answer.complete, "failure-free batch must be complete");
            per_query.push(sorted_ids(&answer.result));
        }
        let finish_times_ns = std::mem::take(&mut *finishes.0.lock().expect("tracer poisoned"));
        ConcurrentOutcome {
            result_ids: per_query,
            makespan_ns,
            volume_bytes: out.stats.bytes,
            messages: out.stats.messages,
            finish_times_ns,
        }
    }

    /// The exact global subspace skyline, computed centrally from the
    /// super-peer stores (lossless by Observation 4) — the oracle the
    /// distributed answers are verified against. It runs Algorithm 2 on
    /// the linear dominance window whatever the configured index, so an
    /// R-tree defect cannot agree with itself.
    pub fn centralized_skyline(&self, u: Subspace) -> Vec<u64> {
        let refs: Vec<&SortedDataset> = self.stores.iter().map(|a| a.as_ref()).collect();
        let merged = skypeer_skyline::merge::merge_sorted(
            &refs,
            u,
            Dominance::Standard,
            f64::INFINITY,
            DominanceIndex::Linear,
        );
        sorted_ids(&merged.result)
    }
}

/// The backbone and stores one run's nodes are built over, and how they
/// route and index. The engine, the churn runner and the live runtime
/// each describe their network with one.
pub(crate) struct Backbone<'a> {
    pub(crate) topology: &'a Topology,
    pub(crate) stores: &'a [Arc<SortedDataset>],
    pub(crate) index: DominanceIndex,
    pub(crate) routing: RoutingMode,
}

impl Backbone<'_> {
    /// One SKYPEER node per super-peer. With `run = Some((qid, req))` the
    /// initiator starts `req` as query `qid`, spanning-tree routing roots
    /// at it, and every node arms the request's child timeout; with `None`
    /// no node starts a query. `memo` shares local skyline runs with the
    /// other simulations of the same query.
    pub(crate) fn nodes(
        &self,
        run: Option<(u32, &QueryRequest)>,
        memo: Option<&Arc<LocalRunMemo>>,
    ) -> Vec<SuperPeerNode> {
        let initiator = run.map(|(_, req)| req.query.initiator);
        let tree = match (self.routing, initiator) {
            (RoutingMode::SpanningTree, Some(root)) => Some(self.topology.bfs_tree(root)),
            _ => None,
        };
        let child_timeout = run.and_then(|(_, req)| req.faults.child_timeout_ns);
        (0..self.topology.len())
            .map(|sp| {
                let init = run.filter(|_| initiator == Some(sp)).map(|(qid, req)| InitQuery {
                    qid,
                    subspace: req.query.subspace,
                    variant: req.variant,
                    flavour: req.flavour,
                });
                let mut node = SuperPeerNode::new(
                    sp,
                    self.topology.neighbors(sp).to_vec(),
                    Arc::clone(&self.stores[sp]),
                    self.index,
                    init,
                );
                if let Some(children) = &tree {
                    node = node.with_tree_routing(children[sp].clone());
                }
                if let Some(timeout) = child_timeout {
                    node = node.with_child_timeout(timeout);
                }
                match memo {
                    Some(memo) => node.with_local_run_memo(Arc::clone(memo)),
                    None => node,
                }
            })
            .collect()
    }

    /// The executor: runs `req` as query `qid` in one simulation over
    /// `link` and `cost` (see [`SkypeerEngine::execute`]).
    pub(crate) fn execute(
        &self,
        qid: u32,
        req: &QueryRequest,
        link: LinkModel,
        cost: CostModel,
        tracer: Option<Arc<dyn Tracer>>,
    ) -> QueryOutcome {
        let resilient = !req.faults.crashes.is_empty() || req.faults.child_timeout_ns.is_some();
        let out = match req.backend {
            BackendKind::Skypeer => {
                simulate(self.nodes(Some((qid, req)), None), req, link, cost, tracer)
            }
            BackendKind::Sampling => {
                assert!(!resilient, "the sampling backend cannot survive crashes or timeouts");
                let Query { subspace, initiator } = req.query;
                let nodes =
                    sampling_nodes(self.stores, self.index, initiator, qid, subspace, req.flavour);
                simulate(nodes, req, link, cost, tracer)
            }
        };
        assert!(resilient || out.complete, "failure-free runs must be complete");
        out
    }
}

/// Runs one single-query simulation of `nodes` from `req`'s initiator,
/// with its link overrides and faults, and reads the initiator's answer.
fn simulate<B: Behavior<Msg = Msg> + Initiator>(
    nodes: Vec<B>,
    req: &QueryRequest,
    link: LinkModel,
    cost: CostModel,
    tracer: Option<Arc<dyn Tracer>>,
) -> QueryOutcome {
    let mut sim = Sim::new(nodes, link, cost);
    for &(from, to, model) in &req.link_overrides {
        sim = sim.with_link_override(from, to, model);
    }
    for &(node, at) in &req.faults.crashes {
        sim = sim.with_node_failure(node, at);
    }
    if let Some(fault) = req.faults.answer_fault {
        sim = sim.with_delivery_hook(move |_, _, msg| Some(fault.tamper(&msg).unwrap_or(msg)));
    }
    if let Some(tracer) = tracer {
        sim = sim.with_tracer(tracer);
    }
    let out = sim.run(req.query.initiator);
    let answer = FinalAnswer::take(out.nodes, req.query.initiator);
    let stats = out.stats;
    QueryOutcome {
        result_ids: sorted_ids(&answer.result),
        complete: answer.complete,
        result: answer.result,
        total_time_ns: stats.finished_at.expect("query must complete"),
        comp_time_ns: 0,
        volume_bytes: stats.bytes,
        messages: stats.messages,
        dropped: stats.dropped,
        compute_ns_total: stats.compute_ns_total,
        rounds: stats.rounds,
    }
}

/// The ids of `set`, sorted.
pub(crate) fn sorted_ids(set: &SortedDataset) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..set.len()).map(|i| set.points().id(i)).collect();
    ids.sort_unstable();
    ids
}

/// Keeps the time of every `Finish` event, in record order: the
/// completion times of a concurrent batch.
#[derive(Default)]
struct FinishTimes(Mutex<Vec<u64>>);

impl Tracer for FinishTimes {
    fn record(&self, ev: TraceEvent) {
        if let TraceEvent::Finish { at, .. } = ev {
            self.0.lock().expect("tracer poisoned").push(at);
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_data::DatasetKind;

    fn tiny_config(seed: u64) -> EngineConfig {
        let n_superpeers = 6;
        EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
            topology: TopologySpec::paper_default(n_superpeers, seed),
            index: DominanceIndex::Linear,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        }
    }

    #[test]
    fn every_variant_returns_the_exact_skyline() {
        let engine = SkypeerEngine::build(tiny_config(3));
        let query = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 1 };
        let want = engine.centralized_skyline(query.subspace);
        assert!(!want.is_empty());
        for variant in Variant::ALL {
            let out = engine.run_query(query, variant);
            assert_eq!(out.result_ids, want, "variant {variant}");
        }
    }

    #[test]
    fn exactness_across_initiators_and_subspaces() {
        let engine = SkypeerEngine::build(tiny_config(8));
        for initiator in 0..6 {
            for u in [Subspace::from_dims(&[1]), Subspace::from_dims(&[0, 3]), Subspace::full(4)] {
                let want = engine.centralized_skyline(u);
                let query = Query { subspace: u, initiator };
                for variant in [Variant::Ftpm, Variant::Rtfm, Variant::Naive] {
                    let out = engine.run_query(query, variant);
                    assert_eq!(out.result_ids, want, "init {initiator} U {u} {variant}");
                }
            }
        }
    }

    #[test]
    fn skypeer_moves_less_data_than_naive() {
        let engine = SkypeerEngine::build(tiny_config(5));
        let query = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 0 };
        let naive = engine.run_query(query, Variant::Naive);
        for variant in Variant::SKYPEER {
            let out = engine.run_query(query, variant);
            assert!(
                out.volume_bytes <= naive.volume_bytes,
                "{variant} volume {} > naive {}",
                out.volume_bytes,
                naive.volume_bytes
            );
        }
    }

    #[test]
    fn progressive_merging_moves_less_than_fixed() {
        let engine = SkypeerEngine::build(tiny_config(13));
        let query = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 2 };
        let ftfm = engine.run_query(query, Variant::Ftfm);
        let ftpm = engine.run_query(query, Variant::Ftpm);
        assert!(
            ftpm.volume_bytes <= ftfm.volume_bytes,
            "FTPM {} should not exceed FTFM {}",
            ftpm.volume_bytes,
            ftfm.volume_bytes
        );
    }

    #[test]
    fn metrics_average_correctly() {
        let engine = SkypeerEngine::build(tiny_config(21));
        let queries = [
            Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 },
            Query { subspace: Subspace::from_dims(&[2, 3]), initiator: 3 },
        ];
        let outcomes: Vec<QueryOutcome> =
            queries.iter().map(|q| engine.run_query(*q, Variant::Ftpm)).collect();
        let m = QueryMetrics::from_outcomes(&outcomes);
        assert_eq!(m.queries, 2);
        let manual = (outcomes[0].total_time_ns as f64 + outcomes[1].total_time_ns as f64) / 2.0;
        assert_eq!(m.avg_total_time_ns, manual);
        assert_eq!(QueryMetrics::from_outcomes(&[]), QueryMetrics::default());
    }

    #[test]
    fn traced_query_is_identical_and_critical_path_accounts_response_time() {
        use skypeer_netsim::obs::{critical_path, MemTracer, Tracer};
        let engine = SkypeerEngine::build(tiny_config(9));
        let query = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 1 };
        let plain = engine.run_query(query, Variant::Ftpm);
        let tracer = Arc::new(MemTracer::new());
        let traced =
            engine.run_query_traced(query, Variant::Ftpm, Arc::clone(&tracer) as Arc<dyn Tracer>);
        assert_eq!(plain.result_ids, traced.result_ids);
        assert_eq!(plain.total_time_ns, traced.total_time_ns);
        assert_eq!(plain.volume_bytes, traced.volume_bytes);
        let events = tracer.take();
        assert!(!events.is_empty());
        let path = critical_path(&events).expect("query finished");
        assert_eq!(path.finish_at, traced.total_time_ns);
        assert_eq!(
            path.total_ns, traced.total_time_ns,
            "critical path must account for the whole response time"
        );
    }

    /// Runs `query` through `run_query` and checks it against the single
    /// simulations it stands for: its configured-link leg must equal the
    /// observed run, and its zero-delay leg, which replays local skylines,
    /// must equal a fresh zero-delay simulation without them. Returns how
    /// many local skylines the zero-delay leg replayed.
    fn check_against_single_sims(engine: &SkypeerEngine, query: Query, variant: Variant) -> usize {
        use skypeer_netsim::obs::{MemTracer, Tracer};
        let case = format!("{:?} {query:?} {variant}", engine.config);
        let (full, hits) = engine.run_query_inner(query, variant, None);

        let tracer = Arc::new(MemTracer::new());
        let observed =
            engine.run_query_observed(query, variant, Some(Arc::clone(&tracer) as Arc<dyn Tracer>));
        assert_eq!(observed.result_ids, full.result_ids, "{case}");
        assert_eq!(observed.total_time_ns, full.total_time_ns, "{case}");
        assert_eq!(observed.volume_bytes, full.volume_bytes, "{case}");
        assert_eq!(observed.messages, full.messages, "{case}");
        assert_eq!(observed.compute_ns_total, full.compute_ns_total, "{case}");
        assert_eq!(observed.comp_time_ns, 0, "no zero-delay leg on the observed path");
        assert!(!tracer.take().is_empty(), "the single sim is traced");

        let req = QueryRequest::new(query, variant);
        let nodes = engine.backbone().nodes(Some((engine.alloc_qids(1), &req)), None);
        let fresh = simulate(nodes, &req, LinkModel::zero_delay(), engine.config.cost, None);
        assert!(fresh.complete, "{case}");
        assert_eq!(fresh.total_time_ns, full.comp_time_ns, "{case}");
        assert_eq!(fresh.result_ids, full.result_ids, "{case}");
        assert_eq!(fresh.result_ids, engine.centralized_skyline(query.subspace), "{case}");
        hits
    }

    #[test]
    fn observed_run_matches_the_real_link_leg_of_run_query() {
        for kind in [DatasetKind::Uniform, DatasetKind::Anticorrelated] {
            for routing in [RoutingMode::Flood, RoutingMode::SpanningTree] {
                for index in [DominanceIndex::Linear, DominanceIndex::RTree] {
                    let mut cfg = tiny_config(17);
                    cfg.dataset.kind = kind;
                    cfg.routing = routing;
                    cfg.index = index;
                    let engine = SkypeerEngine::build(cfg);
                    for initiator in [0, 2, 5] {
                        for dims in [&[0, 3][..], &[1, 2, 3]] {
                            let query = Query { subspace: Subspace::from_dims(dims), initiator };
                            for variant in Variant::ALL {
                                let hits = check_against_single_sims(&engine, query, variant);
                                // Each super-peer computes once per leg. An
                                // RT* super-peer's threshold comes from its
                                // parent; FT*/naive ones all get the
                                // initiator's, and a tree fixes every parent.
                                if !variant.refines_threshold() || routing != RoutingMode::Flood {
                                    assert_eq!(hits, cfg.n_superpeers, "{query:?} {variant}");
                                }
                            }
                        }
                    }
                }
            }
        }

        // Half the super-peers hold no peers, so their local skylines cost
        // next to nothing: the zero-delay leg routes the RT* query around
        // the loaded ones, and some super-peers meet another threshold.
        let n_superpeers = 12;
        let mut topology = TopologySpec::paper_default(n_superpeers, 0);
        topology.avg_degree = 3.0;
        let engine = SkypeerEngine::build(EngineConfig {
            n_peers: 6,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 4,
                points_per_peer: 60,
                kind: DatasetKind::Anticorrelated,
                seed: 0,
            },
            topology,
            ..tiny_config(0)
        });
        let query = Query { subspace: Subspace::from_dims(&[1, 2, 3]), initiator: 1 };
        for variant in [Variant::Rtfm, Variant::Rtpm] {
            let hits = check_against_single_sims(&engine, query, variant);
            assert!(
                hits > 0 && hits < n_superpeers,
                "{variant}: {hits} of {n_superpeers} replayed"
            );
        }
    }

    #[test]
    fn concurrent_batch_reports_per_query_finish_times() {
        let engine = SkypeerEngine::build(tiny_config(11));
        let batch = [
            (Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 }, Variant::Ftpm),
            (Query { subspace: Subspace::from_dims(&[2, 3]), initiator: 4 }, Variant::Rtfm),
            (Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 2 }, Variant::Naive),
        ];
        let out = engine.run_concurrent(&batch);
        assert_eq!(out.finish_times_ns.len(), batch.len());
        assert!(out.finish_times_ns.windows(2).all(|w| w[0] <= w[1]), "completion order");
        assert_eq!(*out.finish_times_ns.last().unwrap(), out.makespan_ns);
    }

    #[test]
    fn runs_are_deterministic() {
        let engine = SkypeerEngine::build(tiny_config(30));
        let query = Query { subspace: Subspace::from_dims(&[1, 2]), initiator: 1 };
        let a = engine.run_query(query, Variant::Rtpm);
        let b = engine.run_query(query, Variant::Rtpm);
        assert_eq!(a.result_ids, b.result_ids);
        assert_eq!(a.total_time_ns, b.total_time_ns);
        assert_eq!(a.volume_bytes, b.volume_bytes);
    }

    #[test]
    fn single_superpeer_network_works() {
        let mut cfg = tiny_config(2);
        cfg.n_superpeers = 1;
        cfg.topology = TopologySpec::paper_default(1, 2);
        cfg.n_peers = 3;
        let engine = SkypeerEngine::build(cfg);
        let query = Query { subspace: Subspace::from_dims(&[0, 1]), initiator: 0 };
        for variant in Variant::ALL {
            let out = engine.run_query(query, variant);
            assert_eq!(out.result_ids, engine.centralized_skyline(query.subspace));
            assert_eq!(out.volume_bytes, 0, "no network traffic with one super-peer");
        }
    }

    #[test]
    fn paper_superpeer_rule() {
        assert_eq!(EngineConfig::paper_superpeers(4000), 200);
        assert_eq!(EngineConfig::paper_superpeers(12000), 600);
        assert_eq!(EngineConfig::paper_superpeers(20000), 200);
        assert_eq!(EngineConfig::paper_superpeers(80000), 800);
        assert_eq!(EngineConfig::paper_superpeers(5), 1);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use skypeer_data::DatasetKind;
    use skypeer_netsim::obs::{MemTracer, MetricsRegistry};

    #[test]
    fn fixed_merging_concentrates_on_the_initiator() {
        let n_superpeers = 10;
        let engine = SkypeerEngine::build(EngineConfig {
            n_peers: 40,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 6,
                points_per_peer: 60,
                kind: DatasetKind::Uniform,
                seed: 3,
            },
            topology: TopologySpec::paper_default(n_superpeers, 4),
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: RoutingMode::Flood,
        });
        let q = Query { subspace: Subspace::from_dims(&[0, 2, 4]), initiator: 0 };
        // Where one query's computation and traffic concentrated, read
        // from its trace: the initiator's share of all service time, the
        // bytes into the initiator, and the run's metrics.
        let profile = |variant| {
            let tracer = Arc::new(MemTracer::new());
            let req = QueryRequest::new(q, variant);
            let out = engine.execute(&req, Some(Arc::clone(&tracer) as Arc<dyn Tracer>));
            let m = MetricsRegistry::from_events(&tracer.take());
            let total: u64 = m.per_node.iter().map(|n| n.service_ns).sum();
            let share = m.per_node[q.initiator].service_ns as f64 / total as f64;
            let inbound: u64 =
                m.link_bytes.iter().filter(|(&(_, to), _)| to == q.initiator).map(|(_, b)| b).sum();
            (share, inbound, m, out)
        };
        let (fm_share, fm_inbound, fm, fm_out) = profile(Variant::Ftfm);
        let (pm_share, pm_inbound, _, _) = profile(Variant::Ftpm);
        assert!(
            fm_share > pm_share,
            "fixed merging must load the initiator more ({fm_share:.3} vs {pm_share:.3})"
        );
        assert!(fm_inbound > pm_inbound, "fixed merging must funnel more bytes into the initiator");
        assert!(fm.hottest_node().is_some());
        assert!(fm_inbound <= fm_out.volume_bytes);
    }
}

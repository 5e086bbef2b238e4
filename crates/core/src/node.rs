//! The SKYPEER super-peer state machine (Algorithm 3).
//!
//! One [`SuperPeerNode`] per super-peer, runnable on either the DES or the
//! live runtime. A query executes as follows:
//!
//! * An **initiator** (a node constructed with an [`InitQuery`]) computes
//!   its local subspace skyline to obtain the threshold `t` (SKYPEER
//!   variants), then floods `q(U, t)` to its neighbors.
//! * On first receipt of the query, a super-peer adopts the sender as its
//!   **parent** in the implicit spanning tree and forwards the query to its
//!   other neighbors; later receipts are answered with a [`Msg::DupAck`]
//!   so the sender does not await a subtree that is not there.
//! * `FT*`/naive nodes forward the query *before* computing (the local
//!   computation is deferred behind a zero-byte self-message, so in the
//!   simulator propagation and computation overlap, as they would in a
//!   threaded deployment). `RT*` nodes compute first, refine `t`, and
//!   forward the tightened query — buying pruning at the price of
//!   serialized propagation, exactly the trade-off the paper evaluates.
//! * `*FM`/naive nodes relay every child result straight toward the
//!   initiator; `*PM` nodes buffer child results and send a single merged
//!   list (Algorithm 2) upward once their subtree completes.
//! * A node's subtree is complete when its local computation is done and
//!   every neighbor it forwarded to has either sent its final
//!   (`done = true`) answer or a `DupAck`. The initiator then performs the
//!   final merge and declares its query finished.
//!
//! State is keyed by query id, so any number of queries — from the same or
//! different initiators — can be in flight concurrently through one node;
//! the runtime's per-node busy model then captures the queueing between
//! them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use skypeer_netsim::cost::WorkReport;
use skypeer_netsim::des::{Behavior, Context};
use skypeer_netsim::obs::{ProtoEvent, QueryPhase};
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::sorted::{KernelStats, ThresholdOutcome};
use skypeer_skyline::{bnl, Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};

use crate::msg::Msg;
use crate::variants::Variant;

/// A query this node initiates at start of run.
#[derive(Clone, Copy, Debug)]
pub struct InitQuery {
    /// Query identifier — must be unique across the queries of one run.
    pub qid: u32,
    /// Requested subspace `U`.
    pub subspace: Subspace,
    /// Execution strategy.
    pub variant: Variant,
    /// Dominance flavour applied by every kernel of the run. Standard is
    /// the ordinary protocol; Extended computes the global extended
    /// subspace skyline (the cacheable superset — see `skypeer-cache`).
    pub flavour: Dominance,
}

impl InitQuery {
    /// An ordinary (standard-dominance) query.
    pub fn standard(qid: u32, subspace: Subspace, variant: Variant) -> Self {
        InitQuery { qid, subspace, variant, flavour: Dominance::Standard }
    }

    /// An extended-dominance query: the distributed run returns
    /// `ext-SKY_U`, which a cache can refine into `SKY_V` for any
    /// `V ⊆ U`. Exactness holds because the per-super-peer stores are
    /// extended skylines (so no global ext-skyline point is lost locally)
    /// and threshold pruning is sound under extended dominance:
    /// `f(p) > dist_U(q)` means `q` is strictly below `p` on every
    /// dimension of `U`, i.e. `q` ext-dominates `p`.
    pub fn extended(qid: u32, subspace: Subspace, variant: Variant) -> Self {
        InitQuery { qid, subspace, variant, flavour: Dominance::Extended }
    }
}

/// Per-query bookkeeping on one super-peer.
struct QueryState {
    subspace: Subspace,
    variant: Variant,
    /// Dominance flavour every kernel of this query applies.
    flavour: Dominance,
    /// Tightest threshold known to this node (∞ for naive).
    threshold: f64,
    /// Node the query arrived from (`None` on the initiator).
    parent: Option<usize>,
    /// Neighbors forwarded to whose subtrees have not yet closed.
    outstanding: Vec<usize>,
    /// Local subspace skyline, once computed.
    local: Option<SortedDataset>,
    /// Buffered result lists: children's lists (`*PM`) or everything that
    /// reached the initiator (`*FM`/naive).
    collected: Vec<Arc<SortedDataset>>,
    /// Whether this node already sent its final answer / finished.
    finalized: bool,
    /// Whether every super-peer of this subtree contributed. Cleared when
    /// a timed-out child is abandoned or a child reports incompleteness.
    complete: bool,
}

impl QueryState {
    /// Fresh state for query `q`, arriving with `threshold` from `parent`
    /// (`None` on the initiator).
    fn new(q: InitQuery, threshold: f64, parent: Option<usize>) -> Self {
        QueryState {
            subspace: q.subspace,
            variant: q.variant,
            flavour: q.flavour,
            threshold,
            parent,
            outstanding: Vec::new(),
            local: None,
            collected: Vec::new(),
            finalized: false,
            complete: true,
        }
    }
}

/// The initiator's final answer.
#[derive(Clone, Debug)]
pub struct FinalAnswer {
    /// The subspace skyline, `f`-ascending. Exact when `complete`.
    pub result: SortedDataset,
    /// Whether every reachable super-peer contributed. `false` only under
    /// the fault-tolerance extension, after abandoning failed subtrees.
    pub complete: bool,
}

/// A node type whose initiator holds the final answer of a single-query
/// run.
pub(crate) trait Initiator {
    /// The single final answer, consuming the node.
    fn into_outcome(self) -> Option<FinalAnswer>;
}

impl FinalAnswer {
    /// The answer the initiator among `nodes` holds after its single query
    /// finished.
    pub(crate) fn take<B: Initiator>(nodes: Vec<B>, initiator: usize) -> FinalAnswer {
        nodes
            .into_iter()
            .nth(initiator)
            .expect("initiator exists")
            .into_outcome()
            .expect("initiator must hold the final result after completion")
    }
}

/// How queries spread over the backbone.
///
/// The paper's protocol floods: every node forwards to all neighbors
/// except the sender, duplicate receipts are dup-acked, and the spanning
/// tree emerges from first arrivals. Systems with routing indices at the
/// super-peer level (the paper cites Edutella) can instead precompute an
/// explicit spanning tree per initiator and forward only along it —
/// trading the index maintenance for the elimination of every duplicate
/// query and dup-ack. Provided as an ablation
/// (`EngineConfig::routing`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Gnutella-style constrained flooding (the paper's protocol).
    Flood,
    /// Forward only to the given children of a precomputed spanning tree.
    Tree {
        /// This node's children in the tree rooted at the initiator.
        children: Vec<usize>,
    },
}

/// What one local skyline run reports besides its result.
#[derive(Clone, Copy)]
struct LocalWork {
    /// The outgoing threshold.
    threshold: f64,
    stats: KernelStats,
    measured: Duration,
}

/// One recorded local skyline run: the result as positions in the
/// super-peer's store, in result order, and what the run reported.
struct LocalRun {
    positions: Vec<u32>,
    work: LocalWork,
}

/// The local skyline runs of one query, shared by the nodes of every
/// simulation of it (same stores, subspace, variant and flavour). A
/// super-peer that meets the query with an incoming threshold it already
/// computed from replays that run instead of computing it again: the
/// kernels are deterministic, so the replay returns exactly what they
/// would. `SkypeerEngine::run_query` shares one between its two legs.
#[derive(Default)]
pub(crate) struct LocalRunMemo {
    /// Runs by super-peer and incoming-threshold bits.
    runs: Mutex<HashMap<(usize, u64), LocalRun>>,
    hits: AtomicUsize,
}

impl LocalRunMemo {
    /// The run `sp` recorded from `threshold`, its result rebuilt from
    /// `store`.
    fn replay(
        &self,
        sp: usize,
        threshold: f64,
        store: &SortedDataset,
    ) -> Option<(SortedDataset, LocalWork)> {
        let runs = self.runs.lock().expect("no simulation panicked while holding the memo");
        let run = runs.get(&(sp, threshold.to_bits()))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((from_positions(store, &run.positions), run.work))
    }

    /// Records the run `sp` computed from `threshold`. Each result point
    /// is found in `store` by its `f` value, then by id and coordinate
    /// bits among the points tied with it on `f`.
    fn record(
        &self,
        sp: usize,
        threshold: f64,
        store: &SortedDataset,
        result: &SortedDataset,
        work: LocalWork,
    ) {
        let (all, found) = (store.points(), result.points());
        let same_bits =
            |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let positions: Vec<u32> = (0..found.len())
            .map(|i| {
                let first_tie = store.f_values().partition_point(|&f| f < result.f(i));
                let p = (first_tie..all.len())
                    .find(|&p| all.id(p) == found.id(i) && same_bits(all.point(p), found.point(i)))
                    .expect("a local skyline point is a store point");
                u32::try_from(p).expect("store positions fit in u32")
            })
            .collect();
        debug_assert!(from_positions(store, &positions) == *result);
        self.runs
            .lock()
            .expect("no simulation panicked while holding the memo")
            .insert((sp, threshold.to_bits()), LocalRun { positions, work });
    }

    /// How many local skyline runs were replayed.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Algorithm 2 over a node's `local` list and the `collected` ones,
/// reporting the merge's work to `ctx`.
pub(crate) fn merge_reported(
    local: &SortedDataset,
    collected: &[Arc<SortedDataset>],
    subspace: Subspace,
    flavour: Dominance,
    threshold: f64,
    index: DominanceIndex,
    ctx: &mut dyn Context<Msg>,
) -> ThresholdOutcome {
    let started = Instant::now();
    let mut lists: Vec<&SortedDataset> = Vec::with_capacity(collected.len() + 1);
    lists.push(local);
    lists.extend(collected.iter().map(Arc::as_ref));
    let merged = merge_sorted(&lists, subspace, flavour, threshold, index);
    ctx.report_work(WorkReport {
        dominance_tests: merged.stats.dominance_tests,
        points_scanned: merged.stats.points_scanned,
        measured: Some(started.elapsed()),
    });
    merged
}

/// The points of `store` at `positions`, with their `f` values.
fn from_positions(store: &SortedDataset, positions: &[u32]) -> SortedDataset {
    let positions: Vec<usize> = positions.iter().map(|&p| p as usize).collect();
    let f = positions.iter().map(|&p| store.f(p)).collect();
    SortedDataset::from_sorted_parts(store.points().gather(&positions), f)
}

/// A super-peer node: stored ext-skyline plus protocol state.
pub struct SuperPeerNode {
    id: usize,
    neighbors: Vec<usize>,
    store: Arc<SortedDataset>,
    index: DominanceIndex,
    init_queries: Vec<InitQuery>,
    routing: Routing,
    /// Fault-tolerance extension: abandon children that have not closed
    /// their subtree within this many (simulated) nanoseconds of the query
    /// being forwarded. `None` (the paper's protocol) waits forever.
    child_timeout: Option<u64>,
    /// Local skyline runs shared with other simulations of the same query.
    memo: Option<Arc<LocalRunMemo>>,
    states: HashMap<u32, QueryState>,
    /// Final answers of the queries this node initiated, in completion
    /// order.
    pub outcomes: Vec<(u32, FinalAnswer)>,
}

impl SuperPeerNode {
    /// Creates a node. Pass `init_query: Some(..)` on the initiator (use
    /// [`SuperPeerNode::push_init_query`] for additional concurrent
    /// queries).
    pub fn new(
        id: usize,
        neighbors: Vec<usize>,
        store: Arc<SortedDataset>,
        index: DominanceIndex,
        init_query: Option<InitQuery>,
    ) -> Self {
        SuperPeerNode {
            id,
            neighbors,
            store,
            index,
            init_queries: init_query.into_iter().collect(),
            routing: Routing::Flood,
            child_timeout: None,
            memo: None,
            states: HashMap::new(),
            outcomes: Vec::new(),
        }
    }

    /// Registers another query for this node to initiate at start of run.
    /// Query ids must be unique across the whole run.
    pub fn push_init_query(&mut self, q: InitQuery) {
        self.init_queries.push(q);
    }

    /// Enables the fault-tolerance extension: children that have not
    /// closed their subtree within `timeout_ns` of the query forward are
    /// abandoned, and the result is flagged incomplete.
    pub fn with_child_timeout(mut self, timeout_ns: u64) -> Self {
        self.child_timeout = Some(timeout_ns);
        self
    }

    /// Shares `memo` with the nodes of other simulations of the same
    /// query (see [`LocalRunMemo`]).
    pub(crate) fn with_local_run_memo(mut self, memo: Arc<LocalRunMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Switches this node to spanning-tree routing with the given
    /// children (see [`Routing::Tree`]). Tree routing supports a single
    /// query per run (the tree is rooted at one initiator).
    pub fn with_tree_routing(mut self, children: Vec<usize>) -> Self {
        self.routing = Routing::Tree { children };
        self
    }

    /// The single final answer of a single-query run, consuming the node.
    pub fn into_outcome(self) -> Option<FinalAnswer> {
        self.outcomes.into_iter().next().map(|(_, a)| a)
    }

    /// The final answer of one specific query, if this node initiated and
    /// completed it.
    pub fn outcome_for(&self, qid: u32) -> Option<&FinalAnswer> {
        self.outcomes.iter().find(|(q, _)| *q == qid).map(|(_, a)| a)
    }

    /// Runs the local computation, or replays the memo's run for this
    /// incoming threshold. Updates the state's threshold and reports the
    /// work to the runtime; a replay reports what the run reported.
    fn compute_local(&mut self, qid: u32, ctx: &mut dyn Context<Msg>) {
        let state = self.states.get(&qid).expect("compute without state");
        let (subspace, flavour, variant) = (state.subspace, state.flavour, state.variant);
        let old_threshold = state.threshold;
        let replayed =
            self.memo.as_ref().and_then(|memo| memo.replay(self.id, old_threshold, &self.store));
        let (result, work) = match replayed {
            Some(replayed) => replayed,
            None => {
                let (result, work) = self.local_skyline(subspace, flavour, variant, old_threshold);
                if let Some(memo) = &self.memo {
                    memo.record(self.id, old_threshold, &self.store, &result, work);
                }
                (result, work)
            }
        };
        ctx.report_work(WorkReport {
            dominance_tests: work.stats.dominance_tests,
            points_scanned: work.stats.points_scanned,
            measured: Some(work.measured),
        });
        if variant.uses_threshold() {
            ctx.note(ProtoEvent::ThresholdRefine { qid, old: old_threshold, new: work.threshold });
        }
        if work.stats.pruned_by_threshold > 0 {
            ctx.note(ProtoEvent::Prune { qid, pruned: work.stats.pruned_by_threshold });
        }
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::LocalDone });
        let state = self.states.get_mut(&qid).expect("state checked above");
        state.threshold = work.threshold;
        state.local = Some(result);
    }

    /// Computes the local skyline: Algorithm 1 from `threshold` for SKYPEER
    /// variants, plain BNL for the naive baseline.
    fn local_skyline(
        &self,
        subspace: Subspace,
        flavour: Dominance,
        variant: Variant,
        threshold: f64,
    ) -> (SortedDataset, LocalWork) {
        let started = Instant::now();
        let (result, threshold, stats) = if variant.uses_threshold() {
            let out = self.store.subspace_skyline(subspace, flavour, threshold, self.index);
            (out.result, out.threshold, out.stats)
        } else {
            let (indices, bstats) = bnl::skyline_with_stats(self.store.points(), subspace, flavour);
            let set = self.store.points().gather(&indices);
            let stats = KernelStats {
                dominance_tests: bstats.dominance_tests,
                points_scanned: bstats.points_scanned,
                pruned_by_threshold: 0,
            };
            (SortedDataset::from_set(&set), f64::INFINITY, stats)
        };
        (result, LocalWork { threshold, stats, measured: started.elapsed() })
    }

    /// Sends the query onward to every neighbor except the parent, which
    /// makes the neighbors contacted the outstanding set. Arms the child
    /// timeout, if configured.
    fn forward_query(&mut self, qid: u32, ctx: &mut dyn Context<Msg>) {
        let state = self.states.get_mut(&qid).expect("forward without state");
        let msg = Msg::Query {
            qid,
            subspace: state.subspace,
            threshold: state.threshold,
            variant: state.variant,
            flavour: state.flavour,
        };
        let targets: Vec<usize> = match &self.routing {
            Routing::Flood => {
                self.neighbors.iter().copied().filter(|&n| Some(n) != state.parent).collect()
            }
            Routing::Tree { children } => children.clone(),
        };
        for &n in &targets {
            ctx.send(n, msg.clone());
        }
        if !targets.is_empty() {
            if let Some(timeout) = self.child_timeout {
                ctx.set_timer(timeout, u64::from(qid));
            }
            ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Forwarded });
        }
        state.outstanding = targets;
    }

    /// Runs a query just installed on this node. With `compute_first`
    /// the local computation runs before forwarding, so the query carries
    /// the tightened threshold. Otherwise the query is forwarded at once
    /// and the computation deferred behind a zero-byte self-message, so
    /// propagation is not serialized behind it.
    fn launch(&mut self, qid: u32, compute_first: bool, ctx: &mut dyn Context<Msg>) {
        if compute_first {
            self.compute_local(qid, ctx);
            self.forward_query(qid, ctx);
            self.check_finalize(qid, ctx);
        } else {
            self.forward_query(qid, ctx);
            ctx.send(self.id, Msg::ComputeLocal { qid });
        }
    }

    /// Final-merge + completion check; called whenever local computation
    /// finishes or a subtree closes.
    fn check_finalize(&mut self, qid: u32, ctx: &mut dyn Context<Msg>) {
        let ready = {
            let state = self.states.get(&qid).expect("finalize without state");
            !state.finalized && state.local.is_some() && state.outstanding.is_empty()
        };
        if !ready {
            return;
        }
        let state = self.states.get_mut(&qid).expect("finalize without state");
        state.finalized = true;
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Finalized });
        let local = state.local.take().expect("local result checked above");
        let collected = std::mem::take(&mut state.collected);
        let QueryState { subspace, variant, flavour, threshold, parent, complete, .. } = *state;
        if let Some(parent) = parent {
            // Progressive merging sends children + local as one list
            // (Algorithm 2); under fixed merging the children's lists were
            // already relayed and the local result goes alone.
            let answer = if variant.merges_progressively() {
                merge_reported(&local, &collected, subspace, flavour, threshold, self.index, ctx)
                    .result
            } else {
                local
            };
            ctx.send(parent, Msg::Answer { qid, done: true, complete, points: Arc::new(answer) });
            return;
        }
        // The initiator merges everything that reached it with its local
        // result.
        let result = if variant.uses_threshold() {
            let merged =
                merge_reported(&local, &collected, subspace, flavour, threshold, self.index, ctx);
            if merged.stats.pruned_by_threshold > 0 {
                ctx.note(ProtoEvent::Prune { qid, pruned: merged.stats.pruned_by_threshold });
            }
            merged.result
        } else {
            // Naive: plain BNL over the concatenation of all lists.
            let started = Instant::now();
            let mut all = PointSet::new(self.store.dim());
            all.extend_from(local.points());
            for l in &collected {
                all.extend_from(l.points());
            }
            let (indices, bstats) = bnl::skyline_with_stats(&all, subspace, flavour);
            ctx.report_work(WorkReport {
                dominance_tests: bstats.dominance_tests,
                points_scanned: bstats.points_scanned,
                measured: Some(started.elapsed()),
            });
            SortedDataset::from_set(&all.gather(&indices))
        };
        self.outcomes.push((qid, FinalAnswer { result, complete }));
        ctx.finish();
    }

    fn on_query(&mut self, from: usize, q: InitQuery, threshold: f64, ctx: &mut dyn Context<Msg>) {
        let qid = q.qid;
        if self.states.contains_key(&qid) {
            // Already part of this query's spanning tree via another
            // neighbor.
            ctx.send(from, Msg::DupAck { qid });
            return;
        }
        self.states.insert(qid, QueryState::new(q, threshold, Some(from)));
        ctx.note(ProtoEvent::ThresholdInstall { qid, value: threshold });
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Started });
        // RT* nodes compute first, tightening the threshold they forward.
        self.launch(qid, q.variant.refines_threshold(), ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_answer(
        &mut self,
        from: usize,
        qid: u32,
        done: bool,
        complete: bool,
        points: Arc<SortedDataset>,
        ctx: &mut dyn Context<Msg>,
    ) {
        let Some(state) = self.states.get_mut(&qid) else {
            debug_assert!(false, "answer for unknown query {qid}");
            return;
        };
        if !state.outstanding.contains(&from) {
            // A straggler from a subtree we already abandoned (timeout) or
            // never awaited: its data is lost, which the completeness flag
            // already accounts for.
            return;
        }
        state.complete &= complete;
        let is_initiator = state.parent.is_none();
        if state.variant.merges_progressively() || is_initiator {
            if !points.is_empty() {
                state.collected.push(points);
            }
        } else {
            // Fixed merging at an interior node: relay toward the initiator
            // (before any completion bookkeeping, so FIFO links preserve
            // list-before-done ordering).
            let parent = state.parent.expect("interior node has a parent");
            if !points.is_empty() {
                ctx.send(parent, Msg::Answer { qid, done: false, complete, points });
            }
        }
        if done {
            let state = self.states.get_mut(&qid).expect("state checked above");
            state.outstanding.retain(|&c| c != from);
            self.check_finalize(qid, ctx);
        }
    }

    /// Start-of-run behavior for one of this node's own queries.
    fn start_query(&mut self, init: InitQuery, ctx: &mut dyn Context<Msg>) {
        let qid = init.qid;
        let prev = self.states.insert(qid, QueryState::new(init, f64::INFINITY, None));
        assert!(prev.is_none(), "duplicate query id {qid} in one run");
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Started });
        // "P_init first executes the local subspace skyline computation to
        // obtain an initial value for t, and then the query is forwarded"
        // (Section 5.2.3).
        self.launch(qid, init.variant.uses_threshold(), ctx);
    }
}

impl Initiator for SuperPeerNode {
    fn into_outcome(self) -> Option<FinalAnswer> {
        SuperPeerNode::into_outcome(self)
    }
}

impl Behavior for SuperPeerNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg>) {
        let inits = std::mem::take(&mut self.init_queries);
        assert!(!inits.is_empty(), "on_start on a node without a query");
        for init in inits {
            self.start_query(init, ctx);
        }
    }

    fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Context<Msg>) {
        match msg {
            Msg::Query { qid, subspace, threshold, variant, flavour } => {
                let q = InitQuery { qid, subspace, variant, flavour };
                self.on_query(from, q, threshold, ctx);
            }
            Msg::Answer { qid, done, complete, points } => {
                self.on_answer(from, qid, done, complete, points, ctx);
            }
            Msg::DupAck { qid } => {
                let Some(state) = self.states.get_mut(&qid) else {
                    debug_assert!(false, "dup-ack for unknown query {qid}");
                    return;
                };
                state.outstanding.retain(|&c| c != from);
                self.check_finalize(qid, ctx);
            }
            Msg::ComputeLocal { qid } => {
                debug_assert!(self.states.contains_key(&qid));
                self.compute_local(qid, ctx);
                self.check_finalize(qid, ctx);
            }
            other @ (Msg::SampleQuery { .. } | Msg::Candidates { .. }) => {
                debug_assert!(false, "sampling-backend message at a SKYPEER node: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<Msg>) {
        // The child timeout fired: abandon every subtree that has not
        // closed yet and settle for an incomplete (but still dominance-
        // correct) answer.
        let qid = tag as u32;
        let Some(state) = self.states.get_mut(&qid) else {
            return;
        };
        if state.finalized || state.outstanding.is_empty() {
            return;
        }
        state.outstanding.clear();
        state.complete = false;
        ctx.note(ProtoEvent::Phase { qid, phase: QueryPhase::Abandoned });
        self.check_finalize(qid, ctx);
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::{LinkModel, Sim};
    use skypeer_netsim::topology::Topology;
    use skypeer_skyline::brute;

    /// Builds one store per super-peer from deterministic pseudo-random
    /// points, returning the stores plus the union for oracle checks.
    fn stores(n: usize, points_each: usize) -> (Vec<Arc<SortedDataset>>, PointSet) {
        let mut all = PointSet::new(3);
        let mut x = 99u64;
        let mut out = Vec::new();
        for sp in 0..n {
            let mut set = PointSet::new(3);
            for i in 0..points_each {
                let mut c = [0.0; 3];
                for v in &mut c {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *v = ((x >> 33) % 1000) as f64 / 100.0;
                }
                let id = (sp * points_each + i) as u64;
                set.push(&c, id);
                all.push(&c, id);
            }
            let ext = skypeer_skyline::extended::ext_skyline(&set, DominanceIndex::Linear);
            out.push(Arc::new(ext.result));
        }
        (out, all)
    }

    fn run_on(
        topo: &Topology,
        stores: &[Arc<SortedDataset>],
        initiator: usize,
        variant: Variant,
        u: Subspace,
    ) -> (Vec<u64>, bool, skypeer_netsim::des::SimStats) {
        let nodes: Vec<SuperPeerNode> = (0..topo.len())
            .map(|sp| {
                let init = (sp == initiator).then_some(InitQuery::standard(9, u, variant));
                SuperPeerNode::new(
                    sp,
                    topo.neighbors(sp).to_vec(),
                    Arc::clone(&stores[sp]),
                    DominanceIndex::Linear,
                    init,
                )
            })
            .collect();
        let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(initiator);
        let answer = out
            .nodes
            .into_iter()
            .nth(initiator)
            .expect("initiator")
            .into_outcome()
            .expect("query completed");
        let mut ids: Vec<u64> =
            (0..answer.result.len()).map(|i| answer.result.points().id(i)).collect();
        ids.sort_unstable();
        (ids, answer.complete, out.stats)
    }

    #[test]
    fn triangle_topology_handles_dup_acks() {
        // A 3-cycle guarantees at least one duplicate query delivery; the
        // dup-ack path must still close every subtree.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let (stores, all) = stores(3, 20);
        let u = Subspace::from_dims(&[0, 2]);
        let want = brute::skyline_ids(&all, u, Dominance::Standard);
        for variant in Variant::ALL {
            let (ids, complete, _) = run_on(&topo, &stores, 0, variant, u);
            assert_eq!(ids, want, "{variant}");
            assert!(complete);
        }
    }

    #[test]
    fn deep_line_topology_chains_relays() {
        // A 7-node line maximizes relay depth for the FM variants.
        let edges: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 1)).collect();
        let topo = Topology::from_edges(7, &edges);
        let (stores, all) = stores(7, 15);
        let u = Subspace::full(3);
        let want = brute::skyline_ids(&all, u, Dominance::Standard);
        for initiator in [0, 3, 6] {
            for variant in [Variant::Ftfm, Variant::Rtpm, Variant::Naive] {
                let (ids, complete, _) = run_on(&topo, &stores, initiator, variant, u);
                assert_eq!(ids, want, "init {initiator} {variant}");
                assert!(complete);
            }
        }
    }

    #[test]
    fn star_initiator_is_pure_fanout() {
        let topo = Topology::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (stores, all) = stores(5, 15);
        let u = Subspace::from_dims(&[1]);
        let want = brute::skyline_ids(&all, u, Dominance::Standard);
        let (ids, _, stats) = run_on(&topo, &stores, 0, Variant::Ftpm, u);
        assert_eq!(ids, want);
        // Star from the hub: 4 queries out, 4 answers back, one deferred
        // self-compute per leaf (the FT initiator computes inline in
        // on_start, so no self-message for the hub).
        assert_eq!(stats.messages, 4 + 4 + 4);
    }

    #[test]
    fn fm_relays_preserve_every_list() {
        // On a line with the initiator at one end, every other node's local
        // result must arrive (relayed) — count distinct contributing ids.
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (stores, all) = stores(4, 25);
        let u = Subspace::from_dims(&[0, 1]);
        let (ids, _, _) = run_on(&topo, &stores, 0, Variant::Ftfm, u);
        assert_eq!(ids, brute::skyline_ids(&all, u, Dominance::Standard));
    }

    #[test]
    fn timeout_on_healthy_network_changes_nothing() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (stores, all) = stores(4, 20);
        let u = Subspace::from_dims(&[0, 2]);
        let nodes: Vec<SuperPeerNode> = (0..4)
            .map(|sp| {
                let init = (sp == 0).then_some(InitQuery::standard(1, u, Variant::Rtpm));
                SuperPeerNode::new(
                    sp,
                    topo.neighbors(sp).to_vec(),
                    Arc::clone(&stores[sp]),
                    DominanceIndex::Linear,
                    init,
                )
                .with_child_timeout(3_600_000_000_000) // one simulated hour
            })
            .collect();
        let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(0);
        let answer = out.nodes.into_iter().next().expect("node 0").into_outcome().expect("done");
        assert!(answer.complete, "generous timeout must never fire on a healthy run");
        let mut ids: Vec<u64> =
            (0..answer.result.len()).map(|i| answer.result.points().id(i)).collect();
        ids.sort_unstable();
        assert_eq!(ids, brute::skyline_ids(&all, u, Dominance::Standard));
    }

    #[test]
    fn late_answer_after_timeout_is_ignored() {
        // Line 0-1-2 where node 2's answers are hugely delayed by a slow
        // link; node 1 times out first, finalizes incomplete, then node
        // 2's answer arrives and must be dropped without corrupting state.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let (stores, _) = stores(3, 20);
        let u = Subspace::from_dims(&[0]);
        let nodes: Vec<SuperPeerNode> = (0..3)
            .map(|sp| {
                let init = (sp == 0).then_some(InitQuery::standard(1, u, Variant::Ftpm));
                SuperPeerNode::new(
                    sp,
                    topo.neighbors(sp).to_vec(),
                    Arc::clone(&stores[sp]),
                    DominanceIndex::Linear,
                    init,
                )
                .with_child_timeout(1) // 1ns: fires before any child answers
            })
            .collect();
        let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(0);
        let answer = out.nodes.into_iter().next().expect("node 0").into_outcome().expect("done");
        assert!(!answer.complete, "instant timeout abandons all children");
    }

    #[test]
    fn extended_flavour_run_returns_global_ext_skyline() {
        // An Extended-flavour distributed query must return exactly the
        // extended subspace skyline of the *union* of all raw data — the
        // invariant the result cache depends on. Threshold pruning and
        // progressive merging must not lose any ext-skyline point.
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (stores, all) = stores(4, 25);
        for u in [Subspace::from_dims(&[0, 1]), Subspace::full(3), Subspace::from_dims(&[2])] {
            let want = brute::skyline_ids(&all, u, Dominance::Extended);
            for variant in Variant::ALL {
                let nodes: Vec<SuperPeerNode> = (0..4)
                    .map(|sp| {
                        let init = (sp == 1).then_some(InitQuery::extended(5, u, variant));
                        SuperPeerNode::new(
                            sp,
                            topo.neighbors(sp).to_vec(),
                            Arc::clone(&stores[sp]),
                            DominanceIndex::Linear,
                            init,
                        )
                    })
                    .collect();
                let out = Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(1);
                let answer = out
                    .nodes
                    .into_iter()
                    .nth(1)
                    .expect("initiator")
                    .into_outcome()
                    .expect("query completed");
                assert!(answer.complete);
                let mut ids: Vec<u64> =
                    (0..answer.result.len()).map(|i| answer.result.points().id(i)).collect();
                ids.sort_unstable();
                assert_eq!(ids, want, "U={u} {variant}");
            }
        }
    }

    #[test]
    fn replayed_local_skylines_equal_computed_ones_on_f_ties() {
        // On the 0.01 grid many points tie on `f`, so store positions must
        // be found by id and coordinates, not by `f`.
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let (stores, _) = stores(5, 200);
        let run = |memo: Option<&Arc<LocalRunMemo>>, link, variant, u| {
            let nodes: Vec<SuperPeerNode> = (0..5)
                .map(|sp| {
                    let init = (sp == 0).then_some(InitQuery::standard(3, u, variant));
                    let node = SuperPeerNode::new(
                        sp,
                        topo.neighbors(sp).to_vec(),
                        Arc::clone(&stores[sp]),
                        DominanceIndex::RTree,
                        init,
                    );
                    match memo {
                        Some(memo) => node.with_local_run_memo(Arc::clone(memo)),
                        None => node,
                    }
                })
                .collect();
            let out = Sim::new(nodes, link, CostModel::default()).run(0);
            let answer = out.nodes.into_iter().next().expect("initiator").into_outcome();
            (answer.expect("query completed").result, out.stats)
        };
        for u in [Subspace::from_dims(&[0, 2]), Subspace::full(3)] {
            let tied = stores.iter().any(|s| {
                let local = s.subspace_skyline(
                    u,
                    Dominance::Standard,
                    f64::INFINITY,
                    DominanceIndex::RTree,
                );
                local.result.f_values().windows(2).any(|w| w[0] == w[1])
            });
            assert!(tied, "some local skyline on {u} has f ties");
            for variant in Variant::ALL {
                let memo = Arc::new(LocalRunMemo::default());
                let (first, _) = run(Some(&memo), LinkModel::paper_4kbps(), variant, u);
                let (replayed, replayed_stats) =
                    run(Some(&memo), LinkModel::zero_delay(), variant, u);
                let (fresh, fresh_stats) = run(None, LinkModel::zero_delay(), variant, u);
                assert_eq!(memo.hits(), 5, "U={u} {variant}");
                assert_eq!(replayed, fresh, "U={u} {variant}");
                assert_eq!(replayed, first, "U={u} {variant}");
                assert_eq!(replayed_stats.finished_at, fresh_stats.finished_at, "U={u} {variant}");
                assert_eq!(replayed_stats.compute_ns_total, fresh_stats.compute_ns_total);
                assert_eq!(replayed_stats.bytes, fresh_stats.bytes, "U={u} {variant}");
            }
        }
    }

    #[test]
    fn two_superpeers_minimal_network() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let (stores, all) = stores(2, 30);
        let u = Subspace::full(3);
        let want = brute::skyline_ids(&all, u, Dominance::Standard);
        for variant in Variant::ALL {
            let (ids, complete, stats) = run_on(&topo, &stores, 1, variant, u);
            assert_eq!(ids, want, "{variant}");
            assert!(complete);
            assert!(stats.messages >= 2, "at least a query and an answer cross the link");
        }
    }
}

//! Query EXPLAIN/ANALYZE: one traced execution distilled into a
//! plan-plus-execution report.
//!
//! [`SkypeerEngine::explain_query`] runs a query under full tracing and
//! derives an [`ExplainReport`]: the variant chosen, the super-peer
//! fan-out tree (who first received the query from whom, at what time),
//! the threshold timeline (install at the initiator, then every refine
//! with its value and originating node), per-super-peer prune
//! effectiveness (points skipped by the threshold vs. what was still
//! shipped), bytes per link against the naive all-the-data baseline, and
//! the critical path annotated with what each hop was waiting on.
//!
//! The report renders two ways: [`ExplainReport::render`] for humans and
//! [`ExplainReport::to_json`] for tools. The JSON is built on
//! `skypeer-obs`'s byte-deterministic builder, so on the DES the same
//! seed and flags reproduce the identical byte string — goldens compare
//! with `==`.

use crate::engine::{QueryRequest, RoutingMode, SkypeerEngine};
use crate::variants::Variant;
use skypeer_data::Query;
use skypeer_netsim::obs::critical::{render as render_critical, CriticalPath, StepKind};
use skypeer_netsim::obs::json;
use skypeer_netsim::obs::{
    critical_path, MemTracer, MetricsRegistry, ProtoEvent, SpanCause, TraceEvent, Tracer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a threshold value entered the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdKind {
    /// Installed verbatim on arrival of the query.
    Install,
    /// Tightened (or confirmed) by a local computation.
    Refine,
}

/// One entry of the threshold timeline.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdStep {
    /// Sim-time of the span that produced the value.
    pub at_ns: u64,
    /// Super-peer it happened on.
    pub node: usize,
    /// Install or refine.
    pub kind: ThresholdKind,
    /// Value before a refine (`None` for installs).
    pub old: Option<f64>,
    /// Value after this step.
    pub value: f64,
    /// Tightest value seen anywhere up to and including this step — the
    /// quantity that must be monotone non-increasing on a correct run.
    pub best: f64,
}

/// Threshold effectiveness on one super-peer.
#[derive(Clone, Copy, Debug, Default)]
pub struct PruneStats {
    /// Super-peer id.
    pub node: usize,
    /// Points its kernels scanned.
    pub points_scanned: u64,
    /// Dominance tests it performed.
    pub dominance_tests: u64,
    /// Points the threshold let it skip.
    pub pruned: u64,
    /// Bytes it still shipped.
    pub bytes_out: u64,
    /// Messages it sent.
    pub msgs_out: u64,
}

/// Bytes over one directed link, next to the naive baseline.
#[derive(Clone, Copy, Debug)]
pub struct LinkUsage {
    /// Sending super-peer.
    pub from: usize,
    /// Receiving super-peer.
    pub to: usize,
    /// Bytes under the explained variant.
    pub bytes: u64,
    /// Bytes the naive variant moved over the same link.
    pub naive_bytes: u64,
}

/// One edge of the query fan-out: `node` first heard about the query from
/// `parent` at `at_ns`.
#[derive(Clone, Copy, Debug)]
pub struct FanoutEdge {
    /// Receiving super-peer.
    pub node: usize,
    /// The neighbor whose copy arrived first.
    pub parent: usize,
    /// Hops from the initiator along first arrivals.
    pub depth: usize,
    /// First-arrival time.
    pub at_ns: u64,
}

/// The EXPLAIN/ANALYZE report of one query execution.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Variant the query ran under.
    pub variant: Variant,
    /// The queried subspace, rendered (`{d0,d2}` style).
    pub subspace: String,
    /// Dimensions of the subspace, ascending.
    pub dims: Vec<usize>,
    /// Initiating super-peer.
    pub initiator: usize,
    /// Network shape: peers.
    pub n_peers: usize,
    /// Network shape: super-peers.
    pub n_superpeers: usize,
    /// Query dissemination strategy.
    pub routing: RoutingMode,
    /// Skyline cardinality.
    pub result_points: usize,
    /// Whether every super-peer contributed.
    pub complete: bool,
    /// Simulated response time, configured links, ns.
    pub total_time_ns: u64,
    /// Simulated response time, zero-delay links, ns.
    pub comp_time_ns: u64,
    /// Bytes moved by this variant.
    pub volume_bytes: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes the naive variant moves for the same query.
    pub naive_bytes: u64,
    /// First-arrival fan-out tree, sorted by (arrival, node).
    pub fanout: Vec<FanoutEdge>,
    /// Threshold timeline in execution order.
    pub thresholds: Vec<ThresholdStep>,
    /// Per-super-peer prune effectiveness, ascending node id (only nodes
    /// that did any work).
    pub pruning: Vec<PruneStats>,
    /// Per-link bytes vs. naive, ascending (from, to); union of the links
    /// either variant used.
    pub links: Vec<LinkUsage>,
    /// The chain of segments that determined the response time.
    pub critical: Option<CriticalPath>,
}

impl ExplainReport {
    /// Whether the running-best threshold never loosened — the invariant
    /// the RT* variants promise (FT* timelines are trivially monotone too:
    /// install once, refine locally downward).
    pub fn timeline_monotone(&self) -> bool {
        self.thresholds.windows(2).all(|w| w[1].best <= w[0].best)
            && self
                .thresholds
                .iter()
                .all(|s| s.old.map(|old| s.value <= old || old.is_nan()).unwrap_or(true))
    }

    /// `naive_bytes / volume_bytes` — how much traffic the variant saved.
    pub fn savings_factor(&self) -> f64 {
        if self.volume_bytes == 0 {
            if self.naive_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.naive_bytes as f64 / self.volume_bytes as f64
        }
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN skyline on {} via {} (initiator SP{})\n",
            self.subspace,
            self.variant.mnemonic(),
            self.initiator
        ));
        let routing = match self.routing {
            RoutingMode::Flood => "flood",
            RoutingMode::SpanningTree => "tree",
        };
        out.push_str(&format!(
            "network   : {} peers / {} super-peers, {routing} routing\n",
            self.n_peers, self.n_superpeers
        ));
        out.push_str(&format!(
            "result    : {} points (exact), complete={}\n",
            self.result_points, self.complete
        ));
        out.push_str(&format!(
            "times     : total {:.3} ms | computational {:.3} ms\n",
            self.total_time_ns as f64 / 1e6,
            self.comp_time_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "volume    : {:.1} KB in {} messages (naive baseline {:.1} KB, {:.2}x)\n",
            self.volume_bytes as f64 / 1024.0,
            self.messages,
            self.naive_bytes as f64 / 1024.0,
            self.savings_factor()
        ));

        out.push_str("\nquery fan-out (first receipt):\n");
        out.push_str(&format!("  SP{} (initiator)\n", self.initiator));
        for e in &self.fanout {
            out.push_str(&format!(
                "  {}SP{} <- SP{}  @ {:.3} ms\n",
                "  ".repeat(e.depth),
                e.node,
                e.parent,
                e.at_ns as f64 / 1e6
            ));
        }
        if self.fanout.is_empty() {
            out.push_str("  (single super-peer, nothing to forward)\n");
        }

        out.push_str("\nthreshold timeline:\n");
        if self.thresholds.is_empty() {
            out.push_str("  (none — naive runs carry no threshold)\n");
        } else {
            out.push_str(&format!(
                "  {:>10}  {:>6}  {:>8}  {:>22}  {:>10}\n",
                "ms", "node", "event", "value", "best"
            ));
            for s in &self.thresholds {
                let value = match (s.kind, s.old) {
                    (ThresholdKind::Refine, Some(old)) => {
                        format!("{} -> {}", fmt_threshold(old), fmt_threshold(s.value))
                    }
                    _ => fmt_threshold(s.value),
                };
                let kind = match s.kind {
                    ThresholdKind::Install => "install",
                    ThresholdKind::Refine => "refine",
                };
                out.push_str(&format!(
                    "  {:>10.3}  {:>6}  {:>8}  {:>22}  {:>10}\n",
                    s.at_ns as f64 / 1e6,
                    format!("SP{}", s.node),
                    kind,
                    value,
                    fmt_threshold(s.best)
                ));
            }
            out.push_str(&format!(
                "  monotone: {}\n",
                if self.timeline_monotone() { "yes" } else { "NO (protocol bug)" }
            ));
        }

        out.push_str("\nper-super-peer pruning:\n");
        out.push_str(&format!(
            "  {:>6}  {:>9}  {:>10}  {:>8}  {:>10}  {:>8}\n",
            "node", "scanned", "dom.tests", "pruned", "bytes out", "msgs out"
        ));
        for p in &self.pruning {
            out.push_str(&format!(
                "  {:>6}  {:>9}  {:>10}  {:>8}  {:>10}  {:>8}\n",
                format!("SP{}", p.node),
                p.points_scanned,
                p.dominance_tests,
                p.pruned,
                p.bytes_out,
                p.msgs_out
            ));
        }

        out.push_str("\nlink usage vs naive:\n");
        if self.links.is_empty() {
            out.push_str("  (no traffic)\n");
        } else {
            out.push_str(&format!(
                "  {:>12}  {:>10}  {:>10}  {:>8}\n",
                "link", "bytes", "naive", "saved"
            ));
            for l in &self.links {
                out.push_str(&format!(
                    "  {:>12}  {:>10}  {:>10}  {:>8}\n",
                    format!("SP{}->SP{}", l.from, l.to),
                    l.bytes,
                    l.naive_bytes,
                    l.naive_bytes.saturating_sub(l.bytes)
                ));
            }
        }

        match &self.critical {
            Some(path) => {
                out.push('\n');
                out.push_str(&render_critical(path));
            }
            None => out.push_str("\nno critical path (no finish event recorded)\n"),
        }
        out
    }

    /// Byte-deterministic JSON encoding (stable key order, shortest
    /// round-trip floats, `"inf"` strings for infinities).
    pub fn to_json(&self) -> String {
        let query = json::Obj::new()
            .str("subspace", &self.subspace)
            .raw("dims", &json::arr(self.dims.iter().map(|d| d.to_string())))
            .u64("initiator", self.initiator as u64)
            .str("variant", self.variant.mnemonic())
            .build();
        let routing = match self.routing {
            RoutingMode::Flood => "flood",
            RoutingMode::SpanningTree => "tree",
        };
        let network = json::Obj::new()
            .u64("peers", self.n_peers as u64)
            .u64("superpeers", self.n_superpeers as u64)
            .str("routing", routing)
            .build();
        let result = json::Obj::new()
            .u64("points", self.result_points as u64)
            .bool("complete", self.complete)
            .build();
        let times = json::Obj::new()
            .u64("total_ns", self.total_time_ns)
            .u64("comp_ns", self.comp_time_ns)
            .build();
        let volume = json::Obj::new()
            .u64("bytes", self.volume_bytes)
            .u64("messages", self.messages)
            .u64("naive_bytes", self.naive_bytes)
            .f64("savings_factor", self.savings_factor())
            .build();
        let fanout = json::arr(self.fanout.iter().map(|e| {
            json::Obj::new()
                .u64("node", e.node as u64)
                .u64("parent", e.parent as u64)
                .u64("depth", e.depth as u64)
                .u64("at_ns", e.at_ns)
                .build()
        }));
        let thresholds = json::arr(self.thresholds.iter().map(|s| {
            let mut o = json::Obj::new().u64("at_ns", s.at_ns).u64("node", s.node as u64).str(
                "event",
                match s.kind {
                    ThresholdKind::Install => "install",
                    ThresholdKind::Refine => "refine",
                },
            );
            if let Some(old) = s.old {
                o = o.f64("old", old);
            }
            o.f64("value", s.value).f64("best", s.best).build()
        }));
        let pruning = json::arr(self.pruning.iter().map(|p| {
            json::Obj::new()
                .u64("node", p.node as u64)
                .u64("points_scanned", p.points_scanned)
                .u64("dominance_tests", p.dominance_tests)
                .u64("pruned", p.pruned)
                .u64("bytes_out", p.bytes_out)
                .u64("msgs_out", p.msgs_out)
                .build()
        }));
        let links = json::arr(self.links.iter().map(|l| {
            json::Obj::new()
                .u64("from", l.from as u64)
                .u64("to", l.to as u64)
                .u64("bytes", l.bytes)
                .u64("naive_bytes", l.naive_bytes)
                .build()
        }));
        let critical = match &self.critical {
            Some(path) => {
                let steps = json::arr(path.steps.iter().map(|s| {
                    let (kind, detail) = match s.kind {
                        StepKind::Service { span, cause, dominance_tests, points_scanned } => {
                            let cause = match cause {
                                SpanCause::Start => "start".to_string(),
                                SpanCause::Msg(seq) => format!("msg #{seq}"),
                                SpanCause::Timer(seq) => format!("timer #{seq}"),
                            };
                            (
                                "service",
                                format!(
                                    "SP{} serving {cause}: {dominance_tests} dominance tests, \
                                     {points_scanned} points scanned (span {span})",
                                    s.node
                                ),
                            )
                        }
                        StepKind::NodeQueue => {
                            ("node_queue", format!("waiting for SP{} to go idle", s.node))
                        }
                        StepKind::Transfer { msg_seq, from_node, bytes } => (
                            "transfer",
                            format!(
                                "msg #{msg_seq} in flight SP{from_node}->SP{} ({bytes} B at link \
                                 speed)",
                                s.node
                            ),
                        ),
                        StepKind::LinkQueue { msg_seq, from_node } => (
                            "link_queue",
                            format!(
                                "msg #{msg_seq} waiting behind earlier transfers on \
                                 SP{from_node}->SP{}",
                                s.node
                            ),
                        ),
                        StepKind::TimerWait { timer_seq, tag } => (
                            "timer_wait",
                            format!("SP{} waiting for timer #{timer_seq} (tag {tag})", s.node),
                        ),
                    };
                    json::Obj::new()
                        .u64("from_ns", s.from)
                        .u64("to_ns", s.to)
                        .u64("node", s.node as u64)
                        .str("kind", kind)
                        .str("waiting_on", &detail)
                        .build()
                }));
                json::Obj::new()
                    .u64("finish_node", path.finish_node as u64)
                    .u64("finish_at_ns", path.finish_at)
                    .u64("total_ns", path.total_ns)
                    .raw("steps", &steps)
                    .build()
            }
            None => "null".to_string(),
        };
        json::Obj::new()
            .raw("query", &query)
            .raw("network", &network)
            .raw("result", &result)
            .raw("times", &times)
            .raw("volume", &volume)
            .raw("fanout", &fanout)
            .raw("thresholds", &thresholds)
            .bool("threshold_monotone", self.timeline_monotone())
            .raw("pruning", &pruning)
            .raw("links", &links)
            .raw("critical_path", &critical)
            .build()
    }
}

fn fmt_threshold(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else if v > 0.0 {
        "inf".to_string()
    } else {
        "-inf".to_string()
    }
}

impl SkypeerEngine {
    /// Runs one query under full tracing and distills the trace into an
    /// [`ExplainReport`]. Also runs the naive variant once, traced for its
    /// per-link bytes, as the bytes baseline, unless the explained variant
    /// *is* naive, in which case it is its own baseline.
    ///
    /// # Panics
    ///
    /// Panics where [`SkypeerEngine::run_query`] panics (incomplete run
    /// or divergent results — protocol bugs).
    pub fn explain_query(&self, query: Query, variant: Variant) -> ExplainReport {
        let tracer = Arc::new(MemTracer::new());
        let out = self.run_query_traced(query, variant, Arc::clone(&tracer) as Arc<dyn Tracer>);
        let events = tracer.take();
        let registry = MetricsRegistry::from_events(&events);

        let naive_links: BTreeMap<(usize, usize), u64> = if variant == Variant::Naive {
            registry.link_bytes.clone()
        } else {
            let naive = Arc::new(MemTracer::new());
            let req = QueryRequest::new(query, Variant::Naive);
            self.execute(&req, Some(Arc::clone(&naive) as Arc<dyn Tracer>));
            MetricsRegistry::from_events(&naive.take()).link_bytes
        };
        let naive_bytes: u64 = naive_links.values().sum();

        let cfg = self.config();
        ExplainReport {
            variant,
            subspace: query.subspace.to_string(),
            dims: query.subspace.dims().collect(),
            initiator: query.initiator,
            n_peers: cfg.n_peers,
            n_superpeers: cfg.n_superpeers,
            routing: cfg.routing,
            result_points: out.result_ids.len(),
            complete: out.complete,
            total_time_ns: out.total_time_ns,
            comp_time_ns: out.comp_time_ns,
            volume_bytes: out.volume_bytes,
            messages: out.messages,
            naive_bytes,
            fanout: fanout_tree(&events, query.initiator),
            thresholds: threshold_timeline(&events),
            pruning: prune_stats(&events, &registry),
            links: link_usage(&registry.link_bytes, &naive_links),
            critical: critical_path(&events),
        }
    }
}

/// First-arrival tree: each non-initiator node's earliest `Deliver`
/// defines its parent. Sorted by (arrival, node); depths follow parents.
fn fanout_tree(events: &[TraceEvent], initiator: usize) -> Vec<FanoutEdge> {
    let mut first: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::Deliver { at, from, to, .. } = *ev {
            if to != initiator {
                first.entry(to).or_insert((at, from));
            }
        }
    }
    let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
    depth.insert(initiator, 0);
    fn depth_of(
        node: usize,
        first: &BTreeMap<usize, (u64, usize)>,
        depth: &mut BTreeMap<usize, usize>,
    ) -> usize {
        if let Some(&d) = depth.get(&node) {
            return d;
        }
        let d = match first.get(&node) {
            Some(&(_, parent)) => depth_of(parent, first, depth) + 1,
            // Unreachable parent chain (should not happen on a complete
            // run); treat as a root.
            None => 0,
        };
        depth.insert(node, d);
        d
    }
    let mut edges: Vec<FanoutEdge> = first
        .iter()
        .map(|(&node, &(at_ns, parent))| FanoutEdge {
            node,
            parent,
            depth: depth_of(node, &first, &mut depth),
            at_ns,
        })
        .collect();
    edges.sort_by_key(|e| (e.at_ns, e.node));
    edges
}

/// The threshold timeline in event order, with the running best.
fn threshold_timeline(events: &[TraceEvent]) -> Vec<ThresholdStep> {
    let mut best = f64::INFINITY;
    let mut steps = Vec::new();
    for ev in events {
        if let TraceEvent::Proto { node, at, event, .. } = *ev {
            let (kind, old, value) = match event {
                ProtoEvent::ThresholdInstall { value, .. } => (ThresholdKind::Install, None, value),
                ProtoEvent::ThresholdRefine { old, new, .. } => {
                    (ThresholdKind::Refine, Some(old), new)
                }
                _ => continue,
            };
            if value < best {
                best = value;
            }
            steps.push(ThresholdStep { at_ns: at, node, kind, old, value, best });
        }
    }
    steps
}

/// Per-node prune effectiveness: threshold prunes from the protocol
/// events joined with the registry's per-node work/traffic counters.
fn prune_stats(events: &[TraceEvent], registry: &MetricsRegistry) -> Vec<PruneStats> {
    let mut pruned: BTreeMap<usize, u64> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::Proto { node, event: ProtoEvent::Prune { pruned: n, .. }, .. } = *ev {
            *pruned.entry(node).or_insert(0) += n;
        }
    }
    registry
        .per_node
        .iter()
        .enumerate()
        .filter(|(_, nm)| nm.spans > 0 || nm.msgs_in > 0 || nm.msgs_out > 0)
        .map(|(node, nm)| PruneStats {
            node,
            points_scanned: nm.points_scanned,
            dominance_tests: nm.dominance_tests,
            pruned: pruned.get(&node).copied().unwrap_or(0),
            bytes_out: nm.bytes_out,
            msgs_out: nm.msgs_out,
        })
        .collect()
}

/// Union of links either variant used, ascending (from, to).
fn link_usage(
    ours: &BTreeMap<(usize, usize), u64>,
    naive: &BTreeMap<(usize, usize), u64>,
) -> Vec<LinkUsage> {
    let mut keys: Vec<(usize, usize)> = ours.keys().chain(naive.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| LinkUsage {
            from: k.0,
            to: k.1,
            bytes: ours.get(&k).copied().unwrap_or(0),
            naive_bytes: naive.get(&k).copied().unwrap_or(0),
        })
        // Zero-byte bookkeeping sends (acks to self) say nothing about
        // link usage; drop links neither variant put bytes on.
        .filter(|l| l.bytes > 0 || l.naive_bytes > 0)
        .collect()
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::engine::EngineConfig;
    use skypeer_data::{DatasetKind, DatasetSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::{DominanceIndex, Subspace};

    fn tiny_engine(seed: u64) -> SkypeerEngine {
        let n_superpeers = 6;
        SkypeerEngine::build(EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec { dim: 4, points_per_peer: 30, kind: DatasetKind::Uniform, seed },
            topology: TopologySpec::paper_default(n_superpeers, seed),
            index: DominanceIndex::Linear,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: crate::engine::RoutingMode::Flood,
        })
    }

    #[test]
    fn explain_covers_every_section_for_all_variants() {
        let engine = tiny_engine(7);
        let q = Query { subspace: Subspace::from_dims(&[0, 2]), initiator: 1 };
        for variant in Variant::ALL {
            let r = engine.explain_query(q, variant);
            assert_eq!(r.variant, variant);
            assert!(r.complete);
            assert!(r.result_points > 0);
            // Fan-out reaches every other super-peer on a complete run.
            assert_eq!(r.fanout.len(), r.n_superpeers - 1, "{variant}");
            assert!(r.fanout.iter().all(|e| e.depth >= 1));
            assert!(!r.pruning.is_empty());
            assert!(!r.links.is_empty());
            assert!(r.naive_bytes > 0);
            let path = r.critical.as_ref().expect("finished query has a path");
            assert_eq!(path.total_ns, r.total_time_ns);
            if variant == Variant::Naive {
                assert_eq!(r.naive_bytes, r.volume_bytes, "naive is its own baseline");
                assert!(
                    r.thresholds.is_empty() || r.thresholds.iter().all(|s| !s.value.is_finite())
                );
            } else {
                assert!(!r.thresholds.is_empty(), "{variant} must carry a threshold");
            }
            let text = r.render();
            for section in [
                "EXPLAIN skyline",
                "query fan-out",
                "threshold timeline",
                "per-super-peer pruning",
                "link usage vs naive",
                "critical path",
            ] {
                assert!(text.contains(section), "{variant}: missing '{section}'");
            }
        }
    }

    #[test]
    fn threshold_timeline_is_monotone_for_rt_variants() {
        // The RT* variants refine the threshold as the query travels; the
        // running best must never loosen, and each refine must tighten.
        for seed in [3, 7, 11, 19] {
            let engine = tiny_engine(seed);
            for initiator in [0, 2] {
                let q = Query { subspace: Subspace::from_dims(&[0, 1, 3]), initiator };
                for variant in [Variant::Rtfm, Variant::Rtpm] {
                    let r = engine.explain_query(q, variant);
                    assert!(!r.thresholds.is_empty(), "seed {seed} {variant}");
                    assert!(
                        r.timeline_monotone(),
                        "seed {seed} {variant}: timeline loosened: {:?}",
                        r.thresholds
                    );
                    for s in &r.thresholds {
                        if let Some(old) = s.old {
                            assert!(
                                s.value <= old,
                                "seed {seed} {variant}: refine loosened {old} -> {}",
                                s.value
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let engine_a = tiny_engine(5);
        let engine_b = tiny_engine(5);
        let q = Query { subspace: Subspace::from_dims(&[1, 3]), initiator: 0 };
        let a = engine_a.explain_query(q, Variant::Rtpm).to_json();
        let b = engine_b.explain_query(q, Variant::Rtpm).to_json();
        assert_eq!(a, b, "same seed, fresh engines: identical bytes");
        for key in [
            "\"query\":",
            "\"network\":",
            "\"result\":",
            "\"times\":",
            "\"volume\":",
            "\"fanout\":",
            "\"thresholds\":",
            "\"threshold_monotone\":",
            "\"pruning\":",
            "\"links\":",
            "\"critical_path\":",
            "\"waiting_on\":",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn skypeer_variants_beat_the_naive_baseline() {
        let engine = tiny_engine(13);
        let q = Query { subspace: Subspace::from_dims(&[0, 1, 2]), initiator: 2 };
        for variant in Variant::SKYPEER {
            let r = engine.explain_query(q, variant);
            assert!(r.volume_bytes <= r.naive_bytes, "{variant}");
            assert!(r.savings_factor() >= 1.0);
        }
    }
}

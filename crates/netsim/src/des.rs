//! Deterministic discrete-event simulator.
//!
//! Nodes implement [`Behavior`]; the simulator delivers messages in global
//! time order, models each node as a sequential processor (a node is busy
//! while its handler's *service time* elapses), and charges every message a
//! transfer delay of `latency + bytes / bandwidth` on its link — the
//! paper's 4 KB/s-per-connection model.
//!
//! Messages are typed values: the simulator hands each one to its receiver
//! as sent and charges the link [`Wire::wire_bytes`], so no simulated hop
//! runs the codec. In debug builds every sent message is also encoded and
//! checked against that size (see [`Wire`]).
//!
//! Determinism: given the same behaviors and inputs, runs are bit-for-bit
//! identical. Time is `u64` nanoseconds; heap ties are broken by an
//! insertion sequence number.
//!
//! Links are FIFO: two messages sent over the same directed link are
//! delivered in send order even when the earlier one is larger (as a TCP
//! connection would behave). SKYPEER's fixed-merging mode depends on this —
//! a small "subtree complete" marker must not overtake a large relayed
//! result list.

use crate::cost::{CostModel, WorkReport};
use skypeer_obs::{DropReason, ProtoEvent, SpanCause, TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Simulated time in nanoseconds since the start of a run.
pub type SimTime = u64;

/// Per-link transfer model: transferring a message occupies its directed
/// link for `latency_ns + bytes · ns_per_byte`; concurrent messages on the
/// same link queue behind each other (a 4 KB/s connection moves 4 KB per
/// second *in total*, as the paper's model implies). Queuing also gives
/// FIFO delivery per link for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkModel {
    /// Fixed per-hop latency.
    pub latency_ns: u64,
    /// Nanoseconds per transferred byte.
    pub ns_per_byte: u64,
}

impl LinkModel {
    /// The paper's 4 KB/s connection bandwidth, zero base latency.
    pub fn paper_4kbps() -> Self {
        // 1 byte / 4096 B/s = 244140.625 ns; round to keep integer math.
        LinkModel { latency_ns: 0, ns_per_byte: 244_141 }
    }

    /// Infinite bandwidth — used to measure computation-only response time.
    pub fn zero_delay() -> Self {
        LinkModel { latency_ns: 0, ns_per_byte: 0 }
    }

    /// Transfer delay for one message of `bytes`.
    pub fn delay(&self, bytes: u64) -> u64 {
        self.latency_ns.saturating_add(bytes.saturating_mul(self.ns_per_byte))
    }
}

/// Parses a `--perturb-link FROM:TO:LATENCY_NS[:NS_PER_BYTE]` spec into a
/// directed-link override. An omitted `NS_PER_BYTE` keeps `base`'s
/// per-byte cost and only replaces the latency. Shared by every front end
/// that accepts the flag so the accepted grammar — and the error text —
/// cannot drift between them.
pub fn parse_perturb_spec(
    spec: &str,
    base: LinkModel,
) -> Result<(usize, usize, LinkModel), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 3 || parts.len() > 4 {
        return Err(format!(
            "bad --perturb-link '{spec}' (expected FROM:TO:LATENCY_NS[:NS_PER_BYTE])"
        ));
    }
    let field = |i: usize, what: &str| -> Result<u64, String> {
        parts[i].parse().map_err(|_| format!("bad {what} '{}' in --perturb-link", parts[i]))
    };
    let from = field(0, "FROM")? as usize;
    let to = field(1, "TO")? as usize;
    let latency_ns = field(2, "LATENCY_NS")?;
    let ns_per_byte = if parts.len() == 4 { field(3, "NS_PER_BYTE")? } else { base.ns_per_byte };
    Ok((from, to, LinkModel { latency_ns, ns_per_byte }))
}

/// A message type the runtimes can carry. The DES moves the values and
/// charges each link [`Wire::wire_bytes`]; the live runtime moves the
/// [`Wire::encode`]d bytes and [`Wire::decode`]s them at delivery.
///
/// In debug builds the DES checks every sent message: it must decode from
/// its encoding to an equal value, and the encoding must be exactly
/// `wire_bytes()` long. A message declaring 0 bytes models local work, not
/// a transfer: it must be self-addressed and is only round-tripped.
pub trait Wire: Sized + PartialEq {
    /// Size on the wire in bytes, computed without encoding.
    fn wire_bytes(&self) -> u64;
    /// Serializes the message.
    fn encode(&self) -> Vec<u8>;
    /// Deserializes; `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// The debug-build size oracle (see [`Wire`]). Opens no profiling scope,
/// so profiles are the same in debug and release builds.
#[cfg(debug_assertions)]
fn check_wire<M: Wire>(from: usize, to: usize, msg: &M) {
    let bytes = msg.encode();
    assert!(M::decode(&bytes).as_ref() == Some(msg), "{from} -> {to}: wire round trip failed");
    let size = msg.wire_bytes();
    assert!(
        size == 0 || size == bytes.len() as u64,
        "{from} -> {to}: wire_bytes {size} != {}",
        bytes.len()
    );
    assert!(size > 0 || from == to, "{from} -> {to}: a 0-byte message must be self-addressed");
}

/// What a node can do while handling an event. Implemented by both the DES
/// and the live runtime.
pub trait Context<M> {
    /// This node's id.
    fn node_id(&self) -> usize;
    /// Current simulated (or wall) time.
    fn now(&self) -> SimTime;
    /// Sends `msg` to node `to`; it is `msg.wire_bytes()` long on the wire.
    fn send(&mut self, to: usize, msg: M);
    /// Arms a one-shot timer: [`Behavior::on_timer`] fires on this node
    /// with `tag` after `delay` (simulated or wall time). Timers are local
    /// — they cost no messages and no bytes.
    fn set_timer(&mut self, delay: SimTime, tag: u64);
    /// Reports computation performed by this handler invocation; the
    /// runtime turns it into service time via its [`CostModel`].
    fn report_work(&mut self, work: WorkReport);
    /// Declares the global computation finished (e.g. the query initiator
    /// has the final answer). The runtime stops delivering messages.
    fn finish(&mut self);
    /// Emits a protocol-level observability event ([`ProtoEvent`]:
    /// threshold installs/refinements, prunes, query phase transitions).
    /// A no-op unless the runtime has a [`Tracer`] attached, so behaviors
    /// can call it unconditionally.
    fn note(&mut self, _ev: ProtoEvent) {}
}

/// A node's protocol logic over its own message type. Handlers receive
/// typed messages on both runtimes: the DES delivers the values that were
/// sent, the live runtime the values it decoded from the bytes it moved.
pub trait Behavior {
    /// The messages this protocol exchanges.
    type Msg: Wire;
    /// Invoked once at start-of-run on the designated start node.
    fn on_start(&mut self, _ctx: &mut dyn Context<Self::Msg>) {}
    /// Invoked for every delivered message.
    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);
    /// Invoked when a timer armed via [`Context::set_timer`] expires.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut dyn Context<Self::Msg>) {}
}

/// Aggregate statistics of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered.
    pub messages: u64,
    /// Total bytes put on the wire.
    pub bytes: u64,
    /// Total computation service time across all nodes.
    pub compute_ns_total: u64,
    /// Simulated time at which [`Context::finish`] was called (response
    /// time), if it was.
    pub finished_at: Option<SimTime>,
    /// Simulated time when the last event was processed.
    pub last_event_at: SimTime,
    /// Messages dropped: by crashed nodes or by the delivery hook.
    pub dropped: u64,
    /// Maximum causal message depth over all delivered messages: a
    /// message sent from the start-of-run handler is depth 1, a message
    /// sent while handling a depth-`d` message is depth `d + 1`
    /// (zero-byte self-messages and timers inherit their cause's depth —
    /// they model deferred local work, not network round trips). This is
    /// the number of sequential communication rounds the protocol needs,
    /// independent of link speed.
    pub rounds: u64,
}

enum Payload<M> {
    Message { from: usize, msg: M },
    Timer { tag: u64 },
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    to: usize,
    /// Causal message depth (see [`SimStats::rounds`]).
    depth: u64,
    payload: Payload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Outcome of [`Sim::run`]: final node states plus statistics.
pub struct SimOutcome<B> {
    /// The nodes after the run, for extracting protocol results.
    pub nodes: Vec<B>,
    /// Run statistics.
    pub stats: SimStats,
}

/// Delivery hook: sees `(from, to, msg)` just before delivery and returns
/// the message to deliver (the same one or a replacement), or `None` to
/// drop it. Timing and wire bytes were fixed at send time, so a
/// replacement changes only what the receiver gets — the silent-corruption
/// model the online auditor is built to catch.
type DeliveryHook<M> = Box<dyn FnMut(usize, usize, M) -> Option<M>>;

/// The discrete-event simulator.
pub struct Sim<B: Behavior> {
    nodes: Vec<B>,
    link: LinkModel,
    /// Per-directed-link overrides of the global [`LinkModel`] — the
    /// hook what-if experiments and perturbed runs use to slow down (or
    /// speed up) a single link without touching the rest of the network.
    link_overrides: HashMap<(usize, usize), LinkModel>,
    cost: CostModel,
    /// Optional message drop or replacement (see [`Sim::with_delivery_hook`]).
    delivery_hook: Option<DeliveryHook<B::Msg>>,
    /// Optional structured-event tracer. With `None` every emission site
    /// is a single branch, so untraced runs behave exactly like the seed
    /// simulator (bit-for-bit identical `SimStats`).
    tracer: Option<Arc<dyn Tracer>>,
    /// Nodes that crash at a given simulated time: after it, they neither
    /// receive nor send, and their pending timers never fire.
    fail_at: HashMap<usize, SimTime>,
    /// Safety valve against runaway protocols.
    max_events: u64,
}

/// Context implementation handed to behaviors during DES runs.
struct DesCtx<M> {
    node: usize,
    now: SimTime,
    outbox: Vec<(usize, M)>,
    timers: Vec<(SimTime, u64)>,
    work: WorkReport,
    /// How many times the handler declared a computation finished (one
    /// handler can complete several concurrent queries).
    finish: usize,
    /// Protocol events noted by the handler; buffered only when a tracer
    /// is attached.
    notes: Vec<ProtoEvent>,
    tracing: bool,
}

impl<M> DesCtx<M> {
    fn new(node: usize, now: SimTime, tracing: bool) -> Self {
        DesCtx {
            node,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            work: WorkReport::default(),
            finish: 0,
            notes: Vec::new(),
            tracing,
        }
    }
}

impl<M: Wire> Context<M> for DesCtx<M> {
    fn node_id(&self) -> usize {
        self.node
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, to: usize, msg: M) {
        #[cfg(debug_assertions)]
        check_wire(self.node, to, &msg);
        self.outbox.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.timers.push((delay, tag));
    }
    fn report_work(&mut self, work: WorkReport) {
        self.work.dominance_tests += work.dominance_tests;
        self.work.points_scanned += work.points_scanned;
        if let Some(d) = work.measured {
            self.work.measured = Some(self.work.measured.unwrap_or_default() + d);
        }
    }
    fn finish(&mut self) {
        self.finish += 1;
    }
    fn note(&mut self, ev: ProtoEvent) {
        if self.tracing {
            self.notes.push(ev);
        }
    }
}

/// Mutable per-run simulator state, threaded through
/// [`Sim::absorb_ctx`].
struct RunState<M> {
    stats: SimStats,
    busy_until: Vec<SimTime>,
    /// Per directed link: when the link becomes free again. Transfers on
    /// one link serialize (and are therefore FIFO).
    link_free: HashMap<(usize, usize), SimTime>,
    heap: BinaryHeap<Reverse<Event<M>>>,
    seq: u64,
    finishes_seen: usize,
    finished: Option<SimTime>,
    /// Next service-span id (one per handler invocation, in execution
    /// order; only meaningful to tracers).
    next_span: u64,
}

impl<B: Behavior> Sim<B> {
    /// Creates a simulator over `nodes` with the given link and cost
    /// models.
    pub fn new(nodes: Vec<B>, link: LinkModel, cost: CostModel) -> Self {
        Sim {
            nodes,
            link,
            link_overrides: HashMap::new(),
            cost,
            delivery_hook: None,
            tracer: None,
            fail_at: HashMap::new(),
            max_events: 100_000_000,
        }
    }

    /// Attaches a structured-event [`Tracer`]; it observes every service
    /// span, message movement, timer, finish, and protocol note. Sim-time
    /// only — attaching a tracer cannot change simulation results.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Overrides the transfer model of the directed link `from → to`;
    /// every other link keeps the global model. Used for perturbation
    /// experiments (bump one link's latency) and for applying what-if
    /// interventions from the critical-path analyzer for real.
    pub fn with_link_override(mut self, from: usize, to: usize, link: LinkModel) -> Self {
        self.link_overrides.insert((from, to), link);
        self
    }

    /// Crashes `node` at simulated time `at`: from then on it neither
    /// receives nor sends messages and its timers are cancelled. Models
    /// the peer failures the paper defers to future work.
    pub fn with_node_failure(mut self, node: usize, at: SimTime) -> Self {
        self.fail_at.insert(node, at);
        self
    }

    /// Installs a delivery hook: it sees every message that survives the
    /// crash schedule, just before delivery, and returns the message to
    /// deliver or `None` to drop it. A replacement keeps the timing and
    /// wire bytes fixed at send time, so it is invisible to every
    /// performance metric — only a correctness audit can notice it.
    pub fn with_delivery_hook(
        mut self,
        hook: impl FnMut(usize, usize, B::Msg) -> Option<B::Msg> + 'static,
    ) -> Self {
        self.delivery_hook = Some(Box::new(hook));
        self
    }

    /// Caps the number of delivered events (default 10⁸).
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Runs the simulation: `on_start` fires on `start` at t = 0, then
    /// events are delivered until the queue drains, `finish` is called, or
    /// the event cap trips.
    pub fn run(self, start: usize) -> SimOutcome<B> {
        self.run_multi(&[start], 1)
    }

    /// Runs with several start nodes (`on_start` fires on each at t = 0)
    /// and stops once [`Context::finish`] has been called
    /// `required_finishes` times — the makespan of a batch of concurrent
    /// computations. `finished_at` reports the last of those finishes.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty, contains duplicates or out-of-range
    /// nodes, or if `required_finishes == 0`.
    pub fn run_multi(mut self, starts: &[usize], required_finishes: usize) -> SimOutcome<B> {
        skypeer_obs::scope!("des::run");
        assert!(!starts.is_empty(), "need at least one start node");
        assert!(required_finishes >= 1, "need at least one required finish");
        for (i, &s) in starts.iter().enumerate() {
            assert!(s < self.nodes.len(), "start node {s} out of range");
            assert!(!starts[..i].contains(&s), "duplicate start node {s}");
        }
        let mut rs = RunState {
            stats: SimStats::default(),
            busy_until: vec![0; self.nodes.len()],
            link_free: HashMap::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            finishes_seen: 0,
            finished: None,
            next_span: 0,
        };
        let tracing = self.tracer.is_some();

        // Start-of-run hooks on the initiators.
        for &start in starts {
            let mut ctx = DesCtx::new(start, rs.busy_until[start], tracing);
            self.nodes[start].on_start(&mut ctx);
            self.absorb_ctx(ctx, start, SpanCause::Start, 0, &mut rs);
        }

        let mut delivered = 0u64;
        while let Some(Reverse(ev)) = rs.heap.pop() {
            if rs.finishes_seen >= required_finishes {
                break;
            }
            if delivered >= self.max_events {
                panic!("DES event cap exceeded: protocol is not terminating");
            }
            delivered += 1;
            let node_dead = |id: usize, t: SimTime, fail: &HashMap<usize, SimTime>| {
                fail.get(&id).is_some_and(|&at| t >= at)
            };
            let (from, msg_or_timer, cause) = match ev.payload {
                Payload::Message { from, msg } => {
                    let dead = if node_dead(from, ev.time, &self.fail_at) {
                        Some(DropReason::DeadSender)
                    } else if node_dead(ev.to, ev.time, &self.fail_at) {
                        Some(DropReason::DeadReceiver)
                    } else {
                        None
                    };
                    let delivered = match (dead, self.delivery_hook.as_mut()) {
                        (Some(_), _) => None,
                        (None, Some(hook)) => hook(from, ev.to, msg),
                        (None, None) => Some(msg),
                    };
                    let Some(msg) = delivered else {
                        rs.stats.dropped += 1;
                        if let Some(tr) = &self.tracer {
                            let (msg_seq, at, to) = (ev.seq, ev.time, ev.to);
                            let reason = dead.unwrap_or(DropReason::Injected);
                            tr.record(TraceEvent::Drop { msg_seq, at, from, to, reason });
                        }
                        continue;
                    };
                    rs.stats.messages += 1;
                    rs.stats.rounds = rs.stats.rounds.max(ev.depth);
                    if let Some(tr) = &self.tracer {
                        tr.record(TraceEvent::Deliver {
                            msg_seq: ev.seq,
                            at: ev.time,
                            from,
                            to: ev.to,
                        });
                    }
                    (from, Some(msg), SpanCause::Msg(ev.seq))
                }
                Payload::Timer { tag } => {
                    if node_dead(ev.to, ev.time, &self.fail_at) {
                        continue;
                    }
                    if let Some(tr) = &self.tracer {
                        tr.record(TraceEvent::TimerFire {
                            timer_seq: ev.seq,
                            at: ev.time,
                            node: ev.to,
                            tag,
                        });
                    }
                    (tag as usize, None, SpanCause::Timer(ev.seq))
                }
            };
            // The node is sequential: processing starts when it is free.
            let begin = ev.time.max(rs.busy_until[ev.to]);
            let mut ctx = DesCtx::new(ev.to, begin, tracing);
            {
                skypeer_obs::scope!("des::dispatch");
                match msg_or_timer {
                    Some(msg) => self.nodes[ev.to].on_message(from, msg, &mut ctx),
                    None => self.nodes[ev.to].on_timer(from as u64, &mut ctx),
                }
            }
            self.absorb_ctx(ctx, ev.to, cause, ev.depth, &mut rs);
        }
        rs.stats.finished_at =
            (rs.finishes_seen >= required_finishes).then_some(rs.finished.unwrap_or(0));
        SimOutcome { nodes: self.nodes, stats: rs.stats }
    }

    /// Applies a handler's effects: service time, outgoing messages (with
    /// per-link transfer queuing), timers, and the finish flag; emits the
    /// span's trace events when a tracer is attached. `depth` is the
    /// causal message depth of the event that caused this handler
    /// invocation (0 for start-of-run).
    fn absorb_ctx(
        &mut self,
        ctx: DesCtx<B::Msg>,
        node: usize,
        cause: SpanCause,
        depth: u64,
        rs: &mut RunState<B::Msg>,
    ) {
        skypeer_obs::scope!("des::absorb");
        let service = self.cost.service_ns(&ctx.work);
        rs.stats.compute_ns_total += service;
        let begin = ctx.now;
        let end = begin + service;
        rs.busy_until[node] = end;
        rs.stats.last_event_at = rs.stats.last_event_at.max(end);
        if ctx.finish > 0 {
            rs.finishes_seen += ctx.finish;
            rs.finished = Some(rs.finished.map_or(end, |f| f.max(end)));
        }
        let span = rs.next_span;
        rs.next_span += 1;
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent::Service {
                span,
                node,
                begin,
                end,
                cause,
                dominance_tests: ctx.work.dominance_tests,
                points_scanned: ctx.work.points_scanned,
                finished: ctx.finish > 0,
            });
            for ev in &ctx.notes {
                tr.record(TraceEvent::Proto { span, node, at: begin, event: *ev });
            }
        }
        for (to, msg) in ctx.outbox {
            let bytes = msg.wire_bytes();
            rs.stats.bytes += bytes;
            let free = rs.link_free.entry((node, to)).or_insert(0);
            let xfer_start = end.max(*free);
            let model = self.link_overrides.get(&(node, to)).unwrap_or(&self.link);
            let arrive = xfer_start + model.delay(bytes);
            *free = arrive;
            if let Some(tr) = &self.tracer {
                tr.record(TraceEvent::Send {
                    msg_seq: rs.seq,
                    span,
                    from: node,
                    to,
                    bytes,
                    queued_at: end,
                    sent_at: xfer_start,
                    arrive_at: arrive,
                });
            }
            rs.heap.push(Reverse(Event {
                time: arrive,
                seq: rs.seq,
                to,
                // Zero-byte self-messages model deferred local compute,
                // not a network round trip: they inherit the depth.
                depth: if bytes > 0 { depth + 1 } else { depth },
                payload: Payload::Message { from: node, msg },
            }));
            rs.seq += 1;
        }
        for (delay, tag) in ctx.timers {
            if let Some(tr) = &self.tracer {
                tr.record(TraceEvent::TimerSet {
                    timer_seq: rs.seq,
                    span,
                    node,
                    fire_at: end + delay,
                    tag,
                });
            }
            rs.heap.push(Reverse(Event {
                time: end + delay,
                seq: rs.seq,
                to: node,
                depth,
                payload: Payload::Timer { tag },
            }));
            rs.seq += 1;
        }
        if let Some(tr) = &self.tracer {
            for _ in 0..ctx.finish {
                tr.record(TraceEvent::Finish { span, node, at: end });
            }
        }
    }
}

/// The message type of this crate's test behaviors.
#[cfg(test)]
pub(crate) mod test_msg {
    use super::Wire;

    /// A one-byte `tag` padded to `len` bytes (at least 1) on the wire, so
    /// a test picks each message's size and the encoding is exactly that
    /// long.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) struct TestMsg {
        pub(crate) tag: u8,
        pub(crate) len: u64,
    }

    impl Wire for TestMsg {
        fn wire_bytes(&self) -> u64 {
            self.len
        }
        fn encode(&self) -> Vec<u8> {
            let mut bytes = vec![0; self.len as usize];
            bytes[0] = self.tag;
            bytes
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(TestMsg { tag: *bytes.first()?, len: bytes.len() as u64 })
        }
    }
}

#[cfg(test)]
mod unit {
    use super::test_msg::TestMsg;
    use super::*;

    /// A relay ring: node i forwards a counter to (i+1) % n until it
    /// reaches `hops`, then finishes.
    struct Ring {
        n: usize,
        hops: u64,
        seen: u64,
    }

    impl Behavior for Ring {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
            ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: 0, len: 100 });
        }
        fn on_message(&mut self, _from: usize, msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
            self.seen += 1;
            let hop = msg.tag as u64 + 1;
            ctx.report_work(WorkReport { dominance_tests: 10, points_scanned: 1, measured: None });
            if hop >= self.hops {
                ctx.finish();
            } else {
                ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: hop as u8, len: 100 });
            }
        }
    }

    fn ring(n: usize, hops: u64) -> Vec<Ring> {
        (0..n).map(|_| Ring { n, hops, seen: 0 }).collect()
    }

    #[test]
    fn message_count_and_completion() {
        let sim = Sim::new(ring(4, 6), LinkModel::zero_delay(), CostModel::default());
        let out = sim.run(0);
        assert_eq!(out.stats.messages, 6);
        assert!(out.stats.finished_at.is_some());
        assert_eq!(out.stats.bytes, 600);
        assert_eq!(out.stats.rounds, 6, "each ring hop is one sequential round");
        let seen: u64 = out.nodes.iter().map(|n| n.seen).sum();
        assert_eq!(seen, 6);
    }

    #[test]
    fn transfer_delay_accumulates_per_hop() {
        let link = LinkModel { latency_ns: 0, ns_per_byte: 10 };
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 0, per_point_ns: 0 };
        let out = Sim::new(ring(3, 3), link, cost).run(0);
        // 3 hops × 100 bytes × 10 ns/byte = 3000 ns of pure transfer.
        assert_eq!(out.stats.finished_at, Some(3000));
    }

    #[test]
    fn compute_time_accumulates_per_handler() {
        let cost = CostModel::Analytic { base_ns: 1000, per_test_ns: 1, per_point_ns: 0 };
        let out = Sim::new(ring(3, 4), LinkModel::zero_delay(), cost).run(0);
        // on_start costs the base 1000 ns; then 4 handler invocations of
        // 1000 + 10 tests = 1010 ns each.
        assert_eq!(out.stats.compute_ns_total, 1000 + 4 * 1010);
        assert_eq!(out.stats.finished_at, Some(1000 + 4 * 1010));
    }

    #[test]
    fn deterministic_runs() {
        let a = Sim::new(ring(5, 20), LinkModel::paper_4kbps(), CostModel::default()).run(2);
        let b = Sim::new(ring(5, 20), LinkModel::paper_4kbps(), CostModel::default()).run(2);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn delivery_hook_drops_messages() {
        let sim = Sim::new(ring(4, 8), LinkModel::zero_delay(), CostModel::default())
            .with_delivery_hook(|_, to, msg| (to != 2).then_some(msg)); // node 2 never hears anything
        let out = sim.run(0);
        assert!(out.stats.finished_at.is_none(), "the ring is broken, no completion");
        assert_eq!(out.stats.dropped, 1);
        assert_eq!(out.stats.messages, 1, "only the 0→1 hop is delivered");
    }

    #[test]
    fn delivery_hook_rewrites_payload_without_touching_metrics() {
        let clean = Sim::new(ring(4, 6), LinkModel::paper_4kbps(), CostModel::default()).run(0);
        // Rewind the hop counter once (on the second delivery, where it is
        // 1): the ring silently repeats a hop and needs one extra message
        // to reach `hops` — delivered, not dropped.
        let mut tampered = false;
        let out = Sim::new(ring(4, 6), LinkModel::paper_4kbps(), CostModel::default())
            .with_delivery_hook(move |_, _, msg| {
                if tampered || msg.tag != 1 {
                    return Some(msg);
                }
                tampered = true;
                Some(TestMsg { tag: 0, ..msg })
            })
            .run(0);
        assert!(out.stats.finished_at.is_some());
        assert_eq!(out.stats.messages, clean.stats.messages + 1);
        assert_eq!(out.stats.dropped, 0, "tampering is not dropping");
    }

    #[test]
    fn delivery_hook_passing_messages_through_changes_nothing() {
        let clean = Sim::new(ring(5, 20), LinkModel::paper_4kbps(), CostModel::default()).run(2);
        let hooked = Sim::new(ring(5, 20), LinkModel::paper_4kbps(), CostModel::default())
            .with_delivery_hook(|_, _, msg| Some(msg))
            .run(2);
        assert_eq!(clean.stats, hooked.stats);
    }

    #[test]
    fn perturb_spec_parses_and_pins_error_text() {
        let base = LinkModel { latency_ns: 7, ns_per_byte: 11 };
        assert_eq!(
            parse_perturb_spec("1:2:500", base),
            Ok((1, 2, LinkModel { latency_ns: 500, ns_per_byte: 11 }))
        );
        assert_eq!(
            parse_perturb_spec("0:3:500:9", base),
            Ok((0, 3, LinkModel { latency_ns: 500, ns_per_byte: 9 }))
        );
        // Pinned error text: front ends surface these strings verbatim.
        assert_eq!(
            parse_perturb_spec("1:2", base).unwrap_err(),
            "bad --perturb-link '1:2' (expected FROM:TO:LATENCY_NS[:NS_PER_BYTE])"
        );
        assert_eq!(
            parse_perturb_spec("0:zap:5", base).unwrap_err(),
            "bad TO 'zap' in --perturb-link"
        );
        assert_eq!(
            parse_perturb_spec("0:1:x", base).unwrap_err(),
            "bad LATENCY_NS 'x' in --perturb-link"
        );
        assert_eq!(
            parse_perturb_spec("0:1:5:y", base).unwrap_err(),
            "bad NS_PER_BYTE 'y' in --perturb-link"
        );
    }

    /// Two messages arriving while a node is busy are processed back to
    /// back in arrival order.
    struct Sink {
        got: Vec<(usize, SimTime)>,
    }
    struct Source;
    enum Node {
        Src(Source),
        Snk(Sink),
    }
    impl Behavior for Node {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
            if let Node::Src(_) = self {
                ctx.send(1, TestMsg { tag: 1, len: 1 });
                ctx.send(1, TestMsg { tag: 2, len: 1 });
            }
        }
        fn on_message(&mut self, from: usize, msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
            if let Node::Snk(s) = self {
                s.got.push((msg.tag as usize, ctx.now()));
                ctx.report_work(WorkReport {
                    dominance_tests: 0,
                    points_scanned: 100,
                    measured: None,
                });
                let _ = from;
            }
        }
    }

    #[test]
    fn busy_node_serializes_processing() {
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 0, per_point_ns: 10 };
        let nodes = vec![Node::Src(Source), Node::Snk(Sink { got: Vec::new() })];
        let out = Sim::new(nodes, LinkModel::zero_delay(), cost).run(0);
        let Node::Snk(sink) = &out.nodes[1] else { panic!() };
        assert_eq!(sink.got.len(), 2);
        // First message starts at t=0, takes 1000 ns; second starts at 1000.
        assert_eq!(sink.got[0], (1, 0));
        assert_eq!(sink.got[1], (2, 1000));
    }

    #[test]
    fn timers_fire_at_the_right_simulated_time() {
        struct Waiter {
            fired: Vec<(u64, SimTime)>,
        }
        impl Behavior for Waiter {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
                ctx.set_timer(5_000, 7);
                ctx.set_timer(1_000, 3);
            }
            fn on_message(&mut self, _f: usize, _m: TestMsg, _c: &mut dyn Context<TestMsg>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<TestMsg>) {
                self.fired.push((tag, ctx.now()));
                if self.fired.len() == 2 {
                    ctx.finish();
                }
            }
        }
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 0, per_point_ns: 0 };
        let out =
            Sim::new(vec![Waiter { fired: Vec::new() }], LinkModel::zero_delay(), cost).run(0);
        let w = &out.nodes[0];
        assert_eq!(w.fired, vec![(3, 1_000), (7, 5_000)], "timers fire in deadline order");
        assert_eq!(out.stats.messages, 0, "timers are not messages");
        assert_eq!(out.stats.bytes, 0);
        assert_eq!(out.stats.rounds, 0, "timers are not rounds");
    }

    #[test]
    fn failed_node_goes_silent() {
        // A ring with node 2 crashed at t = 0: the token never returns.
        let sim = Sim::new(ring(4, 8), LinkModel::zero_delay(), CostModel::default())
            .with_node_failure(2, 0);
        let out = sim.run(0);
        assert!(out.stats.finished_at.is_none());
        assert!(out.stats.dropped >= 1, "the message into the dead node is dropped");
        assert_eq!(out.stats.messages, 1, "only hop 0→1 is delivered; 1→2 is dropped");
    }

    #[test]
    fn failure_time_is_respected() {
        // Node 2 fails only after t = 10ms; a fast ring completes first.
        let cost = CostModel::Analytic { base_ns: 10, per_test_ns: 0, per_point_ns: 0 };
        let out = Sim::new(ring(4, 8), LinkModel::zero_delay(), cost)
            .with_node_failure(2, 10_000_000)
            .run(0);
        assert!(out.stats.finished_at.is_some(), "failure scheduled after completion");
    }

    #[test]
    fn dead_nodes_timers_never_fire() {
        struct T {
            fired: bool,
        }
        impl Behavior for T {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
                ctx.set_timer(1_000, 1);
                ctx.set_timer(10_000, 2);
            }
            fn on_message(&mut self, _f: usize, _m: TestMsg, _c: &mut dyn Context<TestMsg>) {}
            fn on_timer(&mut self, tag: u64, _c: &mut dyn Context<TestMsg>) {
                if tag == 2 {
                    self.fired = true;
                }
            }
        }
        let out = Sim::new(vec![T { fired: false }], LinkModel::zero_delay(), CostModel::default())
            .with_node_failure(0, 5_000)
            .run(0);
        assert!(!out.nodes[0].fired, "timer past the crash must not fire");
    }

    #[test]
    fn links_are_fifo_even_with_size_inversion() {
        // Node 0 sends a huge message then a tiny one to node 1; despite the
        // tiny one having a far smaller transfer delay, delivery order must
        // match send order.
        struct Src;
        struct Dst {
            got: Vec<u8>,
        }
        enum N {
            Src(Src),
            Dst(Dst),
        }
        impl Behavior for N {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
                if let N::Src(_) = self {
                    ctx.send(1, TestMsg { tag: 1, len: 1_000_000 });
                    ctx.send(1, TestMsg { tag: 2, len: 1 });
                }
            }
            fn on_message(&mut self, _f: usize, msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
                if let N::Dst(d) = self {
                    d.got.push(msg.tag);
                    if d.got.len() == 2 {
                        ctx.finish();
                    }
                }
            }
        }
        let link = LinkModel { latency_ns: 0, ns_per_byte: 100 };
        let out = Sim::new(
            vec![N::Src(Src), N::Dst(Dst { got: Vec::new() })],
            link,
            CostModel::default(),
        )
        .run(0);
        let N::Dst(d) = &out.nodes[1] else { panic!() };
        assert_eq!(d.got, vec![1, 2], "FIFO violated on a single link");
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn runaway_protocol_trips_cap() {
        struct Forever;
        impl Behavior for Forever {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
                ctx.send(0, TestMsg { tag: 0, len: 1 });
            }
            fn on_message(&mut self, _f: usize, _m: TestMsg, ctx: &mut dyn Context<TestMsg>) {
                ctx.send(0, TestMsg { tag: 0, len: 1 });
            }
        }
        let _ = Sim::new(vec![Forever], LinkModel::zero_delay(), CostModel::default())
            .with_max_events(1000)
            .run(0);
    }

    /// The debug-build size oracle.
    #[cfg(debug_assertions)]
    mod oracle {
        use super::*;

        /// A message declaring `.0` wire bytes; its encoding is always the
        /// 8 bytes of that number.
        #[derive(Debug, PartialEq)]
        struct Declared(u64);

        impl Wire for Declared {
            fn wire_bytes(&self) -> u64 {
                self.0
            }
            fn encode(&self) -> Vec<u8> {
                self.0.to_be_bytes().to_vec()
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                Some(Declared(u64::from_be_bytes(bytes.try_into().ok()?)))
            }
        }

        /// Sends one `Declared(.0)` to node `.1` at start.
        struct SendOnce(u64, usize);

        impl Behavior for SendOnce {
            type Msg = Declared;
            fn on_start(&mut self, ctx: &mut dyn Context<Declared>) {
                ctx.send(self.1, Declared(self.0));
            }
            fn on_message(&mut self, _f: usize, _m: Declared, _c: &mut dyn Context<Declared>) {}
        }

        fn send_once(declared: u64, to: usize) {
            let nodes = vec![SendOnce(declared, to), SendOnce(declared, to)];
            Sim::new(nodes, LinkModel::zero_delay(), CostModel::default()).run(0);
        }

        #[test]
        fn honest_sizes_pass() {
            send_once(8, 1);
            send_once(0, 0);
        }

        #[test]
        #[should_panic(expected = "wire_bytes 9 != 8")]
        fn a_size_its_encoding_disagrees_with_panics() {
            send_once(9, 1);
        }

        #[test]
        #[should_panic(expected = "0 -> 1: a 0-byte message must be self-addressed")]
        fn a_zero_byte_message_to_another_node_panics() {
            send_once(0, 1);
        }
    }
}

#[cfg(test)]
mod tracer_tests {
    use super::test_msg::TestMsg;
    use super::*;
    use skypeer_obs::{critical_path, MemTracer};

    struct Relay {
        n: usize,
        hops: u64,
    }
    impl Behavior for Relay {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
            ctx.note(ProtoEvent::Phase { qid: 1, phase: skypeer_obs::QueryPhase::Started });
            ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: 0, len: 100 });
        }
        fn on_message(&mut self, _from: usize, msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
            let hop = msg.tag as u64 + 1;
            ctx.report_work(WorkReport { dominance_tests: 5, points_scanned: 2, measured: None });
            if hop >= self.hops {
                ctx.finish();
            } else {
                ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: hop as u8, len: 100 });
            }
        }
    }

    fn relay(n: usize, hops: u64) -> Vec<Relay> {
        (0..n).map(|_| Relay { n, hops }).collect()
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let plain = Sim::new(relay(4, 7), LinkModel::paper_4kbps(), CostModel::default()).run(0);
        let tracer = Arc::new(MemTracer::new());
        let traced = Sim::new(relay(4, 7), LinkModel::paper_4kbps(), CostModel::default())
            .with_tracer(tracer.clone())
            .run(0);
        assert_eq!(plain.stats, traced.stats);
        assert!(!tracer.is_empty());
    }

    #[test]
    fn trace_is_consistent_with_stats_and_critical_path() {
        let tracer = Arc::new(MemTracer::new());
        let cost = CostModel::Analytic { base_ns: 100, per_test_ns: 1, per_point_ns: 1 };
        let out = Sim::new(relay(3, 5), LinkModel::paper_4kbps(), cost)
            .with_tracer(tracer.clone())
            .run(0);
        let events = tracer.take();
        let delivers =
            events.iter().filter(|e| matches!(e, TraceEvent::Deliver { .. })).count() as u64;
        assert_eq!(delivers, out.stats.messages);
        let sent_bytes: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(sent_bytes, out.stats.bytes);
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Proto { event: ProtoEvent::Phase { qid: 1, .. }, .. }
        )));
        let path = critical_path(&events).expect("run finished");
        assert_eq!(Some(path.finish_at), out.stats.finished_at);
        assert_eq!(path.total_ns, out.stats.finished_at.unwrap(), "path reaches back to t=0");
    }

    #[test]
    fn link_override_changes_only_that_link() {
        // Default ring transfer: 100 B × 10 ns/B = 1000 ns per hop.
        let link = LinkModel { latency_ns: 0, ns_per_byte: 10 };
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 0, per_point_ns: 0 };
        let base = Sim::new(relay(3, 3), link, cost).run(0);
        assert_eq!(base.stats.finished_at, Some(3000));
        // Bump only link 1→2 by 50µs of latency: exactly one hop pays it.
        let pert = Sim::new(relay(3, 3), link, cost)
            .with_link_override(1, 2, LinkModel { latency_ns: 50_000, ns_per_byte: 10 })
            .run(0);
        assert_eq!(pert.stats.finished_at, Some(53_000));
        // The answer-shaping stats are untouched.
        assert_eq!(pert.stats.messages, base.stats.messages);
        assert_eq!(pert.stats.bytes, base.stats.bytes);
        // Overriding a link the protocol never uses changes nothing.
        let unused = Sim::new(relay(3, 3), link, cost)
            .with_link_override(2, 1, LinkModel { latency_ns: 50_000, ns_per_byte: 10 })
            .run(0);
        assert_eq!(unused.stats.finished_at, Some(3000));
    }

    #[test]
    fn what_if_prediction_is_directionally_correct_when_applied() {
        use skypeer_obs::diff::{rank_interventions, Intervention};
        // Transfers dominate: 100 B × 244µs/B per hop vs ~105 ns of
        // service, so the top-ranked intervention must be a link.
        let link = LinkModel::paper_4kbps();
        let cost = CostModel::Analytic { base_ns: 100, per_test_ns: 1, per_point_ns: 0 };
        let tracer = Arc::new(MemTracer::new());
        let base = Sim::new(relay(3, 4), link, cost).with_tracer(tracer.clone()).run(0);
        let base_ns = base.stats.finished_at.expect("finishes");
        let path = critical_path(&tracer.take()).expect("finish");
        assert_eq!(path.total_ns, base_ns);

        let factor = 0.5;
        let ranked = rank_interventions(&path, factor);
        let top = ranked.first().expect("path has segments");
        let Intervention::LinkSpeed { from, to, .. } = top.intervention else {
            panic!("transfers dominate; expected a link intervention, got {:?}", top.intervention)
        };
        assert!(top.predicted_saving_ns > 0);

        // Apply the top-ranked intervention for real: scale that link's
        // latency and per-byte cost by the same factor.
        let scaled = LinkModel {
            latency_ns: (link.latency_ns as f64 * factor).round() as u64,
            ns_per_byte: (link.ns_per_byte as f64 * factor).round() as u64,
        };
        let sped = Sim::new(relay(3, 4), link, cost).with_link_override(from, to, scaled).run(0);
        let sped_ns = sped.stats.finished_at.expect("still finishes");
        assert!(
            sped_ns < base_ns,
            "speeding up the top-ranked link must reduce sim time: {sped_ns} !< {base_ns}"
        );

        // A no-op scale predicts exactly zero saving for every candidate.
        for w in rank_interventions(&path, 1.0) {
            assert_eq!(w.predicted_saving_ns, 0);
        }
    }

    #[test]
    fn dropped_messages_are_traced_with_reason() {
        let tracer = Arc::new(MemTracer::new());
        let out = Sim::new(relay(4, 8), LinkModel::zero_delay(), CostModel::default())
            .with_delivery_hook(|_, to, msg| (to != 2).then_some(msg))
            .with_tracer(tracer.clone())
            .run(0);
        assert_eq!(out.stats.dropped, 1);
        let drops: Vec<_> = tracer
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { to, reason, .. } => Some((to, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(2, DropReason::Injected)]);
    }

    /// Sends `100 · to` bytes to every other node at start; node `i`
    /// reports `10 · i` dominance tests per message, and node 3 finishes.
    struct Fan {
        n: usize,
    }
    impl Behavior for Fan {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
            for to in 1..self.n {
                ctx.send(to, TestMsg { tag: 0, len: 100 * to as u64 });
            }
        }
        fn on_message(&mut self, _f: usize, _m: TestMsg, ctx: &mut dyn Context<TestMsg>) {
            ctx.report_work(WorkReport {
                dominance_tests: 10 * ctx.node_id() as u64,
                points_scanned: 0,
                measured: None,
            });
            if ctx.node_id() == 3 {
                ctx.finish();
            }
        }
    }

    #[test]
    fn trace_carries_per_node_and_per_link_breakdowns() {
        use skypeer_obs::MetricsRegistry;
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 1, per_point_ns: 0 };
        let nodes: Vec<Fan> = (0..4).map(|_| Fan { n: 4 }).collect();
        let tracer = Arc::new(MemTracer::new());
        let out = Sim::new(nodes, LinkModel::zero_delay(), cost).with_tracer(tracer.clone()).run(0);
        let m = MetricsRegistry::from_events(&tracer.take());
        let service = |node: usize| m.per_node[node].service_ns;
        assert_eq!((service(1), service(2), service(3)), (10, 20, 30));
        assert_eq!(m.hottest_node(), Some((3, 30)));
        assert_eq!(m.link_bytes[&(0, 2)], 200);
        assert_eq!(m.hottest_link(), Some(((0, 3), 300)));
        let handled: u64 = m.per_node.iter().map(|n| n.msgs_in).sum();
        assert_eq!(handled, out.stats.messages);
    }

    #[test]
    fn finish_events_carry_every_finish_with_its_time() {
        let link = LinkModel { latency_ns: 0, ns_per_byte: 10 };
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 0, per_point_ns: 0 };
        let tracer = Arc::new(MemTracer::new());
        let out = Sim::new(relay(3, 3), link, cost).with_tracer(tracer.clone()).run(0);
        let finishes: Vec<(usize, SimTime)> = tracer
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Finish { node, at, .. } => Some((node, at)),
                _ => None,
            })
            .collect();
        // One finish, at the node 3 hops around the ring, at the same time
        // the stats report.
        assert_eq!(finishes, vec![(0, 3000)]);
        assert_eq!(out.stats.finished_at, Some(3000));
    }
}

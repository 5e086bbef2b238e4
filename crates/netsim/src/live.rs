//! Live threaded runtime: the same [`Behavior`] implementations as the
//! DES, but on real OS threads with crossbeam channels.
//!
//! This runtime exists to demonstrate that the SKYPEER protocol logic is
//! not a simulation artifact: every super-peer runs on its own thread,
//! messages really race, and the result must still be exact. It is used by
//! the integration tests (DES ↔ live agreement) and the `live_network`
//! example. Scale it to hundreds of nodes, not tens of thousands — that is
//! what the DES is for.
//!
//! Unlike the DES, the channels carry real bytes: [`Context::send`]
//! encodes each message and the receiving thread decodes it before the
//! handler runs, so an undecodable payload never reaches a handler. The
//! two codec calls are the `wire::encode` and `wire::decode` profiling
//! scopes.
//!
//! Like the DES, the runtime accepts an optional [`Tracer`]
//! ([`run_live_multi_traced`]). Timestamps are nanoseconds since run
//! start; there is no link model, so a message's `queued_at`, `sent_at`
//! and `arrive_at` coincide. Event *order* in a live trace is whatever
//! the thread interleaving produced — only the DES promises deterministic
//! traces.

use crate::cost::WorkReport;
use crate::des::{Behavior, Context, SimTime, Wire};
use crossbeam::channel::{unbounded, Receiver, Sender};
use skypeer_obs::{DropReason, ProtoEvent, SamplerHandle, SpanCause, TraceEvent, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum Envelope {
    App { seq: u64, from: usize, payload: Vec<u8> },
    Shutdown,
}

/// Statistics of a live run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Messages delivered to handlers.
    pub messages: u64,
    /// Bytes put on the wire ([`Wire::wire_bytes`] of every send).
    pub bytes: u64,
    /// Wall-clock duration until `finish` was signalled.
    pub elapsed: Duration,
}

/// Outcome of a live run: the nodes (in id order) and statistics.
pub struct LiveOutcome<B> {
    /// Final node states.
    pub nodes: Vec<B>,
    /// Run statistics.
    pub stats: LiveStats,
    /// Wall-clock nanoseconds since run start of each observed
    /// [`Context::finish`] call, in signal-arrival order (one entry per
    /// required finish; late finishes racing shutdown are not waited
    /// for). The live analogue of the DES's `Finish` trace events.
    pub finish_times: Vec<SimTime>,
}

fn ns_since(started: Instant) -> SimTime {
    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

struct LiveCtx<'a> {
    node: usize,
    started: Instant,
    senders: &'a [Sender<Envelope>],
    bytes: &'a AtomicU64,
    messages: &'a AtomicU64,
    finish_tx: &'a Sender<SimTime>,
    /// Timers armed during this handler: (fire-at, tag, timer seq).
    timers: &'a mut Vec<(Instant, u64, u64)>,
    tracer: Option<&'a Arc<dyn Tracer>>,
    /// Span id of the handler invocation this context serves.
    span: u64,
    /// `now()` when the handler was entered.
    span_begin: SimTime,
    msg_seq: &'a AtomicU64,
    timer_seq: &'a AtomicU64,
    /// Work reported by this handler (informational in live runs).
    work: WorkReport,
    /// Finishes declared by this handler.
    finishes: usize,
}

impl<M: Wire> Context<M> for LiveCtx<'_> {
    fn node_id(&self) -> usize {
        self.node
    }
    fn now(&self) -> SimTime {
        ns_since(self.started)
    }
    fn send(&mut self, to: usize, msg: M) {
        let bytes = msg.wire_bytes();
        let payload = {
            skypeer_obs::scope!("wire::encode");
            msg.encode()
        };
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
        let seq = self.msg_seq.fetch_add(1, Ordering::Relaxed);
        let now = ns_since(self.started);
        if let Some(tr) = self.tracer {
            tr.record(TraceEvent::Send {
                msg_seq: seq,
                span: self.span,
                from: self.node,
                to,
                bytes,
                queued_at: now,
                sent_at: now,
                arrive_at: now,
            });
        }
        // A send to a node that already shut down is a no-op, mirroring a
        // network send to a departed peer.
        if self.senders[to].send(Envelope::App { seq, from: self.node, payload }).is_err() {
            if let Some(tr) = self.tracer {
                tr.record(TraceEvent::Drop {
                    msg_seq: seq,
                    at: now,
                    from: self.node,
                    to,
                    reason: DropReason::DeadReceiver,
                });
            }
        }
    }
    fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(tr) = self.tracer {
            tr.record(TraceEvent::TimerSet {
                timer_seq: seq,
                span: self.span,
                node: self.node,
                fire_at: ns_since(self.started) + delay,
                tag,
            });
        }
        self.timers.push((Instant::now() + Duration::from_nanos(delay), tag, seq));
    }
    fn report_work(&mut self, work: WorkReport) {
        // Live time is real time; the report feeds only the trace.
        self.work.dominance_tests += work.dominance_tests;
        self.work.points_scanned += work.points_scanned;
    }
    fn finish(&mut self) {
        self.finishes += 1;
        let _ = self.finish_tx.send(ns_since(self.started));
    }
    fn note(&mut self, ev: ProtoEvent) {
        if let Some(tr) = self.tracer {
            tr.record(TraceEvent::Proto {
                span: self.span,
                node: self.node,
                at: self.span_begin,
                event: ev,
            });
        }
    }
}

/// Runs `nodes` live: `on_start` fires on `start`, then every node
/// processes its inbox on its own thread until some handler calls
/// [`Context::finish`] (or `timeout` expires — the run then returns
/// `None`, with node threads shut down either way).
pub fn run_live<B>(nodes: Vec<B>, start: usize, timeout: Duration) -> Option<LiveOutcome<B>>
where
    B: Behavior + Send + 'static,
{
    run_live_multi(nodes, &[start], 1, timeout)
}

/// Multi-start live run: `on_start` fires on every node in `starts`, and
/// the run succeeds once [`Context::finish`] has been signalled
/// `required_finishes` times within `timeout` — live concurrent query
/// batches.
///
/// # Panics
///
/// Panics on an empty or out-of-range `starts` list or
/// `required_finishes == 0`.
pub fn run_live_multi<B>(
    nodes: Vec<B>,
    starts: &[usize],
    required_finishes: usize,
    timeout: Duration,
) -> Option<LiveOutcome<B>>
where
    B: Behavior + Send + 'static,
{
    run_live_multi_traced(nodes, starts, required_finishes, timeout, None, None)
}

/// [`run_live_multi`] with an optional [`Tracer`] observing every node
/// thread. With `None` the emission sites reduce to a branch each, so
/// [`LiveStats`] is unaffected by the instrumentation.
///
/// When a [`SamplerHandle`] is supplied it keeps flushing metrics to its
/// file on its own interval while the run executes (it should sample the
/// same tracer), and the runtime forces one final flush after all node
/// threads have joined, so the metrics file always ends at the complete
/// run.
pub fn run_live_multi_traced<B>(
    nodes: Vec<B>,
    starts: &[usize],
    required_finishes: usize,
    timeout: Duration,
    tracer: Option<Arc<dyn Tracer>>,
    sampler: Option<&SamplerHandle>,
) -> Option<LiveOutcome<B>>
where
    B: Behavior + Send + 'static,
{
    assert!(!starts.is_empty(), "need at least one start node");
    assert!(required_finishes >= 1, "need at least one required finish");
    for &start in starts {
        assert!(start < nodes.len(), "start node {start} out of range");
    }
    let n = nodes.len();
    let started = Instant::now();
    let bytes = Arc::new(AtomicU64::new(0));
    let messages = Arc::new(AtomicU64::new(0));
    // Shared id spaces for trace correlation across node threads.
    let msg_seq = Arc::new(AtomicU64::new(0));
    let timer_seq = Arc::new(AtomicU64::new(0));
    let span_seq = Arc::new(AtomicU64::new(0));
    let (finish_tx, finish_rx) = unbounded::<SimTime>();

    let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Envelope>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);

    let mut handles = Vec::with_capacity(n);
    for (id, (mut node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
        let senders = Arc::clone(&senders);
        let bytes = Arc::clone(&bytes);
        let messages = Arc::clone(&messages);
        let msg_seq = Arc::clone(&msg_seq);
        let timer_seq = Arc::clone(&timer_seq);
        let span_seq = Arc::clone(&span_seq);
        let finish_tx = finish_tx.clone();
        let tracer = tracer.clone();
        let is_start = starts.contains(&id);
        handles.push(std::thread::spawn(move || {
            // Pending timers for this node: (deadline, tag, timer seq).
            let mut timers: Vec<(Instant, u64, u64)> = Vec::new();
            // Runs one handler invocation as a traced service span.
            let serve = |node: &mut B,
                         timers: &mut Vec<(Instant, u64, u64)>,
                         cause: SpanCause,
                         input: Option<(usize, B::Msg)>,
                         timer_tag: u64| {
                let span = span_seq.fetch_add(1, Ordering::Relaxed);
                let begin = ns_since(started);
                let mut armed: Vec<(Instant, u64, u64)> = Vec::new();
                let mut ctx = LiveCtx {
                    node: id,
                    started,
                    senders: &senders,
                    bytes: &bytes,
                    messages: &messages,
                    finish_tx: &finish_tx,
                    timers: &mut armed,
                    tracer: tracer.as_ref(),
                    span,
                    span_begin: begin,
                    msg_seq: &msg_seq,
                    timer_seq: &timer_seq,
                    work: WorkReport::default(),
                    finishes: 0,
                };
                match input {
                    Some((from, msg)) => node.on_message(from, msg, &mut ctx),
                    None => match cause {
                        SpanCause::Timer(_) => node.on_timer(timer_tag, &mut ctx),
                        _ => node.on_start(&mut ctx),
                    },
                }
                let (work, finishes) = (ctx.work, ctx.finishes);
                timers.extend(armed);
                if let Some(tr) = &tracer {
                    let end = ns_since(started);
                    tr.record(TraceEvent::Service {
                        span,
                        node: id,
                        begin,
                        end,
                        cause,
                        dominance_tests: work.dominance_tests,
                        points_scanned: work.points_scanned,
                        finished: finishes > 0,
                    });
                    for _ in 0..finishes {
                        tr.record(TraceEvent::Finish { span, node: id, at: end });
                    }
                }
            };
            if is_start {
                serve(&mut node, &mut timers, SpanCause::Start, None, 0);
            }
            loop {
                // Fire any expired timers before blocking again.
                let now = Instant::now();
                while let Some(pos) = timers.iter().position(|(at, _, _)| *at <= now) {
                    let (_, tag, seq) = timers.swap_remove(pos);
                    if let Some(tr) = &tracer {
                        tr.record(TraceEvent::TimerFire {
                            timer_seq: seq,
                            at: ns_since(started),
                            node: id,
                            tag,
                        });
                    }
                    serve(&mut node, &mut timers, SpanCause::Timer(seq), None, tag);
                }
                // Block until the next message or the earliest deadline.
                let env = match timers.iter().map(|(at, _, _)| *at).min() {
                    Some(deadline) => {
                        let wait = deadline.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(wait) {
                            Ok(env) => env,
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    None => match rx.recv() {
                        Ok(env) => env,
                        Err(_) => break,
                    },
                };
                match env {
                    Envelope::App { seq, from, payload } => {
                        let decoded = {
                            skypeer_obs::scope!("wire::decode");
                            B::Msg::decode(&payload)
                        };
                        let Some(msg) = decoded else { continue };
                        if let Some(tr) = &tracer {
                            tr.record(TraceEvent::Deliver {
                                msg_seq: seq,
                                at: ns_since(started),
                                from,
                                to: id,
                            });
                        }
                        serve(&mut node, &mut timers, SpanCause::Msg(seq), Some((from, msg)), 0);
                    }
                    Envelope::Shutdown => break,
                }
            }
            node
        }));
    }

    let deadline = Instant::now() + timeout;
    let mut finish_times: Vec<SimTime> = Vec::with_capacity(required_finishes);
    while finish_times.len() < required_finishes {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match finish_rx.recv_timeout(remaining) {
            Ok(at) => finish_times.push(at),
            Err(_) => break,
        }
    }
    let finished = finish_times.len() >= required_finishes;
    // Shutdown goes through the same FIFO channels, so every message sent
    // before the finish signal is processed first.
    for tx in senders.iter() {
        let _ = tx.send(Envelope::Shutdown);
    }
    let elapsed = started.elapsed();
    let mut nodes: Vec<B> = Vec::with_capacity(n);
    for h in handles {
        nodes.push(h.join().expect("node thread panicked"));
    }
    if let Some(s) = sampler {
        let _ = s.flush();
    }
    finished.then_some(LiveOutcome {
        nodes,
        stats: LiveStats {
            messages: messages.load(Ordering::Relaxed),
            bytes: bytes.load(Ordering::Relaxed),
            elapsed,
        },
        finish_times,
    })
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::des::test_msg::TestMsg;
    use skypeer_obs::MemTracer;

    struct Ring {
        n: usize,
        hops: u64,
    }

    impl Behavior for Ring {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
            ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: 0, len: 64 });
        }
        fn on_message(&mut self, _from: usize, msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
            let hop = u64::from(msg.tag) + 1;
            if hop >= self.hops {
                ctx.finish();
            } else {
                ctx.send((ctx.node_id() + 1) % self.n, TestMsg { tag: hop as u8, len: 64 });
            }
        }
    }

    #[test]
    fn ring_completes_live() {
        let nodes: Vec<Ring> = (0..4).map(|_| Ring { n: 4, hops: 9 }).collect();
        let out = run_live(nodes, 0, Duration::from_secs(5)).expect("ring must complete");
        assert_eq!(out.stats.messages, 9);
        assert_eq!(out.stats.bytes, 9 * 64);
        assert_eq!(out.finish_times.len(), 1, "one finish time per required finish");
        assert!(out.finish_times[0] <= out.stats.elapsed.as_nanos() as u64);
    }

    #[test]
    fn timeout_returns_none() {
        struct Mute;
        impl Behavior for Mute {
            type Msg = TestMsg;
            fn on_message(&mut self, _f: usize, _m: TestMsg, _c: &mut dyn Context<TestMsg>) {}
        }
        let out = run_live(vec![Mute, Mute], 0, Duration::from_millis(50));
        assert!(out.is_none(), "nothing ever finishes");
    }

    #[test]
    fn nodes_returned_in_id_order() {
        struct Tag(usize);
        impl Behavior for Tag {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
                ctx.finish();
            }
            fn on_message(&mut self, _f: usize, _m: TestMsg, _c: &mut dyn Context<TestMsg>) {}
        }
        let out =
            run_live(vec![Tag(0), Tag(1), Tag(2)], 0, Duration::from_secs(1)).expect("finishes");
        for (i, t) in out.nodes.iter().enumerate() {
            assert_eq!(t.0, i);
        }
    }

    #[test]
    fn traced_live_run_records_consistent_events() {
        let tracer = Arc::new(MemTracer::new());
        let nodes: Vec<Ring> = (0..3).map(|_| Ring { n: 3, hops: 6 }).collect();
        let out = run_live_multi_traced(
            nodes,
            &[0],
            1,
            Duration::from_secs(5),
            Some(tracer.clone() as Arc<dyn Tracer>),
            None,
        )
        .expect("ring must complete");
        let events = tracer.take();
        let sends = events.iter().filter(|e| matches!(e, TraceEvent::Send { .. })).count() as u64;
        assert_eq!(sends, out.stats.messages);
        // Every message the stats counted was delivered (the run only
        // finishes after the last hop, and shutdown drains FIFO inboxes
        // behind it) — but late deliveries can race shutdown, so only the
        // finishing chain is guaranteed. At minimum the finish span exists.
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Service { finished: true, .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Finish { .. })));
        // Spans pair one Service per Deliver that reached a handler plus
        // the start span.
        let services = events.iter().filter(|e| matches!(e, TraceEvent::Service { .. })).count();
        let delivers = events.iter().filter(|e| matches!(e, TraceEvent::Deliver { .. })).count();
        assert_eq!(services, delivers + 1, "one span per delivered message, plus on_start");
    }

    #[test]
    fn sampler_exposes_metrics_of_a_live_run() {
        use skypeer_obs::Sampler;
        let dir = std::env::temp_dir().join(format!("skypeer-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("live.prom");
        let tracer = Arc::new(MemTracer::new());
        let handle = Sampler::start(Arc::clone(&tracer), &path, Duration::from_millis(5))
            .expect("sampler starts");
        let nodes: Vec<Ring> = (0..3).map(|_| Ring { n: 3, hops: 6 }).collect();
        let out = run_live_multi_traced(
            nodes,
            &[0],
            1,
            Duration::from_secs(5),
            Some(tracer.clone() as Arc<dyn Tracer>),
            Some(&handle),
        )
        .expect("ring must complete");
        // The runtime's post-join flush makes the file reflect at least
        // every send the stats counted.
        let text = std::fs::read_to_string(&path).expect("metrics file exists");
        let sent: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("skypeer_messages_sent_total "))
            .expect("messages_sent series present")
            .parse()
            .expect("integer value");
        assert_eq!(sent, out.stats.messages);
        handle.finish().expect("sampler stops");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Property tests for the DES: conservation, determinism, and ordering
//! invariants under randomized relay protocols.

use crate::cost::{CostModel, WorkReport};
use crate::des::test_msg::TestMsg;
use crate::des::{Behavior, Context, LinkModel, Sim, SimTime};
use proptest::prelude::*;

/// A randomized relay node: on each message it forwards to a scripted set
/// of targets until its script is exhausted. Deterministic given the
/// script, arbitrary given proptest.
struct Scripted {
    /// Each delivered message pops one entry: the list of (target, bytes).
    script: Vec<Vec<(usize, u64)>>,
    delivered: Vec<(usize, SimTime)>,
    work_per_msg: u64,
}

impl Behavior for Scripted {
    type Msg = TestMsg;
    fn on_start(&mut self, ctx: &mut dyn Context<TestMsg>) {
        if let Some(batch) = self.script.pop() {
            for (to, len) in batch {
                ctx.send(to, TestMsg { tag: 0, len });
            }
        }
    }
    fn on_message(&mut self, from: usize, _msg: TestMsg, ctx: &mut dyn Context<TestMsg>) {
        self.delivered.push((from, ctx.now()));
        ctx.report_work(WorkReport {
            dominance_tests: self.work_per_msg,
            points_scanned: 0,
            measured: None,
        });
        if let Some(batch) = self.script.pop() {
            for (to, len) in batch {
                ctx.send(to, TestMsg { tag: 0, len });
            }
        }
    }
}

fn build(scripts: &[Vec<Vec<(usize, u64)>>], work: u64) -> Vec<Scripted> {
    scripts
        .iter()
        .map(|s| Scripted { script: s.clone(), delivered: Vec::new(), work_per_msg: work })
        .collect()
}

fn script_strategy(n_nodes: usize) -> impl Strategy<Value = Vec<Vec<Vec<(usize, u64)>>>> {
    let batch = prop::collection::vec((0..n_nodes, 1u64..5000), 0..4);
    let script = prop::collection::vec(batch, 0..6);
    prop::collection::vec(script, n_nodes..=n_nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two identical runs produce identical statistics and node states.
    #[test]
    fn prop_runs_are_deterministic(scripts in script_strategy(4)) {
        let a = Sim::new(build(&scripts, 7), LinkModel::paper_4kbps(), CostModel::default()).run(0);
        let b = Sim::new(build(&scripts, 7), LinkModel::paper_4kbps(), CostModel::default()).run(0);
        prop_assert_eq!(a.stats, b.stats);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            prop_assert_eq!(&na.delivered, &nb.delivered);
        }
    }

    /// Without drops, every sent message is eventually delivered
    /// (conservation), and byte counts equal the sum of declared sizes.
    #[test]
    fn prop_messages_are_conserved(scripts in script_strategy(3)) {
        let out = Sim::new(build(&scripts, 1), LinkModel::zero_delay(), CostModel::default()).run(0);
        // Count sends actually performed: pops happen on start (node 0)
        // and per delivery, so total sends = sum over nodes of batches
        // popped. Delivered = stats.messages. Compute sends from the
        // scripts by replaying the pop discipline: node 0 pops once at
        // start, every node pops once per delivered message.
        let mut expected_bytes = 0u64;
        let mut sent = 0u64;
        // Replay: scripts pop from the END (Vec::pop).
        let mut remaining: Vec<Vec<Vec<(usize, u64)>>> = scripts.clone();
        let mut inflight: std::collections::VecDeque<usize> = Default::default();
        if let Some(batch) = remaining[0].pop() {
            for (to, bytes) in batch {
                expected_bytes += bytes;
                sent += 1;
                inflight.push_back(to);
            }
        }
        // Zero-delay + FIFO heap order means delivery order here is
        // breadth-first in send order, matching the DES exactly.
        while let Some(node) = inflight.pop_front() {
            if let Some(batch) = remaining[node].pop() {
                for (to, bytes) in batch {
                    expected_bytes += bytes;
                    sent += 1;
                    inflight.push_back(to);
                }
            }
        }
        prop_assert_eq!(out.stats.messages, sent);
        prop_assert_eq!(out.stats.bytes, expected_bytes);
    }

    /// A node's deliveries are observed at non-decreasing simulated times,
    /// and total compute equals handler count × unit cost.
    #[test]
    fn prop_per_node_time_is_monotone(scripts in script_strategy(4), work in 1u64..1000) {
        let cost = CostModel::Analytic { base_ns: 0, per_test_ns: 1, per_point_ns: 0 };
        let out = Sim::new(build(&scripts, work), LinkModel::paper_4kbps(), cost).run(0);
        let mut handled = 0u64;
        for node in &out.nodes {
            handled += node.delivered.len() as u64;
            for w in node.delivered.windows(2) {
                prop_assert!(w[0].1 <= w[1].1, "time ran backwards at a node");
            }
        }
        prop_assert_eq!(out.stats.compute_ns_total, handled * work);
        prop_assert_eq!(out.stats.messages, handled);
    }

    /// Slowing the links never reduces the completion time of the last
    /// event.
    #[test]
    fn prop_slower_links_never_finish_earlier(scripts in script_strategy(3)) {
        let fast = Sim::new(build(&scripts, 5), LinkModel::zero_delay(), CostModel::default()).run(0);
        let slow = Sim::new(build(&scripts, 5), LinkModel::paper_4kbps(), CostModel::default()).run(0);
        prop_assert!(slow.stats.last_event_at >= fast.stats.last_event_at);
        prop_assert_eq!(slow.stats.messages, fast.stats.messages, "link speed must not change delivery count");
    }
}

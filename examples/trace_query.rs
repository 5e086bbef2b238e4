//! Traces every protocol message of one SKYPEER query through the DES:
//! which super-peer talked to which, what kind of message, how big, and
//! when its receiver handled it (simulated time). A compact way to *see*
//! the spanning tree form, the threshold travel, and the results flow
//! home.
//!
//! ```text
//! cargo run --release --example trace_query [variant]
//! ```

use skypeer::core::msg::Msg;
use skypeer::core::node::{InitQuery, SuperPeerNode};
use skypeer::core::preprocess::SuperPeerStore;
use skypeer::core::Variant;
use skypeer::data::{DatasetKind, DatasetSpec};
use skypeer::netsim::cost::CostModel;
use skypeer::netsim::des::{Behavior, Context, LinkModel, Sim, Wire};
use skypeer::netsim::topology::TopologySpec;
use skypeer::prelude::*;
use skypeer::skyline::DominanceIndex;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A SKYPEER node that logs every message it handles, in handling order.
struct Logged {
    node: SuperPeerNode,
    log: Rc<RefCell<Vec<String>>>,
}

impl Behavior for Logged {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Context<Msg>) {
        let what = match &msg {
            Msg::Query { threshold, .. } => format!("QUERY    t={threshold:.3}"),
            Msg::Answer { done, complete, points, .. } => format!(
                "ANSWER   {} points{}{}",
                points.len(),
                if *done { ", subtree done" } else { "" },
                if *complete { "" } else { ", INCOMPLETE" },
            ),
            Msg::DupAck { .. } => "DUP-ACK  (not your child)".to_string(),
            Msg::ComputeLocal { .. } => "compute  (local, deferred)".to_string(),
            Msg::SampleQuery { filter, .. } => format!("SAMPLE-Q {} filter points", filter.len()),
            Msg::Candidates { points, .. } => format!("CANDS    {} points", points.len()),
        };
        self.log.borrow_mut().push(format!(
            "t={:>9.3}ms  SP{from} → SP{:<2} {:>4}B  {what}",
            ctx.now() as f64 / 1e6,
            ctx.node_id(),
            msg.wire_bytes(),
        ));
        self.node.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<Msg>) {
        self.node.on_timer(tag, ctx);
    }
}

fn main() {
    let variant = match std::env::args().nth(1).as_deref() {
        Some("ftfm") => Variant::Ftfm,
        Some("ftpm") | None => Variant::Ftpm,
        Some("rtfm") => Variant::Rtfm,
        Some("rtpm") => Variant::Rtpm,
        Some("naive") => Variant::Naive,
        Some(other) => {
            eprintln!("unknown variant '{other}', expected ftfm|ftpm|rtfm|rtpm|naive");
            std::process::exit(2);
        }
    };

    // A small, readable network: 6 super-peers, 2 peers each.
    let n_sp = 6;
    let topo = TopologySpec::paper_default(n_sp, 7).generate();
    let spec = DatasetSpec { dim: 4, points_per_peer: 50, kind: DatasetKind::Uniform, seed: 3 };
    let stores: Vec<Arc<_>> = (0..n_sp)
        .map(|sp| {
            let sets: Vec<_> = (0..2).map(|i| spec.generate_peer(sp * 2 + i, sp)).collect();
            SuperPeerStore::preprocess(&sets, 4, DominanceIndex::Linear).store
        })
        .collect();
    println!("topology:");
    for (sp, store) in stores.iter().enumerate() {
        println!("  SP{sp} ↔ {:?}  (store: {} points)", topo.neighbors(sp), store.len());
    }

    let subspace = Subspace::from_dims(&[0, 2]);
    let initiator = 0;
    println!("\nquery: skyline on {subspace}, initiator SP{initiator}, variant {variant}\n");

    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let nodes: Vec<Logged> = (0..n_sp)
        .map(|sp| {
            let init = (sp == initiator).then_some(InitQuery::standard(1, subspace, variant));
            let node = SuperPeerNode::new(
                sp,
                topo.neighbors(sp).to_vec(),
                Arc::clone(&stores[sp]),
                DominanceIndex::Linear,
                init,
            );
            Logged { node, log: Rc::clone(&log) }
        })
        .collect();
    let out = Sim::new(nodes, LinkModel::paper_4kbps(), CostModel::default()).run(initiator);

    for line in log.borrow().iter() {
        println!("{line}");
    }
    let answer =
        out.nodes.into_iter().nth(initiator).expect("initiator").node.into_outcome().expect("done");
    println!(
        "\nfinished at t={:.3}ms: {} skyline points, {} messages, {} bytes",
        out.stats.finished_at.expect("finished") as f64 / 1e6,
        answer.result.len(),
        out.stats.messages,
        out.stats.bytes,
    );
}

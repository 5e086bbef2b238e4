#![warn(missing_docs)]

//! Network substrate for SKYPEER: super-peer topologies, a deterministic
//! discrete-event simulator (DES), and a live threaded runtime.
//!
//! The paper (Section 6) simulates its P2P network: peers run as multiple
//! instances on one machine, the topology comes from the GT-ITM generator,
//! and each super-peer connection is modelled with a 4 KB/s transfer
//! bandwidth. This crate reproduces that methodology:
//!
//! * [`topology`] — random connected super-peer graphs with a target
//!   average degree (`DEG_sp`), standing in for GT-ITM's flat random
//!   (Waxman) model, plus peer→super-peer assignment;
//! * [`des`] — a deterministic DES in which each node processes messages
//!   sequentially (it is *busy* for the computed service time of each
//!   handler invocation) and each message suffers a per-link transfer
//!   delay proportional to its size;
//! * [`cost`] — the computation cost model translating kernel operation
//!   counts (or measured wall time) into simulated service time;
//! * [`live`] — a thread-per-node runtime over crossbeam channels running
//!   the *same* [`Behavior`] implementations for real, used to check the
//!   protocol against actual concurrency.
//!
//! Protocol logic is written once against the [`Behavior`]/[`Context`]
//! traits and runs unchanged on both runtimes. A protocol brings its own
//! message type, implementing [`Wire`]: the DES delivers the typed values
//! and charges each link their [`Wire::wire_bytes`], while the live runtime
//! moves their encoded bytes and decodes them at the receiver. In debug
//! builds the DES also encodes every sent message and checks its round
//! trip and size, so the codec the live runtime relies on stays honest.
//!
//! Both runtimes accept an optional [`obs::Tracer`] and emit structured
//! [`obs::TraceEvent`]s (service spans, message movement, timers,
//! protocol notes); see the `skypeer-obs` crate for the event model,
//! metrics registry, exporters, and critical-path analysis.

pub mod cost;
pub mod des;
pub mod live;
pub mod topology;

/// The observability crate, re-exported so behaviors can name
/// [`obs::ProtoEvent`] & co. without a direct dependency.
pub use skypeer_obs as obs;

pub use cost::CostModel;
pub use des::{Behavior, Context, LinkModel, Sim, SimStats, SimTime, Wire};
pub use topology::{Topology, TopologyModel, TopologySpec};

#[cfg(test)]
mod proptests;

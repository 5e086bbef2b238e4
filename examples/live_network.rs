//! Runs SKYPEER on the live threaded runtime — one OS thread per
//! super-peer, real crossbeam channels — and cross-checks every answer
//! against the deterministic DES.
//!
//! ```text
//! cargo run --release --example live_network
//! cargo run --release --example live_network -- --metrics-file /tmp/skypeer.prom
//! cargo run --release --example live_network -- --metrics-file /tmp/skypeer.prom \
//!     --history-out /tmp/skypeer.history.jsonl
//! ```
//!
//! With `--metrics-file PATH` every node thread reports into a shared
//! tracer and a background sampler keeps flushing a Prometheus text
//! snapshot to PATH (atomically, every 250 ms) while the queries run.
//! Adding `--history-out FILE` also records one telemetry sample per
//! flush tick into FILE — replay it with `skypeer-cli top --replay FILE`.

use skypeer::core::engine::SkypeerEngine;
use skypeer::core::live::run_query_live;
use skypeer::core::EngineConfig;
use skypeer::obs::{MemTracer, Sampler, Tracer};
use skypeer::prelude::*;
use skypeer_data::Query;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_flag = |name: &str| match args.iter().position(|a| a == name) {
        Some(p) => match args.get(p + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("error: {name} needs a path");
                std::process::exit(1);
            }
        },
        None => None,
    };
    let metrics_file = path_flag("--metrics-file");
    let history_out = path_flag("--history-out");
    if history_out.is_some() && metrics_file.is_none() {
        eprintln!("error: --history-out needs --metrics-file (the sampler drives both)");
        std::process::exit(1);
    }
    let tracer: Option<Arc<MemTracer>> = metrics_file.is_some().then(Arc::<MemTracer>::default);
    let sampler = metrics_file.as_ref().map(|path| {
        let t = Arc::clone(tracer.as_ref().expect("tracer exists when a path was given"));
        let interval = Duration::from_millis(250);
        let started = if history_out.is_some() {
            Sampler::start_with_history(t, path.clone(), interval)
        } else {
            Sampler::start(t, path.clone(), interval)
        };
        started.unwrap_or_else(|e| {
            eprintln!("error: cannot write metrics file {path}: {e}");
            std::process::exit(1);
        })
    });

    let config = EngineConfig::paper_default(200, 31);
    println!(
        "building {}-peer network ({} super-peer threads) ...",
        config.n_peers, config.n_superpeers
    );
    let engine = SkypeerEngine::build(config);
    let stores: Vec<Arc<_>> =
        (0..config.n_superpeers).map(|sp| Arc::new(engine.store(sp).clone())).collect();

    let workload = WorkloadSpec {
        dim: config.dataset.dim,
        k: 3,
        queries: 5,
        n_superpeers: config.n_superpeers,
        seed: 3,
    }
    .generate();

    for (i, q) in workload.iter().enumerate() {
        let des = engine.run_query(*q, Variant::Rtpm);
        let live = run_query_live(
            engine.topology(),
            &stores,
            q.subspace,
            q.initiator,
            Variant::Rtpm,
            Dominance::Standard,
            config.index,
            Duration::from_secs(30),
            tracer.clone().map(|t| t as Arc<dyn Tracer>),
            sampler.as_ref(),
        )
        .expect("live query completes");
        assert_eq!(
            des.result_ids, live.result_ids,
            "threaded execution must agree with the simulator"
        );
        println!(
            "query {i}: U={} from SP{} → {} skyline points | live wall time {:?}, {} msgs | DES total {:.2} ms",
            q.subspace,
            q.initiator,
            live.result_ids.len(),
            live.stats.elapsed,
            live.stats.messages,
            des.total_time_ns as f64 / 1e6,
        );
        let _ = Query { subspace: q.subspace, initiator: q.initiator };
    }
    println!("\nall live answers match the DES — the protocol is schedule-independent");
    if let Some(s) = sampler {
        let path = s.path().display().to_string();
        let flushes = s.flushes();
        let history = s.history_text();
        s.finish().expect("final metrics flush succeeds");
        println!("metrics: {} snapshots flushed to {path}", flushes + 1);
        if let (Some(out), Some(text)) = (&history_out, history) {
            std::fs::write(out, &text).expect("history file writes");
            println!(
                "history: {} samples recorded to {out} (replay: skypeer-cli top --replay {out})",
                text.lines().count()
            );
        }
    }
}

//! Head-to-head of the four SKYPEER variants against the naive baseline
//! across growing network sizes — a miniature of the paper's scalability
//! study (Figures 3(f), 4(b), 4(c)).
//!
//! ```text
//! cargo run --release --example variant_faceoff [n_peers...]
//! ```

use skypeer::core::engine::{QueryMetrics, SkypeerEngine};
use skypeer::core::EngineConfig;
use skypeer::prelude::*;

fn main() {
    let sizes: Vec<usize> = {
        let args: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
        if args.is_empty() {
            vec![200, 400, 800]
        } else {
            args
        }
    };

    for n_peers in sizes {
        let config = EngineConfig::paper_default(n_peers, 1234);
        let engine = SkypeerEngine::build(config);
        let workload = WorkloadSpec {
            dim: config.dataset.dim,
            k: 3,
            queries: 10,
            n_superpeers: config.n_superpeers,
            seed: 5,
        }
        .generate();

        println!(
            "\n=== {n_peers} peers / {} super-peers / {} points ===",
            config.n_superpeers,
            engine.preprocess_report().raw_points
        );
        println!(
            "{:>6}  {:>12}  {:>12}  {:>10}  {:>9}",
            "variant", "comp (ms)", "total (ms)", "vol (KB)", "msgs"
        );

        let metrics = |variant| {
            let outcomes: Vec<_> = workload.iter().map(|q| engine.run_query(*q, variant)).collect();
            QueryMetrics::from_outcomes(&outcomes)
        };
        let mut naive_total = f64::NAN;
        for variant in Variant::ALL {
            let m = metrics(variant);
            if variant == Variant::Naive {
                naive_total = m.avg_total_time_ns;
            }
            println!(
                "{:>6}  {:>12.3}  {:>12.3}  {:>10.1}  {:>9.1}",
                variant.mnemonic(),
                m.avg_comp_time_ns / 1e6,
                m.avg_total_time_ns / 1e6,
                m.avg_volume_bytes / 1024.0,
                m.avg_messages,
            );
        }
        for variant in Variant::SKYPEER {
            let m = metrics(variant);
            println!(
                "  speed-up of {} over naive (total time): {:.1}x",
                variant.mnemonic(),
                naive_total / m.avg_total_time_ns
            );
        }
    }
}

//! The paper's motivating scenario: a global hotel reservation network.
//!
//! Travel agencies (peers) advertise hotels to geographically dispersed
//! reservation servers (super-peers). Users ask skyline queries over
//! whatever criteria matter to them *this time* — price and distance for a
//! city trip, price and rating for a holiday — i.e. subspace skylines over
//! a shared 5-attribute schema. No server ever ships its full inventory:
//! only extended skylines move during preprocessing, and only
//! threshold-surviving candidates move at query time.
//!
//! ```text
//! cargo run --release --example hotel_broker
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skypeer::core::live::run_query_live;
use skypeer::core::preprocess::SuperPeerStore;
use skypeer::prelude::*;
use skypeer_skyline::DominanceIndex;
use std::time::Duration;

/// Hotel attributes, all minimized: price (EUR/night), distance to the
/// center (km), noise level (0-10), 10 − rating (so better rating = lower
/// value), and years since renovation.
const ATTRS: [&str; 5] = ["price", "distance", "noise", "inv-rating", "age"];

fn synth_hotels(rng: &mut StdRng, n: usize, base_id: u64) -> skypeer_skyline::PointSet {
    let mut set = skypeer_skyline::PointSet::new(5);
    for i in 0..n {
        // Correlations with trade-offs: central hotels are pricier and
        // noisier; well-rated ones are pricier; renovation reduces age and
        // raises price.
        let centrality = rng.gen::<f64>(); // 0 = city center
        let quality = rng.gen::<f64>(); // 0 = excellent
        let price =
            40.0 + 260.0 * (1.0 - centrality) * (1.0 - 0.5 * quality) + rng.gen_range(0.0..40.0);
        let distance = 0.2 + 14.0 * centrality + rng.gen_range(0.0..1.0);
        let noise = (8.0 * (1.0 - centrality) + rng.gen_range(0.0..2.0)).min(10.0);
        let inv_rating = 10.0 * quality;
        let age = rng.gen_range(0.0..30.0) * (0.3 + 0.7 * quality);
        set.push(&[price, distance, noise, inv_rating, age], base_id + i as u64);
    }
    set
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Six reservation servers (super-peers) on a small backbone, each with
    // a handful of subscribed travel agencies (peers).
    let topology = TopologySpec::paper_default(6, 99).generate();
    let agencies_per_server = 4;
    let hotels_per_agency = 400;

    let mut stores = Vec::new();
    let mut total_hotels = 0usize;
    let mut total_uploaded = 0usize;
    for server in 0..topology.len() {
        let agencies: Vec<_> = (0..agencies_per_server)
            .map(|a| {
                let base = ((server * agencies_per_server + a) * hotels_per_agency) as u64;
                synth_hotels(&mut rng, hotels_per_agency, base)
            })
            .collect();
        let store = SuperPeerStore::preprocess(&agencies, 5, DominanceIndex::RTree);
        total_hotels += store.raw_points;
        total_uploaded += store.uploaded_points;
        println!(
            "server {server}: {} hotels from {} agencies → {} uploaded → {} stored",
            store.raw_points,
            agencies_per_server,
            store.uploaded_points,
            store.store.len()
        );
        stores.push(store.store);
    }
    println!(
        "\nnetwork total: {total_hotels} hotels, {total_uploaded} uploaded ({:.1}%)\n",
        100.0 * total_uploaded as f64 / total_hotels as f64
    );

    // Three customers with different criteria, i.e. different subspaces.
    let scenarios: [(&str, &[usize]); 3] = [
        ("city trip: cheap and central", &[0, 1]),
        ("family holiday: cheap, quiet, well rated", &[0, 2, 3]),
        ("business: central, well rated, recently renovated", &[1, 3, 4]),
    ];

    for (label, dims) in scenarios {
        let u = Subspace::from_dims(dims);
        let attrs: Vec<&str> = dims.iter().map(|&d| ATTRS[d]).collect();
        let out = run_query_live(
            &topology,
            &stores,
            u,
            0,
            Variant::Ftpm,
            Dominance::Standard,
            DominanceIndex::RTree,
            Duration::from_secs(30),
            None,
            None,
        )
        .expect("query completes");
        println!("» {label}  (minimize {attrs:?})");
        println!(
            "  {} undominated hotels out of {total_hotels} ({} KB moved, {} messages)",
            out.result_ids.len(),
            out.stats.bytes / 1024,
            out.stats.messages
        );
        for i in 0..out.result.len().min(4) {
            let p = out.result.points().point(i);
            let view: Vec<String> =
                dims.iter().map(|&d| format!("{}={:.1}", ATTRS[d], p[d])).collect();
            println!("    hotel #{:<6} {}", out.result.points().id(i), view.join("  "));
        }
        println!();
    }
}

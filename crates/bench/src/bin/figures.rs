//! Regenerates the data series of every figure in the SKYPEER paper.
//!
//! ```text
//! figures [--scale tiny|reduced|paper] [--queries N] [--seed S]
//!         [--json PATH] [fig3a fig3b ...]
//! ```
//!
//! With no figure ids, every figure is regenerated in paper order.
//! `--scale reduced` (the default) divides peer counts by 10 and runs 20
//! queries per configuration, preserving curve shapes while finishing in
//! minutes; `--scale paper` reproduces the full Section 6 setup (up to
//! 80,000 peers and 20 M points; with `--queries 2` it ran in 386 s at a
//! 333 MB peak RSS on a 2-core 2.1 GHz Xeon).

use skypeer_bench::experiments::{all_figures, Scale};
use skypeer_bench::table;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::reduced();
    let mut wanted: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut plot = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --scale"));
                scale = match v.as_str() {
                    "tiny" => Scale::tiny(),
                    "reduced" => Scale::reduced(),
                    "paper" => Scale::paper(),
                    other => usage(&format!("unknown scale '{other}'")),
                };
            }
            "--queries" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --queries"));
                scale.queries = v.parse().unwrap_or_else(|_| usage("bad --queries value"));
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --seed"));
                scale.seed = v.parse().unwrap_or_else(|_| usage("bad --seed value"));
            }
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| usage("missing value for --json")));
            }
            "--plot" => plot = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag '{other}'")),
            fig => wanted.push(fig.to_string()),
        }
    }

    let registry = all_figures();
    let selected: Vec<_> = if wanted.is_empty() {
        registry
    } else {
        let known: Vec<&str> = registry.iter().map(|(id, _)| *id).collect();
        for w in &wanted {
            if !known.contains(&w.as_str()) {
                usage(&format!("unknown figure '{w}' (known: {})", known.join(", ")));
            }
        }
        registry.into_iter().filter(|(id, _)| wanted.iter().any(|w| w == id)).collect()
    };

    eprintln!(
        "# SKYPEER figure regeneration: peer_divisor={} queries={} seed={}",
        scale.peer_divisor, scale.queries, scale.seed
    );
    let mut json_figs = Vec::new();
    for (id, runner) in selected {
        eprintln!("# running {id} ...");
        let started = std::time::Instant::now();
        let fig = runner(scale);
        println!("{}", table::render(&fig));
        if plot {
            println!("{}", skypeer_bench::plot::render(&fig, 12));
        }
        eprintln!("# {id} done in {:.1?}", started.elapsed());
        if json_path.is_some() {
            json_figs.push(fig_to_json(&fig));
        }
    }
    if let Some(path) = json_path {
        let doc = serde_json::json!({
            "scale": { "peer_divisor": scale.peer_divisor, "queries": scale.queries, "seed": scale.seed },
            "figures": json_figs,
        });
        let mut f = std::fs::File::create(&path).expect("create json output");
        writeln!(f, "{}", serde_json::to_string_pretty(&doc).expect("serialize"))
            .expect("write json output");
        eprintln!("# wrote {path}");
    }
}

fn fig_to_json(fig: &skypeer_bench::FigureData) -> serde_json::Value {
    serde_json::json!({
        "id": fig.id,
        "title": fig.title,
        "x_label": fig.x_label,
        "y_label": fig.y_label,
        "series": fig.series,
        "rows": fig.rows.iter().map(|(x, vals)| serde_json::json!({"x": x, "values": vals})).collect::<Vec<_>>(),
        "metrics": fig.metrics.iter().map(|(name, v)| serde_json::json!({"name": name, "value": v})).collect::<Vec<_>>(),
    })
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: figures [--scale tiny|reduced|paper] [--queries N] [--seed S] [--json PATH] [--plot] [fig-ids...]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

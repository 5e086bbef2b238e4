//! `soak` — run a seeded query workload through the deterministic DES and
//! report tail-latency percentiles, SLO verdicts, and the worst-query
//! digest.
//!
//! ```text
//! soak                                  # default: 100 queries x 5 variants
//! soak --queries 500 --seed 11          # bigger seeded run
//! soak --variants ftpm,naive            # restrict variants
//! soak --k 3 | --k-min 2 --k-max 5 --k-theta 1.1
//! soak --initiator-theta 1.0            # hot-initiator skew
//! soak --slo-p99-ms 900 --gate          # exit 1 if any variant misses
//! soak --out SOAK_summary.json --jsonl rows.jsonl --prom soak.prom
//! ```
//!
//! The summary JSON is byte-deterministic for a given flag set (no wall
//! clocks, commits, or dates), so CI can archive and diff it.

use skypeer_bench::soak::{run_soak, SoakAudit, SoakPerturb, SoakSpec, TelemetrySpec};
use skypeer_core::{EngineConfig, SkypeerEngine, Variant};
use skypeer_data::{DatasetKind, DatasetSpec, InitiatorMix, KMix, MixedWorkloadSpec};
use skypeer_netsim::cost::CostModel;
use skypeer_netsim::des::LinkModel;
use skypeer_netsim::obs::SloSpec;
use skypeer_netsim::topology::TopologySpec;
use skypeer_skyline::DominanceIndex;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: soak [--peers N] [--superpeers N] [--dim D] [--points P] \
[--queries Q] [--seed S] [--variants LIST|all] [--backend skypeer|sampling] \
[--k K | --k-min A --k-max B [--k-theta T]] \
[--initiator-theta T] [--top-k K] [--slo-p50-ms F] [--slo-p99-ms F] [--slo-p999-ms F] \
[--slo-pNN-ms F (any percentile, e.g. --slo-p95-ms)] \
[--slo-max-ms F] [--slo-p99-bytes N] [--cache] [--cache-bytes N] [--min-hit-rate F] \
[--out FILE] [--jsonl FILE] [--prom FILE] [--profile-out FILE] [--gate] [--quiet] \
[--telemetry] [--history-out FILE] [--fail-on-incident] \
[--perturb-link FROM:TO:LATENCY_NS[:NS_PER_BYTE]] [--perturb-after N] \
[--audit-sample R] [--audit-seed S] [--fail-on-violation] [--inject-drop-ext]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(p) => {
            Ok(Some(args.get(p + 1).ok_or_else(|| format!("{name} needs a value"))?.clone()))
        }
        None => Ok(None),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name)? {
        Some(v) => v.parse::<T>().map_err(|e| format!("bad {name}: {e}")),
        None => Ok(default),
    }
}

fn ms_to_ns(args: &[String], name: &str) -> Result<Option<u64>, String> {
    Ok(match flag(args, name)? {
        Some(v) => {
            let ms = v.parse::<f64>().map_err(|e| format!("bad {name}: {e}"))?;
            Some((ms * 1e6) as u64)
        }
        None => None,
    })
}

fn parse_variants(spec: &str) -> Result<Vec<Variant>, String> {
    if spec == "all" {
        return Ok(Variant::ALL.to_vec());
    }
    spec.split(',')
        .map(|v| match v.trim().to_ascii_lowercase().as_str() {
            "ftfm" => Ok(Variant::Ftfm),
            "ftpm" => Ok(Variant::Ftpm),
            "rtfm" => Ok(Variant::Rtfm),
            "rtpm" => Ok(Variant::Rtpm),
            "naive" => Ok(Variant::Naive),
            other => Err(format!("unknown variant '{other}'")),
        })
        .collect()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }

    let n_peers: usize = parse(args, "--peers", 80)?;
    let n_superpeers: usize = parse(args, "--superpeers", 8)?;
    let dim: usize = parse(args, "--dim", 6)?;
    let points: usize = parse(args, "--points", 60)?;
    let queries: usize = parse(args, "--queries", 100)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let tail_k: usize = parse(args, "--top-k", 8)?;
    let variants = parse_variants(&flag(args, "--variants")?.unwrap_or_else(|| "all".into()))?;

    let k_mix = match (flag(args, "--k-min")?, flag(args, "--k-max")?) {
        (Some(a), Some(b)) => KMix::Zipf {
            k_min: a.parse().map_err(|e| format!("bad --k-min: {e}"))?,
            k_max: b.parse().map_err(|e| format!("bad --k-max: {e}"))?,
            exponent: parse(args, "--k-theta", 1.0f64)?,
        },
        (None, None) => KMix::Fixed(parse(args, "--k", 3usize)?),
        _ => return Err("--k-min and --k-max must be given together".into()),
    };
    let initiator_mix = match flag(args, "--initiator-theta")? {
        Some(t) => InitiatorMix::Zipf {
            exponent: t.parse().map_err(|e| format!("bad --initiator-theta: {e}"))?,
        },
        None => InitiatorMix::Uniform,
    };

    // Any `--slo-p<digits>-ms` percentile is accepted; 50/99/999 map to
    // the pinned SloSpec fields, the rest become arbitrary-quantile
    // budgets checked via HdrHistogram::value_at_quantile.
    let mut latency_quantiles: Vec<(String, u64)> = Vec::new();
    for a in args {
        let Some(digits) = a.strip_prefix("--slo-p").and_then(|s| s.strip_suffix("-ms")) else {
            continue;
        };
        if matches!(digits, "50" | "99" | "999")
            || digits.is_empty()
            || !digits.bytes().all(|b| b.is_ascii_digit())
        {
            continue;
        }
        if skypeer_netsim::obs::quantile_from_digits(digits).is_none() {
            return Err(format!("bad {a}: '{digits}' is not a percentile in (0, 100)"));
        }
        if let Some(ns) = ms_to_ns(args, a)? {
            latency_quantiles.push((digits.to_string(), ns));
        }
    }
    let slo = SloSpec {
        p50_latency_ns: ms_to_ns(args, "--slo-p50-ms")?,
        p99_latency_ns: ms_to_ns(args, "--slo-p99-ms")?,
        p999_latency_ns: ms_to_ns(args, "--slo-p999-ms")?,
        max_latency_ns: ms_to_ns(args, "--slo-max-ms")?,
        p99_bytes: match flag(args, "--slo-p99-bytes")? {
            Some(v) => Some(v.parse().map_err(|e| format!("bad --slo-p99-bytes: {e}"))?),
            None => None,
        },
        latency_quantiles,
    };
    let gate = args.iter().any(|a| a == "--gate");

    let cache_bytes: Option<u64> = match flag(args, "--cache-bytes")? {
        Some(v) => Some(v.parse().map_err(|e| format!("bad --cache-bytes: {e}"))?),
        None if args.iter().any(|a| a == "--cache") => Some(4 << 20),
        None => None,
    };
    let backend = match flag(args, "--backend")? {
        Some(name) => skypeer_core::parse_backend(&name)?,
        None => skypeer_core::BackendKind::default(),
    };
    if backend != skypeer_core::BackendKind::default() && cache_bytes.is_some() {
        return Err("--backend sampling and --cache are incompatible".into());
    }
    let min_hit_rate: Option<f64> = match flag(args, "--min-hit-rate")? {
        Some(v) => {
            if cache_bytes.is_none() {
                return Err("--min-hit-rate requires --cache".into());
            }
            Some(v.parse().map_err(|e| format!("bad --min-hit-rate: {e}"))?)
        }
        None => None,
    };

    let mut topology = TopologySpec::paper_default(n_superpeers, seed ^ 0xD1CE);
    topology.avg_degree = topology.avg_degree.min(n_superpeers.saturating_sub(1) as f64);
    let engine = SkypeerEngine::build(EngineConfig {
        n_peers,
        n_superpeers,
        dataset: DatasetSpec { dim, points_per_peer: points, kind: DatasetKind::Uniform, seed },
        topology,
        index: DominanceIndex::RTree,
        cost: CostModel::default(),
        link: LinkModel::paper_4kbps(),
        routing: skypeer_core::engine::RoutingMode::Flood,
    });
    let quiet = args.iter().any(|a| a == "--quiet");
    let history_out = flag(args, "--history-out")?;
    let fail_on_incident = args.iter().any(|a| a == "--fail-on-incident");
    let perturb = match flag(args, "--perturb-link")? {
        Some(s) => {
            if cache_bytes.is_some() {
                return Err("--perturb-link and --cache are incompatible".into());
            }
            let (from, to, link) =
                skypeer_netsim::des::parse_perturb_spec(&s, LinkModel::paper_4kbps())?;
            if from >= n_superpeers || to >= n_superpeers {
                return Err("--perturb-link node out of range".into());
            }
            Some(SoakPerturb {
                after: parse(args, "--perturb-after", 0usize)?,
                overrides: vec![(from, to, link)],
            })
        }
        None => {
            if flag(args, "--perturb-after")?.is_some() {
                return Err("--perturb-after requires --perturb-link".into());
            }
            None
        }
    };
    // Any flag that needs telemetry turns it on.
    let telemetry = (args.iter().any(|a| a == "--telemetry")
        || history_out.is_some()
        || fail_on_incident
        || perturb.is_some())
    .then(TelemetrySpec::default);
    let fail_on_violation = args.iter().any(|a| a == "--fail-on-violation");
    let inject_drop_ext = args.iter().any(|a| a == "--inject-drop-ext");
    let audit = match flag(args, "--audit-sample")? {
        Some(r) => {
            let sample_rate: f64 = r.parse().map_err(|e| format!("bad --audit-sample: {e}"))?;
            if !(0.0..=1.0).contains(&sample_rate) {
                return Err(format!("bad --audit-sample: {sample_rate} not in [0, 1]"));
            }
            Some(SoakAudit {
                sample_rate,
                seed: parse(args, "--audit-seed", SoakAudit::default().seed)?,
                inject_drop_ext,
            })
        }
        None => {
            for (on, name) in [
                (fail_on_violation, "--fail-on-violation"),
                (inject_drop_ext, "--inject-drop-ext"),
                (flag(args, "--audit-seed")?.is_some(), "--audit-seed"),
            ] {
                if on {
                    return Err(format!("{name} requires --audit-sample"));
                }
            }
            None
        }
    };

    let spec = SoakSpec {
        variants,
        workload: MixedWorkloadSpec { dim, queries, n_superpeers, seed, k_mix, initiator_mix },
        slo,
        tail_k,
        hdr_precision: parse(args, "--precision", 7u32)?,
        cache_bytes,
        telemetry,
        perturb,
        audit,
        backend,
    };

    if !quiet {
        eprintln!(
            "soaking {} queries x {} variants over {} peers / {} super-peers (seed {seed})...",
            queries,
            spec.variants.len(),
            n_peers,
            n_superpeers
        );
    }

    let mut jsonl = match flag(args, "--jsonl")? {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => None,
    };
    let profile_out = flag(args, "--profile-out")?;
    if profile_out.is_some() {
        skypeer_netsim::obs::prof::start(skypeer_netsim::obs::ClockMode::Monotonic);
    }
    let outcome = run_soak(&engine, &spec, |row| {
        if let Some(w) = &mut jsonl {
            let _ = writeln!(w, "{}", row.to_json());
        }
    });
    let profile = profile_out.is_some().then(skypeer_netsim::obs::prof::stop);
    if let Some(mut w) = jsonl {
        w.flush().map_err(|e| format!("flushing jsonl: {e}"))?;
    }
    if let (Some(path), Some(p)) = (&profile_out, &profile) {
        std::fs::write(path, p.folded()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprint!("{}", p.render_table());
        println!("wrote folded CPU profile to {path}");
    }

    print!("{}", outcome.render_table());
    print!("{}", outcome.worst_digest());
    if !spec.slo.is_empty() {
        print!("{}", outcome.render_slo());
    }
    if spec.telemetry.is_some() {
        println!("incidents: {}", outcome.incident_count());
        for v in &outcome.variants {
            if let Some(tel) = &v.telemetry {
                for inc in tel.incidents() {
                    println!("  {} {}", v.variant.mnemonic(), inc.render());
                }
            }
        }
    }
    if let Some(report) = outcome.audit_report() {
        print!("{report}");
    }
    if let Some(path) = &history_out {
        let history = outcome.history_text().expect("telemetry implied by --history-out");
        std::fs::write(path, history).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote telemetry history to {path}");
    }

    if let Some(path) = flag(args, "--out")? {
        std::fs::write(&path, outcome.summary_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote summary to {path}");
    }
    if let Some(path) = flag(args, "--prom")? {
        // The workload exposition, plus skypeer_prof_* families when a
        // profile was collected this run.
        let mut text = outcome.prometheus();
        if let Some(p) = &profile {
            text.push_str(&p.prometheus());
        }
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote Prometheus exposition to {path}");
    }

    if gate && !outcome.pass() {
        eprintln!("SLO gate FAILED");
        return Ok(ExitCode::FAILURE);
    }
    if fail_on_incident && outcome.incident_count() > 0 {
        eprintln!("incident gate FAILED: {} incident(s) flagged", outcome.incident_count());
        return Ok(ExitCode::FAILURE);
    }
    if fail_on_violation && outcome.violation_count() > 0 {
        eprintln!("audit gate FAILED: {} violation(s) detected", outcome.violation_count());
        return Ok(ExitCode::FAILURE);
    }
    if let Some(floor) = min_hit_rate {
        for v in &outcome.variants {
            let rate = v.cache.as_ref().map(|st| st.hit_rate()).unwrap_or(0.0);
            if rate < floor {
                eprintln!(
                    "cache hit-rate gate FAILED: {} hit rate {:.3} < {:.3}",
                    v.variant.mnemonic(),
                    rate,
                    floor
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

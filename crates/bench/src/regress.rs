//! Perf-regression harness: pinned DES runs, `BENCH_regress.json`, and a
//! two-file comparator.
//!
//! [`run_pinned`] executes a small pinned subset of the paper's figure
//! configurations — one engine per figure, one traced query per variant,
//! plus a cache-fronted `FTPM+cache` cold+warm pair and a
//! constant-round `sampling`-backend row per figure — entirely on the
//! deterministic DES, and records five metrics per `(figure, variant)`:
//!
//! * `wall_time_ms` — real time the run took (the only nondeterministic
//!   metric; everything else is byte-stable for a given toolchain);
//! * `sim_time_ns` — simulated response time under the paper's 4 KB/s
//!   links;
//! * `total_bytes` — volume transferred;
//! * `dominance_tests` — total dominance tests across all super-peers;
//! * `peak_queue_depth` — worst per-node inbox backlog observed.
//!
//! The `bench-regress` binary writes these as `BENCH_regress.json` at the
//! repository root with schema `{commit, date, entries: [{figure,
//! variant, metric, value}]}`, and [`compare`] diffs two such files: a
//! deterministic entry (`sim_time_ns`, `total_bytes`, `dominance_tests`,
//! `peak_queue_depth`) whose value grew by more than the threshold (15%
//! by default) is a regression and fails the gate (for every metric,
//! higher is worse). `wall_time_ms` movement is *advisory* — reported,
//! never fatal — because wall time depends on the host, not the change
//! under test. Entries present in only one file are likewise reported
//! but never fatal.

use skypeer_core::cached::CachedEngine;
use skypeer_core::{EngineConfig, QueryRequest, SkypeerEngine, Variant};
use skypeer_data::{DatasetKind, DatasetSpec, Query};
use skypeer_netsim::cost::CostModel;
use skypeer_netsim::des::LinkModel;
use skypeer_netsim::obs::diff::{LinkAgg, NodeAgg, PhaseAgg, TraceDigest};
use skypeer_netsim::obs::{json, MemTracer, MetricsRegistry, Tracer};
use skypeer_netsim::topology::TopologySpec;
use skypeer_skyline::{DominanceIndex, Subspace};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One measured value of one pinned run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Pinned figure id, e.g. `"fig3b_d8"`.
    pub figure: String,
    /// Variant mnemonic (`FTFM` … `naive`).
    pub variant: String,
    /// Metric name (see module docs).
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

/// The machine a report was produced on. Purely descriptive: the
/// comparator never looks at it, but it makes advisory `wall_time_ms`
/// drift interpretable ("the baseline ran on a different CPU").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// CPU model string (from `/proc/cpuinfo`), or `"unknown"`.
    pub cpu_model: String,
    /// Logical core count visible to the process.
    pub core_count: u64,
    /// `rustc --version` output, or `"unknown"`.
    pub rustc: String,
}

impl HostFingerprint {
    /// Probes the current machine. Never fails — unknown facts come back
    /// as `"unknown"` / `0` so report writing cannot break on exotic
    /// hosts.
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .and_then(|rest| rest.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        let core_count = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0);
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint { cpu_model, core_count, rustc }
    }
}

/// A `BENCH_regress.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// `git rev-parse HEAD` at run time, or `"unknown"`.
    pub commit: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Machine the run happened on, when recorded. Optional so older
    /// baselines (and hand-written fixtures) still parse; ignored by
    /// [`compare`].
    pub host: Option<HostFingerprint>,
    /// All measurements, in pinned-run order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serializes in the `BENCH_regress.json` schema (pretty, stable key
    /// order).
    pub fn to_json(&self) -> String {
        let entries = json::arr(self.entries.iter().map(|e| {
            json::Obj::new()
                .str("figure", &e.figure)
                .str("variant", &e.variant)
                .str("metric", &e.metric)
                .f64("value", e.value)
                .build()
        }));
        let mut doc = json::Obj::new().str("commit", &self.commit).str("date", &self.date);
        if let Some(h) = &self.host {
            let host = json::Obj::new()
                .str("cpu_model", &h.cpu_model)
                .u64("core_count", h.core_count)
                .str("rustc", &h.rustc)
                .build();
            doc = doc.raw("host", &host);
        }
        let compact = doc.raw("entries", &entries).build();
        // Re-indent through the parser so humans can diff the file.
        match serde_json::from_str(&compact) {
            Ok(v) => serde_json::to_string_pretty(&v).unwrap_or(compact),
            Err(_) => compact,
        }
    }

    /// Parses a `BENCH_regress.json` document. The `host` fingerprint is
    /// optional (older baselines predate it).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let obj = v.as_object().ok_or("top level must be an object")?;
        let commit =
            obj.get("commit").and_then(|c| c.as_str()).ok_or("missing 'commit'")?.to_string();
        let date = obj.get("date").and_then(|d| d.as_str()).ok_or("missing 'date'")?.to_string();
        let host = obj.get("host").map(|h| {
            let s = |k: &str| h.get(k).and_then(|v| v.as_str()).unwrap_or("unknown").to_string();
            HostFingerprint {
                cpu_model: s("cpu_model"),
                core_count: h.get("core_count").and_then(|v| v.as_u64()).unwrap_or(0),
                rustc: s("rustc"),
            }
        });
        let raw = obj.get("entries").and_then(|e| e.as_array()).ok_or("missing 'entries' array")?;
        let mut entries = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let o = e.as_object().ok_or_else(|| format!("entries[{i}] must be an object"))?;
            let field = |k: &str| -> Result<String, String> {
                o.get(k)
                    .and_then(|s| s.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("entries[{i}] missing '{k}'"))
            };
            entries.push(BenchEntry {
                figure: field("figure")?,
                variant: field("variant")?,
                metric: field("metric")?,
                value: o
                    .get("value")
                    .and_then(|n| n.as_f64())
                    .ok_or_else(|| format!("entries[{i}] missing numeric 'value'"))?,
            });
        }
        Ok(BenchReport { commit, date, host, entries })
    }
}

/// The pinned trace digest of one `(figure, variant)` run — the
/// root-cause companion to the scalar [`BenchEntry`] metrics. Digest
/// files live *alongside* `BENCH_regress.json` (they never change its
/// byte format) and are what the failure path attributes deltas with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FigureDigest {
    /// Pinned figure id, e.g. `"fig3b_d8"`.
    pub figure: String,
    /// Variant mnemonic (`FTFM` … `naive`, `FTPM+cache`).
    pub variant: String,
    /// The run's trace digest.
    pub digest: TraceDigest,
}

/// Serializes pinned digests as a pretty, stable-key-order JSON document
/// (`{commit, digests: [{figure, variant, digest}, …]}`).
pub fn digests_to_json(commit: &str, digests: &[FigureDigest]) -> String {
    let rows = json::arr(digests.iter().map(|d| {
        json::Obj::new()
            .str("figure", &d.figure)
            .str("variant", &d.variant)
            .raw("digest", &d.digest.to_json())
            .build()
    }));
    let compact = json::Obj::new().str("commit", commit).raw("digests", &rows).build();
    match serde_json::from_str(&compact) {
        Ok(v) => serde_json::to_string_pretty(&v).unwrap_or(compact),
        Err(_) => compact,
    }
}

fn digest_from_value(v: &serde_json::Value) -> Result<TraceDigest, String> {
    let u = |o: &serde_json::Value, k: &str| -> Result<u64, String> {
        o.get(k).and_then(|x| x.as_u64()).ok_or_else(|| format!("digest missing u64 '{k}'"))
    };
    let rows = |k: &str| -> Result<Vec<serde_json::Value>, String> {
        Ok(v.get(k)
            .and_then(|x| x.as_array())
            .ok_or_else(|| format!("digest missing array '{k}'"))?
            .clone())
    };
    let mut phases = Vec::new();
    for p in rows("phases")? {
        phases.push(PhaseAgg {
            phase: p
                .get("phase")
                .and_then(|x| x.as_str())
                .ok_or("phase row missing 'phase'")?
                .to_string(),
            spans: u(&p, "spans")?,
            service_ns: u(&p, "service_ns")?,
            dominance_tests: u(&p, "dominance_tests")?,
        });
    }
    let mut nodes = Vec::new();
    for n in rows("nodes")? {
        nodes.push(NodeAgg {
            node: u(&n, "node")? as usize,
            spans: u(&n, "spans")?,
            service_ns: u(&n, "service_ns")?,
            dominance_tests: u(&n, "dominance_tests")?,
            bytes_out: u(&n, "bytes_out")?,
            peak_queue_depth: u(&n, "peak_queue_depth")?,
        });
    }
    let mut links = Vec::new();
    for l in rows("links")? {
        links.push(LinkAgg {
            from: u(&l, "from")? as usize,
            to: u(&l, "to")? as usize,
            messages: u(&l, "messages")?,
            bytes: u(&l, "bytes")?,
            transfer_ns: u(&l, "transfer_ns")?,
        });
    }
    Ok(TraceDigest {
        sim_time_ns: u(v, "sim_time_ns")?,
        total_bytes: u(v, "total_bytes")?,
        dominance_tests: u(v, "dominance_tests")?,
        peak_queue_depth: u(v, "peak_queue_depth")?,
        phases,
        nodes,
        links,
    })
}

/// Parses a [`digests_to_json`] document back into its digests.
pub fn digests_from_json(text: &str) -> Result<Vec<FigureDigest>, String> {
    let v = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let rows =
        v.get("digests").and_then(|d| d.as_array()).ok_or("digest file missing 'digests' array")?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let s = |k: &str| -> Result<String, String> {
            row.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("digests[{i}] missing '{k}'"))
        };
        out.push(FigureDigest {
            figure: s("figure")?,
            variant: s("variant")?,
            digest: digest_from_value(
                row.get("digest").ok_or_else(|| format!("digests[{i}] missing 'digest'"))?,
            )
            .map_err(|e| format!("digests[{i}]: {e}"))?,
        });
    }
    Ok(out)
}

/// A pinned figure configuration: a small deterministic stand-in for one
/// paper figure, sized to run in well under a second per variant. Public
/// so the CLI's `profile --figure` and the overhead-accounting smoke run
/// the exact workloads the regression gate pins.
pub struct PinnedFigure {
    /// Stable report name (`fig3b_d8`, `fig3d_k2`, `fig4c_deg6`).
    pub figure: &'static str,
    /// Engine configuration of the shrunk figure.
    pub config: EngineConfig,
    /// The one pinned query the figure runs.
    pub query: Query,
}

/// The pinned figure set the regression harness measures.
pub fn pinned_figures() -> Vec<PinnedFigure> {
    let mk = |n_peers: usize, n_superpeers: usize, dim, points, degree: f64, seed: u64| {
        let mut topology = TopologySpec::paper_default(n_superpeers, seed ^ 0xD1CE);
        topology.avg_degree = degree.min(n_superpeers.saturating_sub(1) as f64);
        EngineConfig {
            n_peers,
            n_superpeers,
            dataset: DatasetSpec { dim, points_per_peer: points, kind: DatasetKind::Uniform, seed },
            topology,
            index: DominanceIndex::RTree,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: skypeer_core::engine::RoutingMode::Flood,
        }
    };
    vec![
        // Figure 3(b): response time at the paper's default d=8 — shrunk.
        PinnedFigure {
            figure: "fig3b_d8",
            config: mk(80, 8, 8, 60, 4.0, 42),
            query: Query { subspace: Subspace::from_dims(&[0, 3, 6]), initiator: 0 },
        },
        // Figure 3(d): transferred volume, low-dimensional subspace.
        PinnedFigure {
            figure: "fig3d_k2",
            config: mk(80, 8, 6, 60, 4.0, 43),
            query: Query { subspace: Subspace::from_dims(&[1, 4]), initiator: 2 },
        },
        // Figure 4(c): degree sweep point DEG_sp=6 — denser backbone.
        PinnedFigure {
            figure: "fig4c_deg6",
            config: mk(60, 10, 6, 40, 6.0, 44),
            query: Query { subspace: Subspace::from_dims(&[0, 2, 4]), initiator: 5 },
        },
    ]
}

/// Looks one pinned figure up by name.
pub fn pinned_figure(name: &str) -> Option<PinnedFigure> {
    pinned_figures().into_iter().find(|p| p.figure == name)
}

/// The pinned figure names, in report order.
pub fn pinned_figure_names() -> Vec<&'static str> {
    pinned_figures().iter().map(|p| p.figure).collect()
}

/// Runs the pinned subset and returns one entry per
/// `(figure, variant, metric)`.
pub fn run_pinned() -> Vec<BenchEntry> {
    run_pinned_full().0
}

/// [`run_pinned`] plus the per-`(figure, variant)` [`FigureDigest`]s
/// built from the very same traced runs — so the scalar gate and the
/// root-cause digests can never disagree about what was measured.
pub fn run_pinned_full() -> (Vec<BenchEntry>, Vec<FigureDigest>) {
    let mut entries = Vec::new();
    let mut digests = Vec::new();
    for p in pinned_figures() {
        let engine = SkypeerEngine::build(p.config);
        for variant in Variant::ALL {
            let tracer = Arc::new(MemTracer::new());
            let started = Instant::now();
            let out =
                engine.run_query_traced(p.query, variant, Arc::clone(&tracer) as Arc<dyn Tracer>);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let events = tracer.take();
            let m = MetricsRegistry::from_events(&events);
            digests.push(FigureDigest {
                figure: p.figure.to_string(),
                variant: variant.mnemonic().to_string(),
                digest: TraceDigest::from_events(&events),
            });
            let mut push = |metric: &str, value: f64| {
                entries.push(BenchEntry {
                    figure: p.figure.to_string(),
                    variant: variant.mnemonic().to_string(),
                    metric: metric.to_string(),
                    value,
                });
            };
            push("wall_time_ms", wall_ms);
            push("sim_time_ns", out.total_time_ns as f64);
            push("total_bytes", out.volume_bytes as f64);
            push("dominance_tests", m.counters.get("dominance_tests").copied().unwrap_or(0) as f64);
            push("peak_queue_depth", m.max_queue_depth() as f64);
        }

        // Cache-on entries: the same query twice through a cache-fronted
        // FTPM engine — a cold miss (Extended run + local refine) followed
        // by a warm hit. The combined totals pin both the cache's miss
        // overhead and its hit savings; growth here means subsumption
        // lookup or refinement got more expensive.
        let variant = Variant::Ftpm;
        let mut cached = CachedEngine::new(&engine, 4 << 20);
        let started = Instant::now();
        let req = QueryRequest::new(p.query, variant);
        let cold_tracer = Arc::new(MemTracer::new());
        let cold = cached.run_query(&req, Some(Arc::clone(&cold_tracer) as Arc<dyn Tracer>));
        let warm_tracer = Arc::new(MemTracer::new());
        let warm = cached.run_query(&req, Some(Arc::clone(&warm_tracer) as Arc<dyn Tracer>));
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut events = cold_tracer.take();
        events.extend(warm_tracer.take());
        let m = MetricsRegistry::from_events(&events);
        let label = format!("{}+cache", variant.mnemonic());
        digests.push(FigureDigest {
            figure: p.figure.to_string(),
            variant: label.clone(),
            digest: TraceDigest::from_events(&events),
        });
        let mut push = |metric: &str, value: f64| {
            entries.push(BenchEntry {
                figure: p.figure.to_string(),
                variant: label.clone(),
                metric: metric.to_string(),
                value,
            });
        };
        push("wall_time_ms", wall_ms);
        push("sim_time_ns", (cold.outcome.total_time_ns + warm.outcome.total_time_ns) as f64);
        push("total_bytes", (cold.outcome.volume_bytes + warm.outcome.volume_bytes) as f64);
        push(
            "dominance_tests",
            (m.counters.get("dominance_tests").copied().unwrap_or(0)
                + cold.refine_tests
                + warm.refine_tests) as f64,
        );
        push("peak_queue_depth", m.max_queue_depth() as f64);

        // Sampling-backend entries: the same pinned query through the
        // constant-round sampling backend, so the gate pins its costs
        // head-to-head with the SKYPEER variants on identical figures.
        let tracer = Arc::new(MemTracer::new());
        let started = Instant::now();
        let req = QueryRequest {
            backend: skypeer_core::BackendKind::Sampling,
            ..QueryRequest::new(p.query, Variant::Ftpm)
        };
        let out = engine.execute(&req, Some(Arc::clone(&tracer) as Arc<dyn Tracer>));
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let events = tracer.take();
        let m = MetricsRegistry::from_events(&events);
        digests.push(FigureDigest {
            figure: p.figure.to_string(),
            variant: "sampling".to_string(),
            digest: TraceDigest::from_events(&events),
        });
        let mut push = |metric: &str, value: f64| {
            entries.push(BenchEntry {
                figure: p.figure.to_string(),
                variant: "sampling".to_string(),
                metric: metric.to_string(),
                value,
            });
        };
        push("wall_time_ms", wall_ms);
        push("sim_time_ns", out.total_time_ns as f64);
        push("total_bytes", out.volume_bytes as f64);
        push("dominance_tests", m.counters.get("dominance_tests").copied().unwrap_or(0) as f64);
        push("peak_queue_depth", m.max_queue_depth() as f64);
    }
    (entries, digests)
}

/// Re-runs the pinned set under the calltree profiler and renders one
/// ranked CPU-share block per `(figure, variant)` plus the `FTPM+cache`
/// cold+warm pair. This is a *separate* pass so the gated metrics in
/// [`run_pinned_full`] are never measured with profiling enabled; the
/// output is wall-clock and therefore advisory, written as a sibling
/// artifact, never part of the gated report's byte format.
pub fn run_pinned_cpu_profile() -> String {
    use skypeer_netsim::obs::{prof, ClockMode};
    let mut out = String::new();
    let mut block = |figure: &str, variant: &str, profile: &skypeer_netsim::obs::Profile| {
        out.push_str(&format!("== {figure} / {variant} ==\n"));
        out.push_str(&profile.render_table());
        out.push('\n');
    };
    for p in pinned_figures() {
        let engine = SkypeerEngine::build(p.config);
        for variant in Variant::ALL {
            let (profile, _) =
                prof::profiled(ClockMode::Monotonic, || engine.run_query(p.query, variant));
            block(p.figure, variant.mnemonic(), &profile);
        }
        let (profile, _) = prof::profiled(ClockMode::Monotonic, || {
            let mut cached = CachedEngine::new(&engine, 4 << 20);
            let req = QueryRequest::new(p.query, Variant::Ftpm);
            cached.run_query(&req, None);
            cached.run_query(&req, None)
        });
        block(p.figure, "FTPM+cache", &profile);
    }
    out
}

/// Advisory telemetry pass: replays a short seeded FTPM query stream per
/// pinned figure with per-query telemetry and the default anomaly
/// detector, and reports the incident count. A healthy tree is
/// telemetry-quiet, so any incident here means the figure's steady-state
/// behaviour now looks anomalous to the detector defaults — worth a look,
/// but host-independent-yet-tuning-sensitive, so it is written as a
/// sibling artifact and never gates the report.
pub fn run_pinned_incidents() -> String {
    use crate::soak::{run_soak, SoakSpec, TelemetrySpec};
    use skypeer_data::{InitiatorMix, KMix, MixedWorkloadSpec};
    use skypeer_netsim::obs::SloSpec;
    const QUERIES: usize = 48;
    let mut out = String::new();
    for p in pinned_figures() {
        let engine = SkypeerEngine::build(p.config);
        let spec = SoakSpec {
            variants: vec![Variant::Ftpm],
            workload: MixedWorkloadSpec {
                dim: p.config.dataset.dim,
                queries: QUERIES,
                n_superpeers: p.config.n_superpeers,
                seed: 7,
                k_mix: KMix::Fixed(2),
                initiator_mix: InitiatorMix::Uniform,
            },
            slo: SloSpec::default(),
            tail_k: 1,
            hdr_precision: 7,
            cache_bytes: None,
            telemetry: Some(TelemetrySpec::default()),
            perturb: None,
            audit: None,
            backend: skypeer_core::BackendKind::default(),
        };
        let outcome = run_soak(&engine, &spec, |_| {});
        out.push_str(&format!(
            "figure {}: {} incident(s) over {QUERIES} FTPM queries\n",
            p.figure,
            outcome.incident_count()
        ));
        for v in &outcome.variants {
            if let Some(tel) = &v.telemetry {
                for inc in tel.incidents() {
                    out.push_str(&format!("  {}\n", inc.render()));
                }
            }
        }
    }
    out
}

/// Advisory audit pass: replays a short seeded FTPM query stream per
/// pinned figure with the online auditor sampling every query
/// (shadow-verifying each answer against the raw-data oracle) and
/// reports the per-figure verdict. A healthy tree reports zero
/// violations everywhere; any violation here means the protocol returned
/// a wrong answer on a pinned configuration. Written as a sibling
/// artifact (`*_audit.txt`), never part of the gated report's byte
/// format.
pub fn run_pinned_audit() -> String {
    use crate::soak::{run_soak, SoakAudit, SoakSpec};
    use skypeer_data::{InitiatorMix, KMix, MixedWorkloadSpec};
    use skypeer_netsim::obs::SloSpec;
    const QUERIES: usize = 24;
    let mut out = String::new();
    for p in pinned_figures() {
        let engine = SkypeerEngine::build(p.config);
        let spec = SoakSpec {
            variants: vec![Variant::Ftpm],
            workload: MixedWorkloadSpec {
                dim: p.config.dataset.dim,
                queries: QUERIES,
                n_superpeers: p.config.n_superpeers,
                seed: 7,
                k_mix: KMix::Fixed(2),
                initiator_mix: InitiatorMix::Uniform,
            },
            slo: SloSpec::default(),
            tail_k: 1,
            hdr_precision: 7,
            cache_bytes: None,
            telemetry: None,
            perturb: None,
            audit: Some(SoakAudit { sample_rate: 1.0, ..SoakAudit::default() }),
            backend: skypeer_core::BackendKind::default(),
        };
        let outcome = run_soak(&engine, &spec, |_| {});
        out.push_str(&format!(
            "figure {}: {} violation(s) over {QUERIES} audited FTPM queries\n",
            p.figure,
            outcome.violation_count()
        ));
        if let Some(report) = outcome.audit_report() {
            for line in report.lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    out
}

/// One comparator finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// `figure/variant/metric` key.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `(current - baseline) / baseline`.
    pub ratio: f64,
}

/// Outcome of diffing two reports.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Deterministic entries that grew by more than the threshold — the
    /// failures that gate CI.
    pub regressions: Vec<Delta>,
    /// Deterministic entries that shrank by more than the threshold
    /// (informational).
    pub improvements: Vec<Delta>,
    /// `wall_time_ms` entries that moved by more than the threshold in
    /// either direction. Wall time is the one nondeterministic metric
    /// (host load, CPU model), so these are reported but never fatal.
    pub advisory: Vec<Delta>,
    /// Keys only in the current report (non-fatal).
    pub new_entries: Vec<String>,
    /// Keys only in the baseline (non-fatal).
    pub removed_entries: Vec<String>,
}

impl Comparison {
    /// Whether the comparison should fail a gate. Only deterministic
    /// metrics count; advisory (`wall_time_ms`) movement never fails.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "regressions (> {:.0}% growth): {}\n",
            threshold * 100.0,
            self.regressions.len()
        ));
        for d in &self.regressions {
            out.push_str(&format!(
                "  REGRESSED {}  {:.3} -> {:.3}  (+{:.1}%)\n",
                d.key,
                d.baseline,
                d.current,
                d.ratio * 100.0
            ));
        }
        for d in &self.improvements {
            out.push_str(&format!(
                "  improved  {}  {:.3} -> {:.3}  ({:.1}%)\n",
                d.key,
                d.baseline,
                d.current,
                d.ratio * 100.0
            ));
        }
        for d in &self.advisory {
            out.push_str(&format!(
                "  advisory  {}  {:.3} -> {:.3}  ({:+.1}%, wall time, never fatal)\n",
                d.key,
                d.baseline,
                d.current,
                d.ratio * 100.0
            ));
        }
        for k in &self.new_entries {
            out.push_str(&format!("  new       {k} (not compared)\n"));
        }
        for k in &self.removed_entries {
            out.push_str(&format!("  removed   {k} (not compared)\n"));
        }
        out
    }
}

/// Diffs `current` against `baseline`. For every metric here, higher is
/// worse: an entry regresses when
/// `current > baseline * (1 + threshold)` (a zero baseline regresses only
/// if the current value is positive).
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Comparison {
    let key = |e: &BenchEntry| format!("{}/{}/{}", e.figure, e.variant, e.metric);
    let base: BTreeMap<String, f64> = baseline.entries.iter().map(|e| (key(e), e.value)).collect();
    let cur: BTreeMap<String, f64> = current.entries.iter().map(|e| (key(e), e.value)).collect();
    let mut cmp = Comparison::default();
    for (k, &b) in &base {
        match cur.get(k) {
            None => cmp.removed_entries.push(k.clone()),
            Some(&c) => {
                let ratio = if b == 0.0 {
                    if c == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (c - b) / b
                };
                let delta = Delta { key: k.clone(), baseline: b, current: c, ratio };
                if k.ends_with("/wall_time_ms") {
                    if ratio.abs() > threshold {
                        cmp.advisory.push(delta);
                    }
                } else if ratio > threshold {
                    cmp.regressions.push(delta);
                } else if ratio < -threshold {
                    cmp.improvements.push(delta);
                }
            }
        }
    }
    for k in cur.keys() {
        if !base.contains_key(k) {
            cmp.new_entries.push(k.clone());
        }
    }
    cmp
}

#[cfg(test)]
mod unit {
    use super::*;

    fn report(values: &[(&str, &str, &str, f64)]) -> BenchReport {
        BenchReport {
            commit: "deadbeef".to_string(),
            date: "2026-01-01".to_string(),
            host: None,
            entries: values
                .iter()
                .map(|&(f, v, m, value)| BenchEntry {
                    figure: f.to_string(),
                    variant: v.to_string(),
                    metric: m.to_string(),
                    value,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[
            ("fig3b_d8", "FTPM", "wall_time_ms", 12.5),
            ("fig3b_d8", "FTPM", "total_bytes", 4096.0),
        ]);
        let cmp = compare(&r, &r, 0.15);
        assert!(!cmp.is_regression());
        assert!(cmp.regressions.is_empty());
        assert!(cmp.improvements.is_empty());
        assert!(cmp.new_entries.is_empty());
        assert!(cmp.removed_entries.is_empty());
    }

    #[test]
    fn twenty_percent_sim_time_growth_is_a_regression() {
        let base = report(&[("fig3b_d8", "RTPM", "sim_time_ns", 10.0)]);
        let cur = report(&[("fig3b_d8", "RTPM", "sim_time_ns", 12.0)]);
        let cmp = compare(&base, &cur, 0.15);
        assert!(cmp.is_regression());
        assert_eq!(cmp.regressions.len(), 1);
        let d = &cmp.regressions[0];
        assert_eq!(d.key, "fig3b_d8/RTPM/sim_time_ns");
        assert!((d.ratio - 0.2).abs() < 1e-12);
        assert!(cmp.render(0.15).contains("REGRESSED fig3b_d8/RTPM/sim_time_ns"));
    }

    #[test]
    fn wall_time_growth_is_advisory_never_fatal() {
        let base = report(&[("fig3b_d8", "RTPM", "wall_time_ms", 10.0)]);
        let cur = report(&[("fig3b_d8", "RTPM", "wall_time_ms", 30.0)]);
        let cmp = compare(&base, &cur, 0.15);
        assert!(!cmp.is_regression(), "wall time must never gate");
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.advisory.len(), 1);
        assert_eq!(cmp.advisory[0].key, "fig3b_d8/RTPM/wall_time_ms");
        let text = cmp.render(0.15);
        assert!(text.contains("advisory  fig3b_d8/RTPM/wall_time_ms"));
        assert!(text.contains("never fatal"));
        // Shrinking wall time is advisory too, not an "improvement".
        let cmp = compare(&cur, &base, 0.15);
        assert!(cmp.improvements.is_empty());
        assert_eq!(cmp.advisory.len(), 1);
    }

    #[test]
    fn within_threshold_and_improvements_do_not_fail() {
        let base =
            report(&[("a", "FTFM", "sim_time_ns", 100.0), ("a", "FTFM", "total_bytes", 1000.0)]);
        let cur = report(&[
            ("a", "FTFM", "sim_time_ns", 110.0), // +10% < 15%
            ("a", "FTFM", "total_bytes", 500.0), // big improvement
        ]);
        let cmp = compare(&base, &cur, 0.15);
        assert!(!cmp.is_regression());
        assert_eq!(cmp.improvements.len(), 1);
    }

    #[test]
    fn new_and_removed_entries_are_reported_but_non_fatal() {
        let base =
            report(&[("a", "FTFM", "sim_time_ns", 100.0), ("gone", "FTFM", "sim_time_ns", 5.0)]);
        let cur =
            report(&[("a", "FTFM", "sim_time_ns", 100.0), ("fresh", "naive", "total_bytes", 7.0)]);
        let cmp = compare(&base, &cur, 0.15);
        assert!(!cmp.is_regression());
        assert_eq!(cmp.new_entries, vec!["fresh/naive/total_bytes".to_string()]);
        assert_eq!(cmp.removed_entries, vec!["gone/FTFM/sim_time_ns".to_string()]);
        let text = cmp.render(0.15);
        assert!(text.contains("new       fresh/naive/total_bytes"));
        assert!(text.contains("removed   gone/FTFM/sim_time_ns"));
    }

    #[test]
    fn json_round_trips() {
        let r = report(&[
            ("fig3b_d8", "FTPM", "wall_time_ms", 12.5),
            ("fig4c_deg6", "naive", "peak_queue_depth", 3.0),
        ]);
        let text = r.to_json();
        assert!(text.contains("\"commit\""));
        assert!(text.contains("\"entries\""));
        assert!(!text.contains("\"host\""), "no fingerprint recorded, none serialized");
        let back = BenchReport::from_json(&text).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn host_fingerprint_round_trips_and_never_gates() {
        let mut r = report(&[("a", "FTFM", "sim_time_ns", 100.0)]);
        r.host = Some(HostFingerprint {
            cpu_model: "Engineering Sample 9000".to_string(),
            core_count: 64,
            rustc: "rustc 1.75.0".to_string(),
        });
        let text = r.to_json();
        assert!(text.contains("\"cpu_model\""));
        let back = BenchReport::from_json(&text).expect("parses");
        assert_eq!(back, r);
        // A baseline without a fingerprint compares cleanly against a
        // current report with one: the comparator ignores the host.
        let bare = report(&[("a", "FTFM", "sim_time_ns", 100.0)]);
        let cmp = compare(&bare, &r, 0.15);
        assert!(!cmp.is_regression());
        assert!(cmp.new_entries.is_empty() && cmp.removed_entries.is_empty());
    }

    #[test]
    fn probed_fingerprint_has_no_empty_fields() {
        let h = HostFingerprint::current();
        assert!(!h.cpu_model.is_empty());
        assert!(!h.rustc.is_empty());
    }

    #[test]
    fn digest_documents_round_trip() {
        // A tiny hand-built digest avoids paying for a pinned run here.
        let d = TraceDigest {
            sim_time_ns: 5800,
            total_bytes: 96,
            dominance_tests: 9,
            peak_queue_depth: 2,
            phases: vec![PhaseAgg {
                phase: "started".to_string(),
                spans: 1,
                service_ns: 1000,
                dominance_tests: 3,
            }],
            nodes: vec![NodeAgg {
                node: 0,
                spans: 2,
                service_ns: 1800,
                dominance_tests: 6,
                bytes_out: 64,
                peak_queue_depth: 2,
            }],
            links: vec![LinkAgg { from: 0, to: 1, messages: 1, bytes: 64, transfer_ns: 2000 }],
        };
        let digests = vec![
            FigureDigest {
                figure: "fig3b_d8".to_string(),
                variant: "FTFM".to_string(),
                digest: d.clone(),
            },
            FigureDigest {
                figure: "fig3b_d8".to_string(),
                variant: "FTPM+cache".to_string(),
                digest: d,
            },
        ];
        let text = digests_to_json("deadbeef", &digests);
        assert_eq!(text, digests_to_json("deadbeef", &digests), "byte-deterministic");
        let back = digests_from_json(&text).expect("parses");
        assert_eq!(back, digests);
        assert!(digests_from_json("{}").is_err());
    }

    #[test]
    fn pinned_runs_are_deterministic_where_promised() {
        // Two fresh runs must agree on every metric except wall time.
        let key = |e: &BenchEntry| format!("{}/{}/{}", e.figure, e.variant, e.metric);
        let a: BTreeMap<String, f64> =
            run_pinned().into_iter().map(|e| (key(&e), e.value)).collect();
        let b: BTreeMap<String, f64> =
            run_pinned().into_iter().map(|e| (key(&e), e.value)).collect();
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 3 * 5 * 5, "3 figures x 5 variants x 5 metrics");
        for (k, va) in &a {
            if k.ends_with("wall_time_ms") {
                continue;
            }
            assert_eq!(Some(va), b.get(k), "{k} must be deterministic");
        }
    }
}

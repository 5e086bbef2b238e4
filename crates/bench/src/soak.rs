//! Workload soak runner: many queries, every one traced, tail-latency
//! percentiles and SLO verdicts out.
//!
//! [`run_soak`] drives a seeded [`MixedWorkloadSpec`] through the
//! deterministic DES for each requested variant using the engine's
//! single-simulation executor ([`SkypeerEngine::execute`]): one simulation
//! per query, a [`MemTracer`] on each, per-query rows streamed to the
//! caller (JSONL), and per-variant aggregation into
//!
//! * HDR latency and bytes histograms
//!   ([`HdrHistogram`]) — p50/p90/p99/p999 within the documented
//!   bucket-error bound;
//! * a [`FlightRecorder`] that keeps the full trace of only the top-K
//!   slowest queries, so a 10k-query soak stays memory-bounded while
//!   every p99 offender remains explainable via `skypeer-cli explain`;
//! * an [`SloSpec`] verdict per variant for CI gating.
//!
//! Everything in [`SoakOutcome::summary_json`] derives from sim-time and
//! counters — no wall clocks, commits, or dates — so the summary is
//! byte-deterministic for a seeded config and golden-testable.

use skypeer_cache::CacheStats;
use skypeer_core::cached::CachedEngine;
use skypeer_core::{AnswerFault, AuditSpec, AuditStats, AuditViolation, Auditor};
use skypeer_core::{BackendKind, FaultPlan, QueryRequest, SkypeerEngine, Variant};
use skypeer_data::{InitiatorMix, KMix, MixedWorkloadSpec, Query};
use skypeer_netsim::des::LinkModel;
use skypeer_netsim::obs::expose::hdr_prometheus;
use skypeer_netsim::obs::tsdb::history_line;
use skypeer_netsim::obs::{
    json, AnomalyDetector, DetectorConfig, FlightRecorder, HdrHistogram, Incident, MemTracer,
    MetricsRegistry, SloReport, SloSpec, TraceEvent, Tracer, Tsdb,
};
use std::sync::Arc;

/// Telemetry knobs for a soak run: retain per-query series in a
/// [`Tsdb`] and run anomaly detection over them.
#[derive(Clone, Copy, Debug)]
pub struct TelemetrySpec {
    /// Per-series ring capacity (buckets) for the retained history.
    pub series_cap: usize,
    /// Anomaly detector tuning.
    pub detector: DetectorConfig,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            series_cap: skypeer_netsim::obs::tsdb::DEFAULT_SERIES_CAP,
            detector: DetectorConfig::default(),
        }
    }
}

/// Mid-run link perturbation: queries with index `>= after` run with
/// the link overrides applied, so anomaly onset can be validated
/// against a known injection point.
#[derive(Clone, Debug)]
pub struct SoakPerturb {
    /// First query index (0-based) executed under the overrides.
    pub after: usize,
    /// `(from, to, model)` directed-link overrides.
    pub overrides: Vec<(usize, usize, LinkModel)>,
}

/// Online-audit knobs for a soak run: sample queries at a fixed rate,
/// shadow-recompute them against the raw-data oracle, and cross-check
/// cache-fronted answers against direct distributed answers.
#[derive(Clone, Copy, Debug)]
pub struct SoakAudit {
    /// Fraction of queries sampled for shadow verification, in `[0, 1]`.
    pub sample_rate: f64,
    /// Sampling-hash seed (same seed + workload ⇒ same sampled set).
    pub seed: u64,
    /// Fault-injection drill: silently drop one ext-skyline entry from
    /// every in-flight answer (picked from the first sampled query's
    /// true skyline, preferring a point homed away from that query's
    /// initiator so it must cross the wire). The drill is invisible to
    /// every performance metric; a healthy audit must catch and name it.
    pub inject_drop_ext: bool,
}

impl Default for SoakAudit {
    fn default() -> Self {
        let AuditSpec { sample_rate, seed } = AuditSpec::default();
        SoakAudit { sample_rate, seed, inject_drop_ext: false }
    }
}

/// What a soak run executes and how it judges the result.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Variants to run the workload under, in execution order.
    pub variants: Vec<Variant>,
    /// The seeded query workload (shared by every variant).
    pub workload: MixedWorkloadSpec,
    /// Budgets evaluated per variant at the end of the run.
    /// `max_latency_ns` doubles as the per-query over-SLO flag.
    pub slo: SloSpec,
    /// Flight-recorder capacity: full traces retained per variant.
    pub tail_k: usize,
    /// HDR histogram precision (sub-bucket bits).
    pub hdr_precision: u32,
    /// When set, every variant runs through a fresh
    /// [`CachedEngine`] with this byte budget: misses execute the
    /// Extended-flavour backbone query and admit its result, hits are
    /// served locally. `None` (the default paths) leaves the summary
    /// byte-identical to a cacheless build.
    pub cache_bytes: Option<u64>,
    /// When set, per-query series (latency, bytes, messages, dominance
    /// tests, queue depth, cache hits) feed a per-variant [`Tsdb`] and
    /// [`AnomalyDetector`]; incidents join the summary and exposition.
    /// `None` leaves every output byte-identical to a telemetry-less
    /// build.
    pub telemetry: Option<TelemetrySpec>,
    /// When set, inject a link perturbation mid-run. Incompatible with
    /// [`SoakSpec::cache_bytes`] (the cache-fronted path has no
    /// perturbed execution route).
    pub perturb: Option<SoakPerturb>,
    /// When set, an online [`Auditor`] samples queries, shadow-verifies
    /// them against the raw-data oracle, and (on cache-fronted runs)
    /// cross-checks answers against direct distributed runs. `None`
    /// leaves every output byte-identical to an audit-less build.
    pub audit: Option<SoakAudit>,
    /// Distributed-skyline backend every query executes under. The
    /// default ([`BackendKind::Skypeer`]) leaves every output
    /// byte-identical to a backend-less build; the sampling backend
    /// ignores the [`Variant`] column (its protocol has no
    /// threshold/merge axes) and is incompatible with
    /// [`SoakSpec::cache_bytes`].
    pub backend: BackendKind,
}

impl SoakSpec {
    /// A spec over all five variants with default precision and a top-8
    /// tail, no SLO.
    pub fn all_variants(workload: MixedWorkloadSpec) -> Self {
        SoakSpec {
            variants: Variant::ALL.to_vec(),
            workload,
            slo: SloSpec::default(),
            tail_k: 8,
            hdr_precision: HdrHistogram::DEFAULT_PRECISION,
            cache_bytes: None,
            telemetry: None,
            perturb: None,
            audit: None,
            backend: BackendKind::default(),
        }
    }
}

/// One query's measurements, streamed to the caller as it completes.
#[derive(Clone, Debug)]
pub struct QueryRow {
    /// Variant mnemonic the query ran under.
    pub variant: &'static str,
    /// Query index within the workload (0-based).
    pub query: usize,
    /// Requested dimensions.
    pub dims: Vec<usize>,
    /// Initiating super-peer.
    pub initiator: usize,
    /// Simulated response time, ns.
    pub latency_ns: u64,
    /// Bytes transferred.
    pub volume_bytes: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Dominance tests across all super-peers (from the trace).
    pub dominance_tests: u64,
    /// Result-set size.
    pub result_points: usize,
    /// Whether the query broke the per-query latency ceiling.
    pub over_slo: bool,
    /// Whether the flight recorder kept this query's full trace (at the
    /// time it was observed — later, slower queries may evict it).
    pub retained: bool,
    /// `Some(true)` when the subspace cache answered this query without a
    /// backbone execution; `None` when the run is cache-less (the field is
    /// then omitted from the JSONL line, keeping cache-off output
    /// byte-identical to earlier releases).
    pub served_from_cache: Option<bool>,
    /// `Some(true)` when the auditor sampled this query for shadow
    /// verification; `None` on audit-less runs (field omitted from the
    /// JSONL line, keeping audit-off output byte-identical).
    pub audited: Option<bool>,
}

impl QueryRow {
    /// One deterministic JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new()
            .str("variant", self.variant)
            .u64("query", self.query as u64)
            .raw("dims", &json::arr(self.dims.iter().map(|d| d.to_string())))
            .u64("initiator", self.initiator as u64)
            .u64("latency_ns", self.latency_ns)
            .u64("volume_bytes", self.volume_bytes)
            .u64("messages", self.messages)
            .u64("dominance_tests", self.dominance_tests)
            .u64("result_points", self.result_points as u64)
            .bool("over_slo", self.over_slo)
            .bool("retained", self.retained);
        if let Some(hit) = self.served_from_cache {
            obj = obj.bool("cache_hit", hit);
        }
        if let Some(sampled) = self.audited {
            obj = obj.bool("audited", sampled);
        }
        obj.build()
    }
}

/// Per-variant aggregation of a soak run.
pub struct VariantSoak {
    /// The variant.
    pub variant: Variant,
    /// HDR histogram of simulated per-query latencies, ns.
    pub latency_ns: HdrHistogram,
    /// HDR histogram of per-query transferred bytes.
    pub bytes: HdrHistogram,
    /// Sum of simulated response times, ns.
    pub sim_time_total_ns: u64,
    /// Total bytes transferred.
    pub bytes_total: u64,
    /// Total messages delivered.
    pub messages_total: u64,
    /// Total dominance tests.
    pub dominance_tests_total: u64,
    /// The tail-trace recorder (worst queries first).
    pub recorder: FlightRecorder,
    /// The variant's SLO verdict.
    pub slo: SloReport,
    /// Cache counters, when the run was cache-fronted
    /// ([`SoakSpec::cache_bytes`]).
    pub cache: Option<CacheStats>,
    /// Retained telemetry, when the run recorded it
    /// ([`SoakSpec::telemetry`]).
    pub telemetry: Option<VariantTelemetry>,
    /// Audit outcome, when the run was audited ([`SoakSpec::audit`]).
    pub audit: Option<VariantAudit>,
}

/// Per-variant outcome of the online audit.
pub struct VariantAudit {
    /// Aggregate audit counters.
    pub stats: AuditStats,
    /// Violations in detection order, each carrying the lineage of every
    /// disputed point.
    pub violations: Vec<AuditViolation>,
    /// The point id silently dropped in flight when the
    /// [`SoakAudit::inject_drop_ext`] drill was armed (and a victim
    /// could be chosen).
    pub injected_drop: Option<u64>,
}

/// Per-variant retained telemetry from a soak run.
pub struct VariantTelemetry {
    /// Downsampled per-query series (tick = query index).
    pub tsdb: Tsdb,
    /// The detector that watched the series as they streamed.
    pub detector: AnomalyDetector,
    /// Raw history JSONL lines (series prefixed `<variant>/…` so one
    /// file can hold every variant), replayable via `top --replay`.
    pub history: Vec<String>,
}

impl VariantTelemetry {
    /// Incidents the detector flagged, in onset order.
    pub fn incidents(&self) -> &[Incident] {
        self.detector.incidents()
    }
}

/// Everything a soak run produced.
pub struct SoakOutcome {
    /// The spec the run executed.
    pub spec: SoakSpec,
    /// The generated workload, in query order.
    pub queries: Vec<Query>,
    /// Per-variant aggregates, in `spec.variants` order.
    pub variants: Vec<VariantSoak>,
}

/// Runs the workload under every requested variant. `on_row` observes
/// each query's [`QueryRow`] as it completes (stream it to JSONL, a
/// dashboard, or ignore it).
pub fn run_soak(
    engine: &SkypeerEngine,
    spec: &SoakSpec,
    mut on_row: impl FnMut(&QueryRow),
) -> SoakOutcome {
    assert!(!spec.variants.is_empty(), "need at least one variant");
    assert_eq!(
        spec.workload.n_superpeers,
        engine.config().n_superpeers,
        "workload initiators must match the engine's super-peer count"
    );
    assert!(
        spec.workload.dim <= engine.config().dataset.dim,
        "workload dimensionality exceeds the dataset's"
    );
    assert!(
        spec.perturb.is_none() || spec.cache_bytes.is_none(),
        "--perturb-link and --cache are incompatible: the cache-fronted \
         path has no perturbed execution route"
    );
    assert!(
        spec.backend == BackendKind::default() || spec.cache_bytes.is_none(),
        "--backend sampling and --cache are incompatible: the cache-fronted \
         path is wired to the SKYPEER ext-skyline backbone"
    );
    let queries = spec.workload.generate();
    let mut variants = Vec::with_capacity(spec.variants.len());
    for &variant in &spec.variants {
        let mut vs = VariantSoak {
            variant,
            latency_ns: HdrHistogram::new(spec.hdr_precision),
            bytes: HdrHistogram::new(spec.hdr_precision),
            sim_time_total_ns: 0,
            bytes_total: 0,
            messages_total: 0,
            dominance_tests_total: 0,
            recorder: FlightRecorder::new(spec.tail_k),
            slo: SloReport { label: String::new(), checks: Vec::new() },
            cache: None,
            telemetry: spec.telemetry.map(|t| VariantTelemetry {
                tsdb: Tsdb::new(t.series_cap),
                detector: AnomalyDetector::new(t.detector),
                history: Vec::new(),
            }),
            audit: None,
        };
        // A fresh auditor per variant: counters and violations stay
        // per-variant comparable, like the cache below.
        let mut auditor = spec
            .audit
            .map(|a| Auditor::new(engine, AuditSpec { sample_rate: a.sample_rate, seed: a.seed }));
        // The fault-injection drill: silently drop one true-skyline point
        // of the first sampled query from every in-flight answer,
        // preferring a point homed away from that query's initiator so
        // the corruption must cross the wire.
        let injected_drop = match (&spec.audit, auditor.as_ref()) {
            (Some(a), Some(aud)) if a.inject_drop_ext => queries
                .iter()
                .enumerate()
                .find(|(i, _)| aud.should_sample(*i))
                .and_then(|(_, q)| {
                    let truth = aud.shadow_skyline(*q);
                    truth
                        .iter()
                        .copied()
                        .find(|&id| {
                            let home =
                                aud.resolver().lineage(id, q.subspace).origin.map(|o| o.super_peer);
                            home != Some(q.initiator)
                        })
                        .or_else(|| truth.first().copied())
                }),
            _ => None,
        };
        // The drill reaches every simulation of this variant's stream,
        // the cache's misses and the audit's direct cross-checks included.
        let faults = FaultPlan {
            answer_fault: injected_drop.map(|drop_id| AnswerFault { drop_id }),
            ..FaultPlan::default()
        };
        // A fresh cache per variant, so per-variant numbers stay
        // independent and comparable.
        let mut cached = spec.cache_bytes.map(|b| CachedEngine::new(engine, b));
        for (i, &q) in queries.iter().enumerate() {
            let tracer = Arc::new(MemTracer::new());
            let tr = Some(Arc::clone(&tracer) as Arc<dyn Tracer>);
            let perturbed = spec.perturb.as_ref().filter(|p| i >= p.after);
            let req = QueryRequest {
                backend: spec.backend,
                link_overrides: perturbed.map_or_else(Vec::new, |p| p.overrides.clone()),
                faults: faults.clone(),
                ..QueryRequest::new(q, variant)
            };
            let (out, refine_tests, served_from_cache) = match cached.as_mut() {
                Some(c) => {
                    let co = c.run_query(&req, tr);
                    let hit = co.served_from_cache();
                    (co.outcome, co.refine_tests, Some(hit))
                }
                None => (engine.execute(&req, tr), 0, None),
            };
            // The audit: shadow-verify sampled answers against the
            // raw-data oracle; on cache-fronted runs, additionally
            // cross-check the answer against a direct distributed run.
            let mut audited = auditor.as_ref().map(|_| false);
            let mut query_violations = 0u64;
            if let Some(aud) = auditor.as_mut() {
                if aud.should_sample(i) {
                    audited = Some(true);
                    let before = aud.stats.violations;
                    aud.check_answer(i, q, &out.result_ids);
                    if cached.is_some() {
                        let direct = engine.execute(&req, None);
                        aud.crosscheck_cache(i, q, &out.result_ids, &direct.result_ids);
                    }
                    query_violations = aud.stats.violations - before;
                }
            }
            let events = tracer.take();
            // Queue depth has to come off the events before the
            // recorder consumes them; only pay for it when telemetry
            // is on.
            let queue_depth = vs
                .telemetry
                .as_ref()
                .map(|_| MetricsRegistry::from_events(&events).max_queue_depth());
            let dominance_tests: u64 = refine_tests
                + events
                    .iter()
                    .map(|e| match e {
                        TraceEvent::Service { dominance_tests, .. } => *dominance_tests,
                        _ => 0,
                    })
                    .sum::<u64>();
            let latency_ns = out.total_time_ns;
            let over_slo = spec.slo.max_latency_ns.is_some_and(|b| latency_ns > b);
            let retained = vs.recorder.observe(
                format!("{}/q{i}", variant.mnemonic()),
                latency_ns,
                over_slo,
                events,
            );
            vs.latency_ns.record(latency_ns);
            vs.bytes.record(out.volume_bytes);
            vs.sim_time_total_ns += latency_ns;
            vs.bytes_total += out.volume_bytes;
            vs.messages_total += out.messages;
            vs.dominance_tests_total += dominance_tests;
            if let Some(tel) = vs.telemetry.as_mut() {
                let tick = i as u64;
                let mut samples = vec![
                    ("latency_ns", latency_ns as f64),
                    ("volume_bytes", out.volume_bytes as f64),
                    ("messages", out.messages as f64),
                    ("dominance_tests", dominance_tests as f64),
                    ("queue_depth", queue_depth.unwrap_or(0) as f64),
                ];
                if let Some(hit) = served_from_cache {
                    samples.push(("cache_hit", if hit { 1.0 } else { 0.0 }));
                }
                if audited.is_some() {
                    // Zero on every healthy query: any step change is an
                    // anomaly-detector onset at the corruption point.
                    samples.push(("audit_violations", query_violations as f64));
                }
                let mnemonic = variant.mnemonic();
                for (series, value) in samples {
                    tel.tsdb.record(series, tick, value);
                    tel.detector.observe(series, tick, value);
                    tel.history.push(history_line(tick, &format!("{mnemonic}/{series}"), value));
                }
            }
            on_row(&QueryRow {
                variant: variant.mnemonic(),
                query: i,
                dims: q.subspace.dims().collect(),
                initiator: q.initiator,
                latency_ns,
                volume_bytes: out.volume_bytes,
                messages: out.messages,
                dominance_tests,
                result_points: out.result_ids.len(),
                over_slo,
                retained,
                served_from_cache,
                audited,
            });
        }
        vs.slo = spec.slo.evaluate(variant.mnemonic(), &vs.latency_ns, &vs.bytes);
        vs.cache = cached.as_ref().map(|c| c.stats());
        vs.audit = auditor.map(|a| VariantAudit {
            stats: a.stats,
            violations: a.violations,
            injected_drop,
        });
        variants.push(vs);
    }
    SoakOutcome { spec: spec.clone(), queries, variants }
}

fn describe_k_mix(m: KMix) -> String {
    match m {
        KMix::Fixed(k) => format!("fixed({k})"),
        KMix::Zipf { k_min, k_max, exponent } => {
            format!("zipf({k_min}..{k_max},theta={exponent:?})")
        }
    }
}

fn describe_initiator_mix(m: InitiatorMix) -> String {
    match m {
        InitiatorMix::Uniform => "uniform".to_string(),
        InitiatorMix::Zipf { exponent } => format!("zipf(theta={exponent:?})"),
    }
}

fn percentile_obj(h: &HdrHistogram) -> String {
    json::Obj::new()
        .u64("p50", h.p50().unwrap_or(0))
        .u64("p90", h.p90().unwrap_or(0))
        .u64("p99", h.p99().unwrap_or(0))
        .u64("p999", h.p999().unwrap_or(0))
        .u64("min", h.min().unwrap_or(0))
        .u64("max", h.max().unwrap_or(0))
        .f64("mean", h.mean())
        .build()
}

impl SoakOutcome {
    /// `true` iff every variant's SLO verdict passed.
    pub fn pass(&self) -> bool {
        self.variants.iter().all(|v| v.slo.pass())
    }

    /// The deterministic `SoakSummary` JSON: workload echo, per-variant
    /// percentiles, totals, SLO verdicts, and the retained-tail digest.
    /// Contains nothing host- or time-dependent, so two runs of the same
    /// seeded spec are byte-identical (golden-pinned in the CLI tests).
    pub fn summary_json(&self) -> String {
        let w = &self.spec.workload;
        let mut wobj = json::Obj::new()
            .u64("dim", w.dim as u64)
            .u64("queries", w.queries as u64)
            .u64("n_superpeers", w.n_superpeers as u64)
            .u64("seed", w.seed)
            .str("k_mix", &describe_k_mix(w.k_mix))
            .str("initiator_mix", &describe_initiator_mix(w.initiator_mix));
        // Present only off the default backend, so skypeer-backend
        // summaries stay byte-identical to earlier goldens.
        if self.spec.backend != BackendKind::default() {
            wobj = wobj.str("backend", self.spec.backend.name());
        }
        let workload = wobj.build();
        let variants = json::arr(self.variants.iter().map(|v| {
            let worst = json::arr(v.recorder.retained().iter().map(|r| {
                let q = self.queries[r.seq as usize];
                json::Obj::new()
                    .u64("query", r.seq)
                    .u64("latency_ns", r.latency_ns)
                    .raw("dims", &json::arr(q.subspace.dims().map(|d| d.to_string())))
                    .u64("initiator", q.initiator as u64)
                    .bool("over_slo", r.over_slo)
                    .build()
            }));
            let mut obj = json::Obj::new()
                .str("variant", v.variant.mnemonic())
                .u64("queries", v.latency_ns.count())
                .raw("latency_ns", &percentile_obj(&v.latency_ns))
                .raw("volume_bytes", &percentile_obj(&v.bytes))
                .raw(
                    "totals",
                    &json::Obj::new()
                        .u64("sim_time_ns", v.sim_time_total_ns)
                        .u64("bytes", v.bytes_total)
                        .u64("messages", v.messages_total)
                        .u64("dominance_tests", v.dominance_tests_total)
                        .build(),
                );
            // Present only on cache-fronted runs, so cache-off summaries
            // stay byte-identical to older goldens.
            if let Some(st) = &v.cache {
                obj = obj.raw(
                    "cache",
                    &json::Obj::new()
                        .f64("hit_rate", st.hit_rate())
                        .u64("lookups", st.lookups)
                        .u64("exact_hits", st.exact_hits)
                        .u64("subsumption_hits", st.subsumption_hits)
                        .u64("misses", st.misses)
                        .u64("stale_rejects", st.stale_rejects)
                        .u64("coalesced", st.coalesced)
                        .u64("admissions", st.admissions)
                        .u64("evictions", st.evictions)
                        .u64("bytes_saved", st.bytes_saved)
                        .build(),
                );
            }
            // Present only on telemetry runs, same reasoning as `cache`.
            if let Some(tel) = &v.telemetry {
                obj = obj.raw("incidents", &tel.detector.incidents_json());
            }
            // Present only on audited runs, same reasoning as `cache`.
            if let Some(aud) = &v.audit {
                let mut a = json::Obj::new()
                    .u64("sampled", aud.stats.sampled)
                    .u64("crosschecks", aud.stats.crosschecks)
                    .u64("violations", aud.stats.violations)
                    .u64("missing_points", aud.stats.missing_points)
                    .u64("spurious_points", aud.stats.spurious_points);
                if let Some(id) = aud.injected_drop {
                    a = a.u64("injected_drop", id);
                }
                obj = obj.raw(
                    "audit",
                    &a.raw("records", &json::arr(aud.violations.iter().map(|x| x.to_json())))
                        .build(),
                );
            }
            obj.raw("slo", &v.slo.to_json()).raw("worst", &worst).build()
        }));
        json::Obj::new()
            .raw("workload", &workload)
            .u64("tail_k", self.spec.tail_k as u64)
            .u64("hdr_precision", u64::from(self.spec.hdr_precision))
            .bool("pass", self.pass())
            .raw("variants", &variants)
            .build()
    }

    /// Prometheus exposition of the per-variant latency and bytes
    /// histograms (one family each, labelled by variant).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, pick) in [
            (
                "skypeer_soak_latency_ns",
                "Simulated per-query response time, ns.",
                (|v: &VariantSoak| &v.latency_ns) as fn(&VariantSoak) -> &HdrHistogram,
            ),
            ("skypeer_soak_volume_bytes", "Per-query transferred bytes.", |v| &v.bytes),
        ] {
            for (i, v) in self.variants.iter().enumerate() {
                let text =
                    hdr_prometheus(name, help, &[("variant", v.variant.mnemonic())], pick(v));
                if i == 0 {
                    out.push_str(&text);
                } else {
                    // HELP/TYPE belong to the family, not the series: emit
                    // them once and append the other variants' series.
                    for line in text.lines().filter(|l| !l.starts_with('#')) {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
        }
        // Cache counters, one family per counter, labelled by variant —
        // present only on cache-fronted runs.
        let with_cache: Vec<(&'static str, CacheStats)> = self
            .variants
            .iter()
            .filter_map(|v| v.cache.map(|st| (v.variant.mnemonic(), st)))
            .collect();
        if let Some((_, first)) = with_cache.first() {
            for (ci, (name, _)) in first.counter_pairs().iter().enumerate() {
                out.push_str(&format!(
                    "# HELP skypeer_{name}_total Subspace result cache counter.\n\
                     # TYPE skypeer_{name}_total counter\n"
                ));
                for (mnemonic, st) in &with_cache {
                    out.push_str(&format!(
                        "skypeer_{name}_total{{variant=\"{mnemonic}\"}} {}\n",
                        st.counter_pairs()[ci].1
                    ));
                }
            }
        }
        // Audit counters, one family per counter, labelled by variant —
        // present only on audited runs.
        if self.variants.iter().any(|v| v.audit.is_some()) {
            type AuditCounter = (&'static str, &'static str, fn(&AuditStats) -> u64);
            let pick: [AuditCounter; 5] = [
                ("sampled", "Queries shadow-verified against the raw-data oracle.", |s| s.sampled),
                ("crosschecks", "Cache-fronted answers cross-checked against direct runs.", |s| {
                    s.crosschecks
                }),
                ("violations", "Correctness violations detected by the audit.", |s| s.violations),
                ("points_missing", "True-skyline points absent from audited answers.", |s| {
                    s.missing_points
                }),
                ("points_spurious", "Answered points absent from the true skyline.", |s| {
                    s.spurious_points
                }),
            ];
            for (name, help, get) in pick {
                out.push_str(&format!(
                    "# HELP skypeer_audit_{name}_total {help}\n\
                     # TYPE skypeer_audit_{name}_total counter\n"
                ));
                for v in &self.variants {
                    if let Some(aud) = &v.audit {
                        out.push_str(&format!(
                            "skypeer_audit_{name}_total{{variant=\"{}\"}} {}\n",
                            v.variant.mnemonic(),
                            get(&aud.stats)
                        ));
                    }
                }
            }
        }
        // Incident counts, present only on telemetry runs.
        if self.variants.iter().any(|v| v.telemetry.is_some()) {
            out.push_str(
                "# HELP skypeer_soak_incidents_total Anomaly incidents flagged during the soak.\n\
                 # TYPE skypeer_soak_incidents_total counter\n",
            );
            for v in &self.variants {
                if let Some(tel) = &v.telemetry {
                    out.push_str(&format!(
                        "skypeer_soak_incidents_total{{variant=\"{}\"}} {}\n",
                        v.variant.mnemonic(),
                        tel.incidents().len()
                    ));
                }
            }
        }
        out
    }

    /// Total incidents across all variants (0 on telemetry-less runs).
    pub fn incident_count(&self) -> usize {
        self.variants.iter().filter_map(|v| v.telemetry.as_ref()).map(|t| t.incidents().len()).sum()
    }

    /// Total audit violations across all variants (0 on audit-less runs).
    pub fn violation_count(&self) -> usize {
        self.variants.iter().filter_map(|v| v.audit.as_ref()).map(|a| a.violations.len()).sum()
    }

    /// Deterministic audit digest: one summary line per audited variant
    /// plus one line per violation (naming each disputed point, its
    /// origin peer, and the queried subspace). `None` on audit-less runs.
    pub fn audit_report(&self) -> Option<String> {
        let audited: Vec<(&VariantSoak, &VariantAudit)> =
            self.variants.iter().filter_map(|v| v.audit.as_ref().map(|a| (v, a))).collect();
        if audited.is_empty() {
            return None;
        }
        let mut out = String::new();
        for (v, aud) in audited {
            out.push_str(&format!(
                "audit {}: sampled {}, crosschecks {}, violations {}{}\n",
                v.variant.mnemonic(),
                aud.stats.sampled,
                aud.stats.crosschecks,
                aud.stats.violations,
                match aud.injected_drop {
                    Some(id) => format!(" (drill: dropped #{id} in flight)"),
                    None => String::new(),
                }
            ));
            for violation in &aud.violations {
                out.push_str("  ");
                out.push_str(&violation.render());
                out.push('\n');
            }
        }
        Some(out)
    }

    /// The run's full telemetry history as JSONL text (all variants,
    /// series prefixed `<variant>/…`), or `None` on telemetry-less
    /// runs. Replayable via `skypeer-cli top --replay`.
    pub fn history_text(&self) -> Option<String> {
        let tels: Vec<&VariantTelemetry> =
            self.variants.iter().filter_map(|v| v.telemetry.as_ref()).collect();
        if tels.is_empty() {
            return None;
        }
        let mut out = String::new();
        for tel in tels {
            for line in &tel.history {
                out.push_str(line);
                out.push('\n');
            }
        }
        Some(out)
    }

    /// The percentile table as fixed-width text (latencies in simulated
    /// milliseconds).
    pub fn render_table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let cache_on = self.variants.iter().any(|v| v.cache.is_some());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "variant", "queries", "p50 ms", "p90 ms", "p99 ms", "p999 ms", "max ms", "slo"
        ));
        if cache_on {
            out.push_str(&format!(" {:>7}", "hit%"));
        }
        out.push('\n');
        for v in &self.variants {
            let h = &v.latency_ns;
            out.push_str(&format!(
                "{:<8} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>10}",
                v.variant.mnemonic(),
                h.count(),
                ms(h.p50().unwrap_or(0)),
                ms(h.p90().unwrap_or(0)),
                ms(h.p99().unwrap_or(0)),
                ms(h.p999().unwrap_or(0)),
                ms(h.max().unwrap_or(0)),
                if v.slo.checks.is_empty() {
                    "-"
                } else if v.slo.pass() {
                    "pass"
                } else {
                    "FAIL"
                },
            ));
            if cache_on {
                match &v.cache {
                    Some(st) => out.push_str(&format!(" {:>6.1}%", st.hit_rate() * 100.0)),
                    None => out.push_str(&format!(" {:>7}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// One line per variant describing its worst retained query, with a
    /// replay command through the existing explain path.
    pub fn worst_digest(&self) -> String {
        let mut out = String::new();
        for v in &self.variants {
            if let Some(worst) = v.recorder.worst() {
                let q = self.queries[worst.seq as usize];
                let dims: Vec<String> = q.subspace.dims().map(|d| d.to_string()).collect();
                out.push_str(&format!(
                    "worst {}: q{} at {:.3} ms (dims {}, initiator {}{}) — replay: \
                     skypeer-cli explain --dims {} --initiator {} --variant {}\n",
                    v.variant.mnemonic(),
                    worst.seq,
                    worst.latency_ns as f64 / 1e6,
                    dims.join(","),
                    q.initiator,
                    if worst.over_slo { ", OVER SLO" } else { "" },
                    dims.join(","),
                    q.initiator,
                    v.variant.mnemonic().to_lowercase(),
                ));
            }
        }
        out
    }

    /// Concatenated SLO verdict rendering for all variants.
    pub fn render_slo(&self) -> String {
        self.variants.iter().map(|v| v.slo.render()).collect()
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_core::EngineConfig;
    use skypeer_data::{DatasetKind, DatasetSpec, WorkloadSpec};
    use skypeer_netsim::cost::CostModel;
    use skypeer_netsim::des::LinkModel;
    use skypeer_netsim::topology::TopologySpec;
    use skypeer_skyline::DominanceIndex;

    fn engine() -> SkypeerEngine {
        let n_superpeers = 6;
        SkypeerEngine::build(EngineConfig {
            n_peers: 12,
            n_superpeers,
            dataset: DatasetSpec {
                dim: 4,
                points_per_peer: 30,
                kind: DatasetKind::Uniform,
                seed: 5,
            },
            topology: TopologySpec::paper_default(n_superpeers, 5),
            index: DominanceIndex::Linear,
            cost: CostModel::default(),
            link: LinkModel::paper_4kbps(),
            routing: skypeer_core::engine::RoutingMode::Flood,
        })
    }

    fn small_spec(n_superpeers: usize) -> SoakSpec {
        SoakSpec {
            variants: vec![Variant::Ftpm, Variant::Naive],
            workload: MixedWorkloadSpec::uniform(WorkloadSpec {
                dim: 4,
                k: 2,
                queries: 12,
                n_superpeers,
                seed: 9,
            }),
            slo: SloSpec::default(),
            tail_k: 3,
            hdr_precision: 7,
            cache_bytes: None,
            telemetry: None,
            perturb: None,
            audit: None,
            backend: BackendKind::default(),
        }
    }

    #[test]
    fn soak_streams_one_row_per_query_per_variant() {
        let engine = engine();
        let spec = small_spec(engine.config().n_superpeers);
        let mut rows = Vec::new();
        let out = run_soak(&engine, &spec, |r| rows.push(r.to_json()));
        assert_eq!(rows.len(), 12 * 2);
        assert_eq!(out.variants.len(), 2);
        for v in &out.variants {
            assert_eq!(v.latency_ns.count(), 12);
            assert_eq!(v.recorder.observed(), 12);
            assert_eq!(v.recorder.retained().len(), 3);
            assert!(v.bytes_total > 0 || v.variant == Variant::Naive);
        }
        assert!(rows[0].starts_with("{\"variant\":\"FTPM\",\"query\":0,"));
    }

    #[test]
    fn recorder_keeps_exactly_the_top_k_latencies() {
        let engine = engine();
        let spec = small_spec(engine.config().n_superpeers);
        let mut latencies: Vec<u64> = Vec::new();
        let out = run_soak(&engine, &spec, |r| {
            if r.variant == "FTPM" {
                latencies.push(r.latency_ns);
            }
        });
        latencies.sort_unstable_by(|a, b| b.cmp(a));
        let retained: Vec<u64> =
            out.variants[0].recorder.retained().iter().map(|r| r.latency_ns).collect();
        assert_eq!(retained, latencies[..3].to_vec(), "top-K by latency, worst first");
    }

    #[test]
    fn summary_json_is_deterministic_and_slo_gates() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        let a = run_soak(&engine, &spec, |_| {}).summary_json();
        let b = run_soak(&engine, &spec, |_| {}).summary_json();
        assert_eq!(a, b, "summary must be byte-deterministic");
        assert!(a.contains("\"pass\":true"));
        // An impossible latency budget fails the gate.
        spec.slo.p50_latency_ns = Some(1);
        let gated = run_soak(&engine, &spec, |_| {});
        assert!(!gated.pass());
        assert!(gated.summary_json().contains("\"pass\":false"));
        assert!(gated.render_slo().contains("[FAIL]"));
    }

    #[test]
    fn prometheus_exposition_has_one_family_per_metric() {
        let engine = engine();
        let spec = small_spec(engine.config().n_superpeers);
        let out = run_soak(&engine, &spec, |_| {});
        let text = out.prometheus();
        assert_eq!(text.matches("# TYPE skypeer_soak_latency_ns histogram").count(), 1);
        assert_eq!(text.matches("# TYPE skypeer_soak_volume_bytes histogram").count(), 1);
        assert!(text.contains("skypeer_soak_latency_ns_bucket{variant=\"FTPM\",le=\""));
        assert!(text.contains("skypeer_soak_latency_ns_count{variant=\"naive\"} 12"));
    }

    #[test]
    fn cached_soak_is_exact_cheaper_and_reports_hit_rate() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        let mut off_points = Vec::new();
        let off = run_soak(&engine, &spec, |r| off_points.push(r.result_points));
        assert!(!off.summary_json().contains("\"cache\""), "cache-off summary is unchanged");

        spec.cache_bytes = Some(4 << 20);
        let mut on_points = Vec::new();
        let on = run_soak(&engine, &spec, |r| on_points.push(r.result_points));
        assert_eq!(on_points, off_points, "cache must not change any query's answer");
        for (c, u) in on.variants.iter().zip(&off.variants) {
            assert!(
                c.bytes_total < u.bytes_total,
                "{}: cached {} bytes must beat uncached {}",
                c.variant.mnemonic(),
                c.bytes_total,
                u.bytes_total
            );
            let st = c.cache.expect("cache stats present");
            assert!(st.hits() > 0, "the 12-query uniform mix repeats subspaces");
            assert_eq!(st.lookups, 12);
        }
        let summary = on.summary_json();
        assert!(summary.contains("\"cache\":{\"hit_rate\":"));
        assert!(on.render_table().contains("hit%"));
        let prom = on.prometheus();
        assert_eq!(prom.matches("# TYPE skypeer_cache_lookups_total counter").count(), 1);
        assert!(prom.contains("skypeer_cache_lookups_total{variant=\"FTPM\"} 12"));
        // Determinism holds with the cache on, too.
        assert_eq!(summary, run_soak(&engine, &spec, |_| {}).summary_json());
    }

    #[test]
    fn telemetry_records_series_and_baseline_is_quiet() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.workload.queries = 60;
        let base = run_soak(&engine, &spec, |_| {}).summary_json();
        assert!(!base.contains("incidents"), "telemetry-off summary is unchanged");

        spec.telemetry = Some(TelemetrySpec::default());
        let out = run_soak(&engine, &spec, |_| {});
        // Same seeded workload, no perturbation: the false-positive
        // guard — zero incidents.
        assert_eq!(out.incident_count(), 0, "{}", out.summary_json());
        let tel = out.variants[0].telemetry.as_ref().expect("telemetry on");
        for series in ["latency_ns", "volume_bytes", "messages", "dominance_tests", "queue_depth"] {
            let ts = tel.tsdb.get(series).unwrap_or_else(|| panic!("series {series}"));
            assert_eq!(ts.count(), 60);
        }
        let summary = out.summary_json();
        assert!(summary.contains("\"incidents\":[]"));
        assert!(out.prometheus().contains("skypeer_soak_incidents_total{variant=\"FTPM\"} 0"));
        // History round-trips through the parser and is deterministic.
        let history = out.history_text().expect("history present");
        let samples = skypeer_netsim::obs::parse_history(&history).expect("parses");
        assert_eq!(samples.len(), 60 * 5 * 2, "5 series per query per variant");
        assert!(samples.iter().any(|s| s.series == "FTPM/latency_ns"));
        let again = run_soak(&engine, &spec, |_| {});
        assert_eq!(history, again.history_text().unwrap());
        assert_eq!(summary, again.summary_json());
        assert_eq!(
            tel.tsdb.to_json(),
            again.variants[0].telemetry.as_ref().unwrap().tsdb.to_json()
        );
    }

    #[test]
    fn perturbed_soak_fires_incident_at_or_after_injection() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.variants = vec![Variant::Ftpm];
        spec.workload.queries = 60;
        spec.telemetry = Some(TelemetrySpec::default());
        // Inflate every backbone link out of SP0 by 5 simulated seconds
        // from query 40 onward.
        let slow = LinkModel { latency_ns: 5_000_000_000, ..LinkModel::paper_4kbps() };
        spec.perturb = Some(SoakPerturb {
            after: 40,
            overrides: (1..engine.config().n_superpeers).map(|to| (0, to, slow)).collect(),
        });
        let out = run_soak(&engine, &spec, |_| {});
        let incidents = out.variants[0].telemetry.as_ref().unwrap().incidents();
        assert!(!incidents.is_empty(), "latency inflation must flag");
        let named: Vec<&str> = incidents.iter().map(|i| i.series.as_str()).collect();
        assert!(
            named.iter().any(|s| s.contains("latency") || s.contains("queue")),
            "incident names a latency/queue series: {named:?}"
        );
        for inc in incidents {
            assert!(inc.onset_tick >= 40, "onset {} precedes the injection", inc.onset_tick);
        }
        let summary = out.summary_json();
        assert!(summary.contains("\"incidents\":[{\"series\":"));
        assert_eq!(summary, run_soak(&engine, &spec, |_| {}).summary_json());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn perturb_and_cache_are_rejected() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.cache_bytes = Some(1 << 20);
        spec.perturb = Some(SoakPerturb { after: 0, overrides: vec![] });
        run_soak(&engine, &spec, |_| {});
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn sampling_backend_and_cache_are_rejected() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.cache_bytes = Some(1 << 20);
        spec.backend = BackendKind::Sampling;
        run_soak(&engine, &spec, |_| {});
    }

    #[test]
    fn sampling_soak_matches_skypeer_answers_and_tags_summary() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.variants = vec![Variant::Ftpm];
        let mut sky_points = Vec::new();
        let sky = run_soak(&engine, &spec, |r| sky_points.push(r.result_points));
        assert!(
            !sky.summary_json().contains("\"backend\""),
            "default-backend summary is unchanged"
        );

        spec.backend = BackendKind::Sampling;
        let mut smp_points = Vec::new();
        let smp = run_soak(&engine, &spec, |r| smp_points.push(r.result_points));
        assert_eq!(smp_points, sky_points, "backends must agree on every answer");
        let summary = smp.summary_json();
        assert!(summary.contains("\"backend\":\"sampling\""), "{summary}");
        assert_eq!(summary, run_soak(&engine, &spec, |_| {}).summary_json(), "deterministic");
    }

    #[test]
    fn audited_soak_is_clean_uncached_and_cached() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        let base_summary = run_soak(&engine, &spec, |_| {}).summary_json();
        let mut base_rows = Vec::new();
        run_soak(&engine, &spec, |r| base_rows.push(r.to_json()));
        assert!(!base_summary.contains("\"audit\""), "audit-off summary is unchanged");
        assert!(!base_rows.iter().any(|r| r.contains("audited")), "audit-off rows unchanged");

        // Uncached: every audited answer matches the raw-data oracle.
        spec.audit = Some(SoakAudit { sample_rate: 1.0, ..SoakAudit::default() });
        let mut rows = Vec::new();
        let out = run_soak(&engine, &spec, |r| rows.push(r.to_json()));
        assert_eq!(out.violation_count(), 0, "{}", out.audit_report().unwrap());
        for v in &out.variants {
            let aud = v.audit.as_ref().expect("audit on");
            assert_eq!(aud.stats.sampled, 12);
            assert_eq!(aud.stats.crosschecks, 0, "no cache, no cross-checks");
            assert_eq!(aud.injected_drop, None);
        }
        assert!(rows.iter().all(|r| r.contains("\"audited\":true")));
        let summary = out.summary_json();
        assert!(summary.contains("\"audit\":{\"sampled\":12,\"crosschecks\":0,\"violations\":0"));
        let prom = out.prometheus();
        assert!(prom.contains("skypeer_audit_sampled_total{variant=\"FTPM\"} 12"), "{prom}");
        assert!(prom.contains("skypeer_audit_violations_total{variant=\"naive\"} 0"), "{prom}");
        assert_eq!(summary, run_soak(&engine, &spec, |_| {}).summary_json(), "deterministic");
        let report = out.audit_report().unwrap();
        assert!(report.contains("audit FTPM: sampled 12, crosschecks 0, violations 0"), "{report}");

        // Cached: shadow checks still pass and every sampled answer also
        // cross-checks against a direct distributed run.
        spec.cache_bytes = Some(4 << 20);
        let cached = run_soak(&engine, &spec, |_| {});
        assert_eq!(cached.violation_count(), 0, "{}", cached.audit_report().unwrap());
        for v in &cached.variants {
            let aud = v.audit.as_ref().unwrap();
            assert_eq!(aud.stats.sampled, 12);
            assert_eq!(aud.stats.crosschecks, 12, "every sampled cached answer cross-checks");
        }
    }

    #[test]
    fn partial_sampling_audits_the_deterministic_subset() {
        let engine = engine();
        let mut spec = small_spec(engine.config().n_superpeers);
        spec.variants = vec![Variant::Ftpm];
        spec.audit = Some(SoakAudit { sample_rate: 0.5, seed: 9, inject_drop_ext: false });
        let mut flags = Vec::new();
        let out =
            run_soak(&engine, &spec, |r| flags.push(r.to_json().contains("\"audited\":true")));
        let aud = out.variants[0].audit.as_ref().unwrap();
        let n = flags.iter().filter(|&&f| f).count();
        assert_eq!(aud.stats.sampled, n as u64);
        assert!(n > 0 && n < 12, "rate 0.5 samples a strict subset: {n}");
        let mut again = Vec::new();
        run_soak(&engine, &spec, |r| again.push(r.to_json().contains("\"audited\":true")));
        assert_eq!(flags, again, "sampling is deterministic");
    }

    #[test]
    fn injected_ext_drop_is_caught_and_named() {
        let engine = engine();
        for backend in BackendKind::ALL {
            let mut spec = small_spec(engine.config().n_superpeers);
            spec.backend = backend;
            spec.variants = vec![Variant::Ftpm];
            spec.telemetry = Some(TelemetrySpec::default());
            spec.audit = Some(SoakAudit { sample_rate: 1.0, seed: 3, inject_drop_ext: true });
            let out = run_soak(&engine, &spec, |_| {});
            let aud = out.variants[0].audit.as_ref().unwrap();
            let victim = aud.injected_drop.expect("drill armed");
            assert!(aud.stats.violations > 0, "the audit must catch the drill on {backend}");
            // The violation names the dropped point with its lineage:
            // origin peer, super-peer, and the queried subspace.
            let hit = aud
                .violations
                .iter()
                .find(|v| v.missing.iter().any(|l| l.id == victim))
                .expect("a violation names the victim");
            let named = hit.missing.iter().find(|l| l.id == victim).unwrap();
            assert!(named.origin.is_some(), "lineage carries the origin peer");
            assert_eq!(named.query_dims, hit.dims);
            let report = out.audit_report().unwrap();
            assert!(report.contains(&format!("drill: dropped #{victim}")), "{report}");
            assert!(report.contains(&format!("#{victim} (peer ")), "{report}");
            // The audit_violations telemetry series recorded the stream.
            let tel = out.variants[0].telemetry.as_ref().unwrap();
            let ts = tel.tsdb.get("audit_violations").expect("audit series present");
            assert_eq!(ts.count(), 12);
            // Summary carries the records; the whole run stays
            // deterministic.
            let summary = out.summary_json();
            assert!(summary.contains(&format!("\"injected_drop\":{victim}")), "{summary}");
            assert!(summary.contains("\"records\":[{\"query\":"), "{summary}");
            assert_eq!(summary, run_soak(&engine, &spec, |_| {}).summary_json());
            // The fault is cleared afterwards: a fresh audited run is
            // clean.
            spec.audit = Some(SoakAudit { sample_rate: 1.0, seed: 3, inject_drop_ext: false });
            assert_eq!(run_soak(&engine, &spec, |_| {}).violation_count(), 0);
        }
    }

    #[test]
    fn table_and_digest_render() {
        let engine = engine();
        let spec = small_spec(engine.config().n_superpeers);
        let out = run_soak(&engine, &spec, |_| {});
        let table = out.render_table();
        assert!(table.contains("p999 ms"));
        assert!(table.lines().count() >= 3);
        let digest = out.worst_digest();
        assert!(digest.contains("worst FTPM: q"));
        assert!(digest.contains("skypeer-cli explain --dims"));
    }
}

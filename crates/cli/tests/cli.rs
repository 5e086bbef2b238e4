//! End-to-end tests of the `skypeer-cli` binary: real process, real
//! stdout, real exit codes.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_skypeer-cli")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn stats_reports_selectivities() {
    let (stdout, _, ok) = run(&["stats", "--peers", "60", "--dim", "5", "--points", "40"]);
    assert!(ok);
    assert!(stdout.contains("SEL_p"));
    assert!(stdout.contains("SEL_sp"));
    assert!(stdout.contains("raw points        : 2400"));
}

#[test]
fn query_returns_exact_count_deterministically() {
    let args = ["query", "--peers", "60", "--dim", "5", "--dims", "0,3", "--variant", "rtpm"];
    let (a, _, ok_a) = run(&args);
    let (b, _, ok_b) = run(&args);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "same flags must give identical output");
    assert!(a.contains("points (exact)"));
}

#[test]
fn workload_prints_all_variants() {
    let (stdout, _, ok) =
        run(&["workload", "--peers", "60", "--dim", "5", "--k", "2", "--queries", "3"]);
    assert!(ok);
    for v in ["FTFM", "FTPM", "RTFM", "RTPM", "naive"] {
        assert!(stdout.contains(v), "missing {v} in:\n{stdout}");
    }
}

#[test]
fn topology_summarizes_graph() {
    let (stdout, _, ok) = run(&["topology", "--superpeers", "25", "--degree", "5"]);
    assert!(ok);
    assert!(stdout.contains("connected   : true"));
    assert!(stdout.contains("degree histogram"));
}

#[test]
fn estimate_prints_theory_table() {
    let (stdout, _, ok) = run(&["estimate", "--n", "1000", "--max-dim", "4"]);
    assert!(ok);
    assert!(stdout.contains("exact E(n,d)"));
    assert!(stdout.lines().count() >= 6);
}

#[test]
fn csv_query_loads_and_answers() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("pts.csv");
    std::fs::write(&file, "a,b\n1,9\n5,5\n9,1\n7,7\n").expect("write csv");
    let (stdout, stderr, ok) = run(&[
        "csv-query",
        "--file",
        file.to_str().expect("utf8 path"),
        "--superpeers",
        "3",
        "--peers-per-superpeer",
        "1",
        "--degree",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("loaded 4 points"), "{stdout}");
    assert!(stdout.contains("3 points"), "the 2-d skyline has 3 points: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_fail_fast() {
    let (_, stderr, ok) = run(&["query", "--peers", "60", "--oops", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --oops"));

    let (_, stderr2, ok2) = run(&["nonsense"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"));

    let (_, stderr3, ok3) = run(&["query", "--variant", "zzz"]);
    assert!(!ok3);
    assert!(stderr3.contains("unknown --variant"));

    // Out-of-range input is an argument error (exit 1) with the message the
    // sibling commands print, never a panic (exit 101) or a silent run.
    let dir = std::env::temp_dir().join(format!("skypeer-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("pts.csv");
    std::fs::write(&file, "a,b\n1,9\n5,5\n9,1\n").expect("write csv");
    let csv = file.to_str().expect("utf8 path");
    let faults = ["faults", "--peers", "40", "--superpeers", "4", "--dim", "4", "--points", "20"];
    let no_network = "need at least one peer and one super-peer";
    let cases: [(Vec<&str>, &str); 4] = [
        ([&faults[..], &["--dims", "0,6"]].concat(), "--dims index out of range for --dim"),
        ([&faults[..], &["--fail", "9"]].concat(), "--fail node out of range"),
        (vec!["csv-query", "--file", csv, "--superpeers", "0"], no_network),
        (vec!["csv-query", "--file", csv, "--peers-per-superpeer", "0"], no_network),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_skypeer-cli"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_command_reports_degradation() {
    let (stdout, _, ok) = run(&[
        "faults",
        "--peers",
        "60",
        "--dim",
        "4",
        "--dims",
        "0,1",
        "--fail",
        "2",
        "--timeout-s",
        "200",
    ]);
    assert!(ok);
    assert!(stdout.contains("healthy"));
    assert!(stdout.contains("degraded"));
}

#[test]
fn trace_reports_metrics_and_critical_path_and_writes_exports() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jsonl = dir.join("q.jsonl");
    let perfetto = dir.join("q.trace.json");
    let (stdout, stderr, ok) = run(&[
        "trace",
        "--peers",
        "60",
        "--dim",
        "5",
        "--dims",
        "0,3",
        "--variant",
        "ftpm",
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--perfetto",
        perfetto.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("messages_sent"), "{stdout}");
    assert!(stdout.contains("per-node work:"), "{stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
    let log = std::fs::read_to_string(&jsonl).expect("jsonl written");
    assert!(log.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "one object per line");
    let trace = std::fs::read_to_string(&perfetto).expect("perfetto written");
    assert!(trace.starts_with("{\"traceEvents\":["), "{}", &trace[..trace.len().min(80)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn routing_flag_selects_spanning_tree() {
    let base = ["query", "--peers", "60", "--dim", "5", "--dims", "0,3"];
    let (flood, _, ok_a) = run(&[&base[..], &["--routing", "flood"]].concat());
    let (tree, _, ok_b) = run(&[&base[..], &["--routing", "tree"]].concat());
    assert!(ok_a && ok_b);
    assert_ne!(flood, tree, "routing mode should change traffic totals");
    let (_, stderr, ok_c) = run(&[&base[..], &["--routing", "carrier-pigeon"]].concat());
    assert!(!ok_c);
    assert!(stderr.contains("unknown --routing"));
}

#[test]
fn explain_renders_every_section_for_all_variants() {
    for variant in ["ftfm", "ftpm", "rtfm", "rtpm", "naive"] {
        let (stdout, stderr, ok) = run(&[
            "explain",
            "--peers",
            "60",
            "--superpeers",
            "6",
            "--dim",
            "5",
            "--points",
            "40",
            "--dims",
            "0,3",
            "--variant",
            variant,
            "--seed",
            "11",
        ]);
        assert!(ok, "{variant} stderr: {stderr}");
        for section in [
            "EXPLAIN skyline",
            "query fan-out",
            "threshold timeline",
            "per-super-peer pruning",
            "link usage vs naive",
            "critical path",
        ] {
            assert!(stdout.contains(section), "{variant}: missing '{section}' in:\n{stdout}");
        }
    }
}

#[test]
fn soak_reports_percentiles_digest_and_slo() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jsonl = dir.join("rows.jsonl");
    let prom = dir.join("soak.prom");
    let (stdout, stderr, ok) = run(&[
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "20",
        "--variants",
        "ftpm,naive",
        "--top-k",
        "4",
        "--slo-p99-ms",
        "100000",
        "--seed",
        "11",
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--prom",
        prom.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("p999 ms"), "{stdout}");
    assert!(stdout.contains("FTPM"), "{stdout}");
    assert!(stdout.contains("naive"), "{stdout}");
    assert!(stdout.contains("worst FTPM: q"), "{stdout}");
    assert!(stdout.contains("skypeer-cli explain --dims"), "{stdout}");
    assert!(stdout.contains("[PASS]"), "{stdout}");
    let rows = std::fs::read_to_string(&jsonl).expect("jsonl written");
    assert_eq!(rows.lines().count(), 40, "one JSONL row per query per variant");
    assert!(rows.lines().all(|l| l.starts_with("{\"variant\":") && l.ends_with('}')));
    let exposition = std::fs::read_to_string(&prom).expect("prom written");
    assert!(exposition.contains("# TYPE skypeer_soak_latency_ns histogram"));
    assert!(exposition.contains("skypeer_soak_latency_ns_bucket{variant=\"FTPM\",le=\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn soak_slo_gate_fails_on_impossible_budget() {
    let (_, stderr, ok) = run(&[
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "5",
        "--variants",
        "ftpm",
        "--slo-p50-ms",
        "0.000001",
        "--gate",
    ]);
    assert!(!ok, "an unmeetable p50 budget must fail the gate");
    assert!(stderr.contains("SLO gate failed for FTPM"), "{stderr}");
}

/// The tentpole acceptance test: a seeded 500-query skewed workload over
/// all five variants must produce a byte-deterministic SoakSummary with
/// p50/p90/p99/p999 per variant. Self-bootstraps like the explain golden:
/// first run writes `tests/goldens/soak_summary.json`, later runs must
/// reproduce it byte for byte.
#[test]
fn soak_summary_json_is_byte_deterministic_and_matches_golden() {
    let args = [
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "500",
        "--seed",
        "11",
        "--workload-seed",
        "3",
        "--k-min",
        "2",
        "--k-max",
        "4",
        "--k-theta",
        "1.1",
        "--initiator-theta",
        "0.8",
        "--json",
    ];
    let (a, stderr, ok_a) = run(&args);
    let (b, _, ok_b) = run(&args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "two fresh processes must emit identical bytes");
    assert!(a.starts_with("{\"workload\":"), "{}", &a[..a.len().min(80)]);
    for variant in ["FTFM", "FTPM", "RTFM", "RTPM", "naive"] {
        assert!(a.contains(&format!("\"variant\":\"{variant}\"")), "missing {variant}");
    }
    for key in ["\"p50\":", "\"p90\":", "\"p99\":", "\"p999\":", "\"worst\":", "\"totals\":"] {
        assert!(a.contains(key), "missing {key}");
    }

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/soak_summary.json");
    if !golden.exists() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("goldens dir");
        std::fs::write(&golden, &a).expect("bootstrap golden");
    }
    let want = std::fs::read_to_string(&golden).expect("golden readable");
    assert_eq!(
        a,
        want,
        "soak --json drifted from {}; if the change is intentional, delete the golden and rerun",
        golden.display()
    );
}

/// Extracts every occurrence of `key` followed by a number from flat
/// deterministic JSON (no nesting-aware parsing needed: the keys probed
/// here are unique within their enclosing objects).
fn json_numbers(s: &str, key: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(p) = rest.find(key) {
        rest = &rest[p + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit() && c != '-' && c != '.' && c != 'e' && c != '+')
            .unwrap_or(rest.len());
        out.push(rest[..end].parse().expect("numeric field"));
        rest = &rest[end..];
    }
    out
}

/// The cache acceptance test: the same seeded 500-query Zipf workload,
/// run with `--cache`, must stay byte-deterministic, hit at least 30% of
/// lookups on every variant (exact + subsumption), and move strictly
/// fewer backbone bytes than the uncached golden run — while this golden
/// pins the exact output next to `soak_summary.json`.
#[test]
fn cached_soak_summary_matches_golden_and_beats_uncached() {
    let args = [
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "500",
        "--seed",
        "11",
        "--workload-seed",
        "3",
        "--k-min",
        "2",
        "--k-max",
        "4",
        "--k-theta",
        "1.1",
        "--initiator-theta",
        "0.8",
        "--cache",
        "--json",
    ];
    let (a, stderr, ok_a) = run(&args);
    let (b, _, ok_b) = run(&args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "cached soak must be byte-deterministic");

    let rates = json_numbers(&a, "\"hit_rate\":");
    assert_eq!(rates.len(), 5, "one cache block per variant:\n{a}");
    for r in &rates {
        assert!(*r >= 0.30, "hit rate {r} below the 30% acceptance floor");
    }

    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let golden = goldens.join("soak_summary_cached.json");
    if !golden.exists() {
        std::fs::create_dir_all(&goldens).expect("goldens dir");
        std::fs::write(&golden, &a).expect("bootstrap golden");
    }
    let want = std::fs::read_to_string(&golden).expect("golden readable");
    assert_eq!(
        a,
        want,
        "cached soak --json drifted from {}; if the change is intentional, delete the golden and rerun",
        golden.display()
    );

    // Bootstrap the uncached golden ourselves if the sibling test has not
    // run yet, so the byte comparison below never races on test order.
    let uncached_golden = goldens.join("soak_summary.json");
    if !uncached_golden.exists() {
        let uncached_args: Vec<&str> = args.iter().copied().filter(|s| *s != "--cache").collect();
        let (u, _, ok) = run(&uncached_args);
        assert!(ok);
        std::fs::write(&uncached_golden, &u).expect("bootstrap uncached golden");
    }
    let uncached = std::fs::read_to_string(&uncached_golden).expect("uncached golden readable");
    let cached_bytes = json_numbers(&a, "\"bytes\":");
    let uncached_bytes = json_numbers(&uncached, "\"bytes\":");
    assert_eq!(cached_bytes.len(), 5, "one totals block per variant");
    assert_eq!(uncached_bytes.len(), 5);
    for (v, (c, u)) in cached_bytes.iter().zip(&uncached_bytes).enumerate() {
        assert!(c < u, "variant #{v}: cached run must move fewer bytes ({c} !< {u})");
    }
}

/// Shared flags for the diff tests' trace captures.
const DIFF_TRACE_FLAGS: [&str; 14] = [
    "trace",
    "--peers",
    "60",
    "--superpeers",
    "6",
    "--dim",
    "5",
    "--points",
    "40",
    "--dims",
    "0,3",
    "--variant",
    "ftpm",
    "--jsonl",
];

fn capture_trace(path: &std::path::Path, extra: &[&str]) {
    let mut args: Vec<&str> = DIFF_TRACE_FLAGS.to_vec();
    let p = path.to_str().unwrap();
    args.push(p);
    args.extend_from_slice(extra);
    let (_, stderr, ok) = run(&args);
    assert!(ok, "trace capture failed: {stderr}");
}

/// The all-zero acceptance criterion: two captures of the same seeded
/// query must attribute no deltas at all, in both human and JSON form —
/// and the JSON form must be byte-identical across processes.
#[test]
fn diff_of_same_seed_traces_is_all_zero() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-diff0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (base, cand) = (dir.join("base.jsonl"), dir.join("cand.jsonl"));
    capture_trace(&base, &[]);
    capture_trace(&cand, &[]);
    let (text, stderr, ok) = run(&["diff", base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(text.contains("all metrics identical"), "{text}");
    let json_args = ["diff", base.to_str().unwrap(), cand.to_str().unwrap(), "--json"];
    let (a, _, ok_a) = run(&json_args);
    let (b, _, ok_b) = run(&json_args);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "diff --json must be byte-deterministic");
    assert!(a.starts_with("{\"kind\":\"trace\",\"attribution\":{\"all_zero\":true,"), "{a}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The perturbation acceptance criterion: bump the latency of one link
/// the query actually uses, and the attribution must name exactly that
/// link as the top `sim_time_ns` contributor. The link is discovered from
/// the baseline capture's first send event, so the test tracks topology
/// changes instead of hard-coding an edge.
#[test]
fn diff_names_perturbed_link_as_top_contributor() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-diffp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (base, pert) = (dir.join("base.jsonl"), dir.join("pert.jsonl"));
    capture_trace(&base, &[]);
    let log = std::fs::read_to_string(&base).expect("baseline capture");
    let first_send = log.lines().find(|l| l.contains("\"type\":\"send\"")).expect("a send event");
    let from = json_numbers(first_send, "\"from\":")[0] as usize;
    let to = json_numbers(first_send, "\"to\":")[0] as usize;
    capture_trace(&pert, &["--perturb-link", &format!("{from}:{to}:50000000")]);

    let (json, stderr, ok) = run(&[
        "diff",
        base.to_str().unwrap(),
        pert.to_str().unwrap(),
        "--json",
        "--what-if-factor",
        "0.5",
    ]);
    assert!(ok, "stderr: {stderr}");
    let sim = json.split("\"metric\":\"sim_time_ns\"").nth(1).expect("sim_time_ns metric");
    let top_key = sim.split("\"key\":\"").nth(1).and_then(|s| s.split('"').next());
    assert_eq!(
        top_key,
        Some(format!("SP{from}->SP{to}").as_str()),
        "perturbed link must rank first for sim_time_ns:\n{json}"
    );
    assert!(json.contains("\"what_if\":["), "{json}");
    assert!(json.contains("\"predicted_saving_ns\":"), "{json}");

    // Human form names the link too, and the factor-1.0 what-if predicts
    // exactly zero saving for every intervention.
    let (text, _, ok) =
        run(&["diff", base.to_str().unwrap(), pert.to_str().unwrap(), "--what-if-factor", "1"]);
    assert!(ok);
    assert!(text.contains(&format!("SP{from}->SP{to}")), "{text}");
    let (unity, _, ok) = run(&[
        "diff",
        base.to_str().unwrap(),
        pert.to_str().unwrap(),
        "--json",
        "--what-if-factor",
        "1",
    ]);
    assert!(ok);
    let savings = json_numbers(&unity, "\"predicted_saving_ns\":");
    assert!(!savings.is_empty());
    for saving in savings {
        assert_eq!(saving, 0.0, "factor 1.0 must predict zero saving:\n{unity}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Soak-summary diffing, golden-pinned: diffing the two committed soak
/// goldens (uncached vs cached) is itself byte-deterministic and matches
/// `tests/goldens/soak_diff.json`. Self-bootstraps like the other
/// goldens.
#[test]
fn soak_diff_of_pinned_summaries_matches_golden() {
    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let uncached = goldens.join("soak_summary.json");
    let cached = goldens.join("soak_summary_cached.json");
    assert!(
        uncached.exists() && cached.exists(),
        "soak goldens missing; run the soak golden tests first"
    );
    let args = ["diff", uncached.to_str().unwrap(), cached.to_str().unwrap(), "--json"];
    let (a, stderr, ok_a) = run(&args);
    let (b, _, ok_b) = run(&args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "soak diff --json must be byte-deterministic");
    assert!(a.starts_with("{\"kind\":\"soak\",\"diff\":{\"all_zero\":false,"), "{a}");
    for key in
        ["\"variant\":\"FTPM\"", "\"cache_hit_rate\":", "\"slo_margins\":", "\"stat\":\"p99\""]
    {
        assert!(a.contains(key), "missing {key} in:\n{a}");
    }
    // A summary diffed against itself is all-zero.
    let (same, _, ok) = run(&["diff", uncached.to_str().unwrap(), uncached.to_str().unwrap()]);
    assert!(ok);
    assert!(same.contains("no drift"), "{same}");

    let golden = goldens.join("soak_diff.json");
    if !golden.exists() {
        std::fs::write(&golden, &a).expect("bootstrap golden");
    }
    let want = std::fs::read_to_string(&golden).expect("golden readable");
    assert_eq!(
        a,
        want,
        "soak diff --json drifted from {}; if the change is intentional, delete the golden and rerun",
        golden.display()
    );
}

/// Bad diff invocations fail fast with a useful message.
#[test]
fn diff_rejects_bad_inputs() {
    let (_, stderr, ok) = run(&["diff", "/nonexistent-base"]);
    assert!(!ok);
    assert!(stderr.contains("exactly two capture paths"), "{stderr}");

    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let summary = goldens.join("soak_summary.json");
    let dir = std::env::temp_dir().join(format!("skypeer-cli-diffbad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.jsonl");
    capture_trace(&trace, &[]);
    let (_, stderr, ok) = run(&["diff", summary.to_str().unwrap(), trace.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("must be the same kind"), "{stderr}");

    let junk = dir.join("junk.txt");
    std::fs::write(&junk, "hello\n").expect("write junk");
    let (_, stderr, ok) = run(&["diff", junk.to_str().unwrap(), junk.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not a capture"), "{stderr}");

    let (_, stderr, ok) = run(&["trace", "--peers", "60", "--perturb-link", "0:zap:5"]);
    assert!(!ok);
    assert!(stderr.contains("perturb-link"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden test for the machine-readable explain output. Self-bootstraps:
/// the first run writes `tests/goldens/explain_rtpm.json`; every later
/// run must reproduce it byte for byte (the DES is deterministic and the
/// JSON builder is byte-stable).
#[test]
fn explain_json_is_byte_deterministic_and_matches_golden() {
    let args = [
        "explain",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--dims",
        "0,3",
        "--variant",
        "rtpm",
        "--seed",
        "11",
        "--json",
    ];
    let (a, stderr, ok_a) = run(&args);
    let (b, _, ok_b) = run(&args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "two fresh processes must emit identical bytes");
    assert!(a.starts_with("{\"query\":"), "{}", &a[..a.len().min(80)]);
    for key in
        ["\"thresholds\":", "\"threshold_monotone\":true", "\"pruning\":", "\"critical_path\":"]
    {
        assert!(a.contains(key), "missing {key}");
    }

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/explain_rtpm.json");
    if !golden.exists() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("goldens dir");
        std::fs::write(&golden, &a).expect("bootstrap golden");
    }
    let want = std::fs::read_to_string(&golden).expect("golden readable");
    assert_eq!(
        a,
        want,
        "explain --json drifted from {}; if the change is intentional, delete the golden and rerun",
        golden.display()
    );
}

/// Golden test for the CPU profiler's deterministic exports: under
/// `--clock logical` both the JSON calltree and the folded stacks are
/// byte-stable for a pinned figure. Self-bootstraps like the explain
/// golden.
#[test]
fn profile_logical_exports_are_byte_deterministic_and_match_goldens() {
    let json_args = ["profile", "--figure", "fig3b_d8", "--clock", "logical", "--json"];
    let (a, stderr, ok_a) = run(&json_args);
    let (b, _, ok_b) = run(&json_args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "two fresh processes must emit identical bytes");
    assert!(a.starts_with("{\"clock\":\"logical\""), "{}", &a[..a.len().min(80)]);
    for key in ["\"path\":\"des::run\"", "skyline::threshold_skyline", "rtree::window"] {
        assert!(a.contains(key), "missing {key} in:\n{a}");
    }

    let dir = std::env::temp_dir().join(format!("skypeer-prof-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let folded_path = dir.join("fig3b.folded");
    let (stdout, stderr, ok) = run(&[
        "profile",
        "--figure",
        "fig3b_d8",
        "--clock",
        "logical",
        "--folded",
        folded_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("calltree profile (logical clock)"), "{stdout}");
    let folded = std::fs::read_to_string(&folded_path).expect("folded written");
    std::fs::remove_dir_all(&dir).ok();
    assert!(folded.lines().all(|l| l.rsplit_once(' ').is_some()), "bad folded lines:\n{folded}");

    for (name, got) in
        [("profile_fig3b_logical.json", &a), ("profile_fig3b_logical.folded", &folded)]
    {
        let golden =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
        if !golden.exists() {
            std::fs::create_dir_all(golden.parent().unwrap()).expect("goldens dir");
            std::fs::write(&golden, got).expect("bootstrap golden");
        }
        let want = std::fs::read_to_string(&golden).expect("golden readable");
        assert_eq!(
            got,
            &want,
            "profile export drifted from {}; if intentional, delete the golden and rerun",
            golden.display()
        );
    }
}

/// A synthetic telemetry history with a latency spike at ticks 30..=34:
/// enough quiet baseline for the detector to warm up, then an excursion
/// two orders of magnitude above it, then recovery — so the replay golden
/// pins an opened *and* resolved incident.
fn synth_history() -> String {
    let mut s = String::new();
    for t in 0u64..40 {
        let lat: f64 = if (30..=34).contains(&t) { 9000.0 } else { 100.0 + (t % 4) as f64 };
        s.push_str(&format!("{{\"tick\":{t},\"series\":\"latency_ns\",\"value\":{lat:?}}}\n"));
        s.push_str(&format!("{{\"tick\":{t},\"series\":\"queue_depth\",\"value\":3.0}}\n"));
        let bytes = (400 + t * 2) as f64;
        s.push_str(&format!("{{\"tick\":{t},\"series\":\"SP0/bytes_out\",\"value\":{bytes:?}}}\n"));
        s.push_str(&format!("{{\"tick\":{t},\"series\":\"SP1/bytes_out\",\"value\":380.0}}\n"));
    }
    s
}

/// The replay acceptance test: `top --replay` over a recorded history is
/// byte-deterministic in both frame and `--json` form, detects the
/// embedded spike, and matches the committed goldens. The history file
/// keeps a fixed *name* (the title embeds the file name, never the
/// directory) so the render is location-independent.
#[test]
fn top_replay_render_and_tsdb_json_match_goldens() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-top-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("replay.history.jsonl");
    std::fs::write(&file, synth_history()).expect("write history");

    let frame_args = ["top", "--replay", file.to_str().unwrap()];
    let (a, stderr, ok_a) = run(&frame_args);
    let (b, _, ok_b) = run(&frame_args);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "replay frame must be byte-deterministic");
    assert!(a.starts_with("skypeer top — replay replay.history.jsonl"), "{a}");
    assert!(a.contains("!! INCIDENT latency_ns: onset @30"), "{a}");
    assert!(a.contains("resolved @35"), "{a}");
    assert!(a.contains("SP0"), "node table missing:\n{a}");
    assert!(!a.contains('\x1b'), "stdout frame must carry no ANSI escapes");

    let json_args = ["top", "--replay", file.to_str().unwrap(), "--json"];
    let (j, stderr, ok_j) = run(&json_args);
    let (j2, _, ok_j2) = run(&json_args);
    assert!(ok_j && ok_j2, "stderr: {stderr}");
    assert_eq!(j, j2, "replay --json must be byte-deterministic");
    assert!(j.starts_with("{\"tsdb\":{\"series\":["), "{}", &j[..j.len().min(80)]);
    assert!(j.contains("\"incidents\":[{\"series\":\"latency_ns\",\"onset_tick\":30"), "{j}");

    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for (name, got) in [("top_replay.txt", &a), ("top_replay_tsdb.json", &j)] {
        let golden = goldens.join(name);
        if !golden.exists() {
            std::fs::create_dir_all(&goldens).expect("goldens dir");
            std::fs::write(&golden, got).expect("bootstrap golden");
        }
        let want = std::fs::read_to_string(&golden).expect("golden readable");
        assert_eq!(
            got,
            &want,
            "top --replay drifted from {}; if intentional, delete the golden and rerun",
            golden.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Shared network/workload flags for the incident-gate soak runs.
const INCIDENT_SOAK_FLAGS: [&str; 16] = [
    "soak",
    "--peers",
    "60",
    "--superpeers",
    "6",
    "--dim",
    "5",
    "--points",
    "40",
    "--seed",
    "11",
    "--queries",
    "60",
    "--variants",
    "ftpm",
    "--fail-on-incident",
];

/// The anomaly acceptance test, both ways: the same-seed baseline soak
/// must report zero incidents and pass the `--fail-on-incident` gate,
/// while an identical run with one link's latency inflated after query
/// 40 must flag an incident on a latency/queue series with onset at or
/// after the injection — and fail the gate. The baseline's history file
/// round-trips through `top --replay`.
#[test]
fn soak_incident_gate_is_quiet_on_baseline_and_fires_on_perturbation() {
    let dir = std::env::temp_dir().join(format!("skypeer-cli-incid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let history = dir.join("baseline.history.jsonl");

    let mut base: Vec<&str> = INCIDENT_SOAK_FLAGS.to_vec();
    base.extend_from_slice(&["--history-out", history.to_str().unwrap()]);
    let (stdout, stderr, ok) = run(&base);
    assert!(ok, "baseline must pass the incident gate: {stderr}");
    assert!(stdout.contains("incidents: 0"), "{stdout}");
    let text = std::fs::read_to_string(&history).expect("history written");
    assert!(text.lines().count() >= 60 * 5, "one line per series per query:\n{stdout}");
    let (frame, stderr, ok) = run(&["top", "--replay", history.to_str().unwrap()]);
    assert!(ok, "replaying the soak history: {stderr}");
    assert!(frame.contains("status: OK — no incidents"), "{frame}");
    assert!(frame.contains("FTPM/latency_ns"), "{frame}");

    let mut pert: Vec<&str> = INCIDENT_SOAK_FLAGS.to_vec();
    pert.extend_from_slice(&["--perturb-link", "2:3:5000000000", "--perturb-after", "40"]);
    let (stdout, stderr, ok) = run(&pert);
    assert!(!ok, "perturbed run must fail the incident gate");
    assert!(stderr.contains("incident gate failed"), "{stderr}");
    let incident = stdout
        .lines()
        .find(|l| l.contains("latency_ns:") || l.contains("queue_depth:"))
        .unwrap_or_else(|| panic!("no latency/queue incident in:\n{stdout}"));
    let onset: u64 = incident
        .split("onset @")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable incident line: {incident}"));
    assert!(onset >= 40, "incident onset {onset} precedes the injection at query 40");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--quiet` only silences the live stderr dashboard: deterministic
/// stdout stays byte-identical with and without the flag, and telemetry
/// flag combinations that make no sense fail fast.
#[test]
fn soak_quiet_keeps_stdout_identical_and_bad_telemetry_flags_fail() {
    let args = [
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--seed",
        "11",
        "--queries",
        "10",
        "--variants",
        "ftpm",
        "--json",
    ];
    let (loud, stderr, ok_a) = run(&args);
    let (quiet, _, ok_b) = run(&[&args[..], &["--quiet"]].concat());
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(loud, quiet, "--quiet must not change stdout");

    let (_, stderr, ok) = run(&[&args[..], &["--perturb-after", "5"]].concat());
    assert!(!ok);
    assert!(stderr.contains("--perturb-after requires --perturb-link"), "{stderr}");

    let (_, stderr, ok) =
        run(&[&args[..], &["--cache", "--perturb-link", "2:3:5000000000"]].concat());
    assert!(!ok);
    assert!(stderr.contains("incompatible"), "{stderr}");

    let (_, stderr, ok) = run(&["top", "--replay", "/nonexistent-history"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

/// `--overhead` reports the instrumented/baseline ratio; advisory by
/// default (exit 0 even though some overhead always exists).
#[test]
fn profile_overhead_reports_ratio() {
    let (stdout, stderr, ok) =
        run(&["profile", "--figure", "fig3d_k2", "--overhead", "--repeat", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("observability overhead: figure fig3d_k2"), "{stdout}");
    assert!(stdout.contains("ratio "), "{stdout}");
    assert!(stdout.contains("scope enters"), "{stdout}");
}

/// `--figure` resolution is shared: every subcommand that accepts it must
/// emit the exact same error text for an unknown figure (historically
/// each command re-parsed its inputs slightly differently).
#[test]
fn bad_figure_error_is_identical_across_subcommands() {
    let mut errors = Vec::new();
    for cmd in ["query", "trace", "explain", "profile"] {
        let (_, stderr, ok) = run(&[cmd, "--figure", "nope"]);
        assert!(!ok, "{cmd} must fail on an unknown figure");
        assert!(
            stderr.contains("unknown figure 'nope' (known: fig3b_d8, fig3d_k2, fig4c_deg6)"),
            "{cmd} stderr: {stderr}"
        );
        errors.push(stderr);
    }
    assert!(errors.windows(2).all(|w| w[0] == w[1]), "error text diverged: {errors:?}");
}

/// Shared network flags for the `why` / `why-not` lineage tests: a small
/// seeded net whose point roles (in-skyline, dominated, merge-pruned) are
/// pinned by the goldens below.
const LINEAGE_NET: &[&str] =
    &["--peers", "12", "--superpeers", "4", "--dim", "4", "--points", "25", "--seed", "21"];

/// `why` / `why-not` are byte-deterministic and match self-bootstrapping
/// goldens: first run writes `tests/goldens/why_97.txt` /
/// `whynot_18.json`, later runs must reproduce them byte for byte.
#[test]
fn why_and_why_not_are_byte_deterministic_and_match_goldens() {
    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    std::fs::create_dir_all(&goldens).expect("goldens dir");
    let pin = |name: &str, got: &str| {
        let golden = goldens.join(name);
        if !golden.exists() {
            std::fs::write(&golden, got).expect("bootstrap golden");
        }
        let want = std::fs::read_to_string(&golden).expect("golden readable");
        assert_eq!(
            got, want,
            "{name} drifted; if the change is intentional, delete the golden and rerun"
        );
    };

    // A survivor: origin, store membership, in-skyline verdict.
    let why_args = [&["why", "97"], LINEAGE_NET, &["--dims", "0,2"]].concat();
    let (a, stderr, ok) = run(&why_args);
    let (b, _, ok_b) = run(&why_args);
    assert!(ok && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "why must be byte-deterministic");
    assert!(a.contains("verdict   : in the subspace skyline of {0,2}"), "{a}");
    assert!(a.contains("ext-store : present in"), "{a}");
    pin("why_97.txt", &a);

    // A merge-pruned point: the JSON form names the ext-dominance witness.
    let whynot_args = [&["why-not", "18"], LINEAGE_NET, &["--dims", "0,2", "--json"]].concat();
    let (j, stderr, ok) = run(&whynot_args);
    let (j2, _, ok2) = run(&whynot_args);
    assert!(ok && ok2, "stderr: {stderr}");
    assert_eq!(j, j2, "why-not --json must be byte-deterministic");
    assert!(j.contains("\"stage\":\"pruned-at-super-peer\""), "{j}");
    assert!(j.contains("\"dominance\":\"extended\""), "{j}");
    pin("whynot_18.json", &j);

    // The two commands redirect to each other when the point landed on
    // the other side, and a query-time loser names its witness.
    let (redirect, _, ok) = run(&[&["why-not", "97"], LINEAGE_NET, &["--dims", "0,2"]].concat());
    assert!(ok);
    assert!(redirect.contains("see `why 97`"), "{redirect}");
    let (dominated, _, ok) = run(&[&["why", "17"], LINEAGE_NET, &["--dims", "0,2"]].concat());
    assert!(ok);
    assert!(dominated.contains("verdict   : dominated on {0,2}"), "{dominated}");
    assert!(dominated.contains("see `why-not 17`"), "{dominated}");

    // An id outside the dataset is explained, not an error.
    let (missing, _, ok) = run(&[&["why-not", "99999"], LINEAGE_NET].concat());
    assert!(ok);
    assert!(missing.contains("not generated"), "{missing}");
}

#[test]
fn why_rejects_bad_inputs() {
    let (_, stderr, ok) = run(&["why"]);
    assert!(!ok);
    assert!(stderr.contains("why needs exactly one point id"), "{stderr}");
    let (_, stderr, ok) = run(&[&["why", "x"], LINEAGE_NET].concat());
    assert!(!ok);
    assert!(stderr.contains("bad point id 'x'"), "{stderr}");
}

/// `--backend` parsing is shared: every subcommand that accepts it must
/// emit the exact same (pinned) error text for an unknown backend.
#[test]
fn bad_backend_error_is_identical_across_subcommands() {
    let mut errors = Vec::new();
    for cmd in ["query", "trace", "explain", "soak"] {
        let (_, stderr, ok) = run(&[
            cmd,
            "--peers",
            "12",
            "--superpeers",
            "4",
            "--dim",
            "4",
            "--points",
            "10",
            "--backend",
            "zzz",
        ]);
        assert!(!ok, "{cmd} must fail on an unknown backend");
        assert!(
            stderr.contains("unknown --backend 'zzz' (expected skypeer|sampling)"),
            "{cmd} stderr: {stderr}"
        );
        errors.push(stderr);
    }
    assert!(errors.windows(2).all(|w| w[0] == w[1]), "error text diverged: {errors:?}");
}

/// Backend-off byte-determinism plus the sampling backend's observable
/// behaviour: `--backend skypeer` changes nothing, `--backend sampling`
/// reports itself (two rounds) and returns the identical exact answer,
/// `explain` rejects it honestly, and sampling×cache fails fast on soak.
#[test]
fn backend_flag_default_is_unchanged_and_sampling_is_exact() {
    let base = ["query", "--peers", "60", "--dim", "5", "--dims", "0,3"];
    let (plain, _, ok1) = run(&base);
    let (sky, _, ok2) = run(&[&base[..], &["--backend", "skypeer"]].concat());
    assert!(ok1 && ok2);
    assert_eq!(plain, sky, "--backend skypeer must not change a byte of the default output");

    let (smp, stderr, ok3) = run(&[&base[..], &["--backend", "sampling"]].concat());
    assert!(ok3, "stderr: {stderr}");
    assert!(smp.contains("backend   : sampling (2 rounds)"), "{smp}");
    let result_line = |s: &str| {
        s.lines().find(|l| l.starts_with("result")).map(str::to_string).expect("result line")
    };
    assert_eq!(result_line(&plain), result_line(&smp), "backends must agree on the answer");

    let (tr, stderr, ok) =
        run(&["trace", "--peers", "60", "--dim", "5", "--dims", "0,3", "--backend", "sampling"]);
    assert!(ok, "stderr: {stderr}");
    assert!(tr.contains("backend   : sampling (2 rounds)"), "{tr}");
    assert!(tr.contains("critical path"), "{tr}");

    let (_, stderr, ok) = run(&["explain", "--peers", "60", "--dim", "5", "--backend", "sampling"]);
    assert!(!ok);
    assert!(stderr.contains("explain supports only the skypeer backend"), "{stderr}");

    let (_, stderr, ok) = run(&[
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "2",
        "--backend",
        "sampling",
        "--cache",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--backend sampling and --cache are incompatible"), "{stderr}");
}

/// The head-to-head acceptance test: `compare` runs every pinned figure
/// under both backends, the report is byte-deterministic and matches the
/// committed golden, and the sampling backend wins on rounds (constant 2)
/// in every figure. Self-bootstraps like the other goldens.
#[test]
fn compare_backends_matches_golden_and_sampling_wins_on_rounds() {
    let (a, stderr, ok_a) = run(&["compare"]);
    let (b, _, ok_b) = run(&["compare"]);
    assert!(ok_a && ok_b, "stderr: {stderr}");
    assert_eq!(a, b, "compare must be byte-deterministic");
    for fig in ["fig3b_d8", "fig3d_k2", "fig4c_deg6"] {
        assert!(a.contains(&format!("== {fig}:")), "missing {fig} in:\n{a}");
    }
    assert!(a.contains("answers agree"), "{a}");
    let rounds_rows: Vec<&str> = a.lines().filter(|l| l.starts_with("rounds")).collect();
    assert_eq!(rounds_rows.len(), 3, "one rounds row per figure:\n{a}");
    for row in &rounds_rows {
        assert!(row.trim_end().ends_with("sampling"), "sampling must win on rounds: {row}");
    }

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/compare_backends.txt");
    if !golden.exists() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("goldens dir");
        std::fs::write(&golden, &a).expect("bootstrap golden");
    }
    let want = std::fs::read_to_string(&golden).expect("golden readable");
    assert_eq!(
        a,
        want,
        "compare drifted from {}; if the change is intentional, delete the golden and rerun",
        golden.display()
    );

    // Machine form: one figure, winners named per metric.
    let (j, stderr, ok) = run(&["compare", "--figure", "fig3b_d8", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(j.starts_with("[{\"figure\":\"fig3b_d8\""), "{j}");
    assert!(j.contains("\"winners\":{\"rounds\":\"sampling\""), "{j}");
    assert!(j.contains("\"backend\":\"skypeer\"") && j.contains("\"backend\":\"sampling\""), "{j}");

    // Figure resolution shares the pinned error text.
    let (_, stderr, ok) = run(&["compare", "--figure", "nope"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown figure 'nope' (known: fig3b_d8, fig3d_k2, fig4c_deg6)"),
        "{stderr}"
    );
}

/// The audited soak: a clean run reports zero violations and passes the
/// gate; arming the ext-skyline drop drill is caught, named, and fails
/// `--fail-on-violation` with a nonzero exit.
#[test]
fn soak_audit_reports_clean_and_gates_on_injection() {
    let base = [
        "soak",
        "--peers",
        "60",
        "--superpeers",
        "6",
        "--dim",
        "5",
        "--points",
        "40",
        "--queries",
        "20",
        "--variants",
        "ftpm",
        "--seed",
        "11",
        "--audit-sample",
        "1",
        "--fail-on-violation",
    ];
    let (stdout, stderr, ok) = run(&base);
    assert!(ok, "a healthy engine must audit clean: {stderr}");
    assert!(stdout.contains("audit FTPM: sampled 20, crosschecks 0, violations 0"), "{stdout}");

    let (stdout, stderr, ok) = run(&[&base[..], &["--inject-drop-ext"]].concat());
    assert!(!ok, "the injected fault must fail the gate");
    assert!(stderr.contains("audit gate failed"), "{stderr}");
    assert!(stdout.contains("drill: dropped #"), "{stdout}");
    assert!(stdout.contains("shadow mismatch - missing [#"), "{stdout}");

    let (_, stderr, ok) = run(&[
        "soak",
        "--queries",
        "2",
        "--peers",
        "12",
        "--superpeers",
        "4",
        "--dim",
        "4",
        "--points",
        "10",
        "--fail-on-violation",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--fail-on-violation requires --audit-sample"), "{stderr}");
}

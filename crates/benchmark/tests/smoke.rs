//! Smoke test: each workload at a tiny size, checked against the metric
//! lists of `BENCHMARK.json`. The real repetition counts and sizes are
//! fixed only by `BENCHMARK.json`'s command and `run_workload`.

use std::path::PathBuf;

use elc_benchmark::json::Json;
use elc_benchmark::station::Station;
use elc_benchmark::{
    per_layer_names, replicate, report, result_line, station, Metric, Outcome, Plan, END_TO_END,
    WORKLOADS,
};
use elc_simcore::time::SimDuration;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {list}"))
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The end-to-end metrics of a run, checked against `BENCHMARK.json`,
/// with no failed operation.
fn assert_reports_end_to_end(outcome: &Outcome) {
    assert_eq!(outcome.runs.failed, 0, "{:?}", outcome.runs.errors);
    assert!(outcome.runs.attempted >= 1);
    let metrics = outcome.end_to_end().unwrap();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, listed(&benchmark_json(), "end_to_end"));
    for m in &metrics {
        assert!(m.value > 0.0, "{} must never be 0", m.name);
    }
    let line = Json::parse(&result_line(
        outcome.runs.attempted,
        outcome.runs.failed,
        &metrics,
    ))
    .unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let doc = benchmark_json();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| ((*n).to_string(), (*w).to_string()))
        .collect();
    assert_eq!(workloads, ours);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
}

#[test]
fn report_one_pass_matches_the_goldens() {
    let outcome = report::run(report::GOLDEN_SEED, &Plan::once(false)).unwrap();
    assert_eq!(outcome.runs.attempted, 1);
    assert_reports_end_to_end(&outcome);
}

#[test]
fn replicate_e19_times_eight() {
    let outcome = replicate::run(42, &[("e19", 8)], 2, &Plan::once(false)).unwrap();
    assert_reports_end_to_end(&outcome);
    let eff = outcome
        .layer
        .iter()
        .find(|m| m.name == "runner.efficiency.e19")
        .unwrap();
    assert!(eff.value > 0.0 && eff.value <= 1.0 + 1e-9, "{}", eff.value);
}

fn engine_counts(outcome: &Outcome) -> Vec<Metric> {
    outcome
        .layer
        .iter()
        .filter(|m| m.name.starts_with("fluid.engine.") || m.name == "simcore.sim.executed")
        .cloned()
        .collect()
}

#[test]
fn exam_overload_traced_and_untraced_agree() {
    // Five fluid ticks, the switch, then event fidelity.
    let short = Station {
        horizon: SimDuration::from_mins(30),
        ..station::EXAM_OVERLOAD
    };
    let plain = station::run(7, &short, &Plan::once(false)).unwrap();
    assert_reports_end_to_end(&plain);
    let traced = station::run(7, &short, &Plan::once(true)).unwrap();
    assert_eq!(traced.runs.failed, 0, "{:?}", traced.runs.errors);
    let counts = engine_counts(&plain);
    assert_eq!(counts.len(), 8);
    assert_eq!(counts, engine_counts(&traced));
    // The traced run prints every per-layer metric, and its replay
    // attributes the engine's wall time to layer calls.
    let layer = traced.per_layer(50.0);
    let names: Vec<&str> = layer.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, expected);
    let pct = |name: &str| layer.iter().find(|m| m.name == name).unwrap().value;
    assert!(pct("simcore.sim.dispatch_pct") > 0.0);
    let shares: f64 = [
        "bench.op", "core", "analysis", "runner", "fluid", "elearn", "simcore",
    ]
    .iter()
    .map(|l| pct(&format!("{l}_pct")))
    .sum();
    assert!(
        (shares - 100.0).abs() < 1e-6,
        "layer shares sum to {shares}"
    );
}

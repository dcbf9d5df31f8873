//! Smoke runs of every workload: tiny budgets, every output check on.

use mapbench::plan::{Effort, Workload};
use mapbench::{run, Options, Report};

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        effort: Effort::Smoke,
    })
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_passes_every_output_check() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = smoke(w, trace);
            assert!(report.attempted > 0, "{}", w.name());
            assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.lines);
            assert!(report.to_json().starts_with("{\"correct\": true"));
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn runs_print_exactly_the_declared_metrics() {
    let report = smoke(Workload::WarmStream, false);
    assert_eq!(names(&report), declared("end_to_end"));
    let traced = smoke(Workload::WarmStream, true);
    assert_eq!(names(&traced), declared("per_layer"));
}

#[test]
fn the_digest_repeats_for_a_seed() {
    let digest = |r: &Report| {
        r.lines
            .iter()
            .find(|l| l.starts_with("digest "))
            .cloned()
            .expect("a digest line")
    };
    let a = smoke(Workload::LargeMesh, false);
    let b = smoke(Workload::LargeMesh, false);
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn traced_shares_sum_to_one() {
    let report = smoke(Workload::WarmStream, true);
    let total: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name.ends_with(".share") || m.name == "engine.other_share")
        .map(|m| m.value)
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    let warm = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    assert!(warm("warm.exact_hits") > 0.0);
    let paper = smoke(Workload::PaperDse, true);
    assert!(paper
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("warm."))
        .all(|m| m.value == 0.0));
}

//! Quick self-test of the benchmark: every workload runs briefly, traced
//! and untraced, and must print every metric `BENCHMARK.json` names, with
//! its unit; a deliberately corrupted oracle must turn into failed ops.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use masked_spgemm_repro::rt::json::{self, Value};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list in `BENCHMARK.json`.
fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every workload the benchmark runs: the ones `BENCHMARK.json` gates on,
/// and `service-tenants`, which runs on demand only.
fn workloads(spec: &Value) -> Vec<String> {
    let all = ["oneshot-mix", "analytics-iter", "service-tenants"];
    let gated = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list");
    for w in gated {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        assert!(
            all.contains(&name),
            "BENCHMARK.json names unknown workload {name}"
        );
    }
    all.map(String::from).to_vec()
}

/// Run the benchmark for one second; returns its exit status and the
/// parsed last line of its standard output, if any.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
    (out.status.success(), last)
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("{key} is a number"))
}

fn check_metrics(result: &Value, want: &[(String, String)], context: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let wanted: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, wanted,
        "{context}: metric names differ from BENCHMARK.json"
    );
    for ((name, m), (_, unit)) in metrics.iter().zip(want) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{context}: {name}"
        );
        let v = num(m, "value");
        assert!(v.is_finite(), "{context}: {name} = {v}");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    for w in workloads(&spec) {
        let (ok, result) = run(&w, false, &[]);
        let result = result.expect("a result line");
        assert!(ok, "{w}: non-zero exit");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(num(&result, "failed"), 0.0, "{w}");
        assert!(num(&result, "attempted") >= 1.0, "{w}");
        check_metrics(&result, &listed(&spec, "end_to_end"), &w);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        assert!(
            metrics.iter().all(|(_, m)| num(m, "value") > 0.0),
            "{w}: an end-to-end metric is 0"
        );

        let (ok, traced) = run(&w, true, &[]);
        let traced = traced.expect("a traced result line");
        assert!(ok, "{w} traced: non-zero exit");
        assert_eq!(
            traced.get("correct"),
            Some(&Value::Bool(true)),
            "{w} traced"
        );
        check_metrics(&traced, &listed(&spec, "per_layer"), &format!("{w} traced"));
    }
}

#[test]
fn a_corrupted_oracle_counts_failed_ops() {
    for w in workloads(&spec()) {
        let (_, result) = run(&w, false, &["--corrupt-oracle"]);
        let result = result.expect("a result line");
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)), "{w}");
        assert!(num(&result, "failed") >= 1.0, "{w}: no failed op");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, result) = run("no-such-workload", false, &[]);
    assert!(!ok && result.is_none());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .output()
        .expect("starts");
    assert!(!out.status.success() && out.stdout.is_empty());
}

//! The benchmark's own tests: tiny-input runs of every workload, with
//! tracing off and on, checked against `BENCHMARK.json`, plus the
//! self-test of the correctness check.

use mc_json::Json;
use std::path::PathBuf;
use std::process::Command;

fn bench_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(key: &str) -> Vec<(String, String)> {
    bench_json()
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    bench_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark on smoke inputs in its own scratch directory and
/// returns the parsed result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}-{}",
        u8::from(trace),
        extra.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert!(
        !dir.join(".bench_work").exists(),
        "{workload} left its scratch files behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Checks the result's shape and that its metric names and units are
/// exactly the declared ones, in order.
fn check_shape(result: &Json, metrics_key: &str) {
    let Json::Object(fields) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
            (name.clone(), unit)
        })
        .collect();
    assert_eq!(printed, declared(metrics_key));
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn workload_names_match_benchmark_json() {
    assert_eq!(workloads(), ["seed_batch", "seed_edit", "fleet_batch"]);
}

#[test]
fn every_workload_prints_the_end_to_end_metrics_and_is_correct() {
    for w in workloads() {
        let result = run(&w, false, &[]);
        check_shape(&result, "end_to_end");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0), "{w}");
        for (name, _) in declared("end_to_end") {
            assert!(value(&result, &name) > 0.0, "{w}: {name} is 0");
        }
    }
}

#[test]
fn every_workload_traces_its_layers() {
    for w in workloads() {
        let result = run(&w, true, &[]);
        check_shape(&result, "per_layer");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert!(value(&result, "trace.coverage") >= 0.90, "{w}: coverage");
        assert!(value(&result, "trace.overhead") > 0.0, "{w}: overhead");
    }
}

#[test]
fn a_tampered_reference_counts_as_an_error() {
    for w in workloads() {
        let result = run(&w, false, &["--tamper-reference"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
        let failed = result.get("failed").and_then(Json::as_i64).unwrap();
        let attempted = result.get("attempted").and_then(Json::as_i64).unwrap();
        assert!(
            failed > 0 && failed <= attempted,
            "{w}: error_rate must exceed 0"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonesuch"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

//! Runs the harness in `--quick` mode, untraced and traced, and holds
//! its output against `BENCHMARK.json`: every declared metric is emitted
//! exactly once per workload with its declared unit, nothing undeclared
//! is emitted, every name is well-formed, and no operation fails.

use naspipe_obs::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn members(value: &JsonValue) -> &[(String, JsonValue)] {
    match value {
        JsonValue::Obj(pairs) => pairs,
        _ => &[],
    }
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string {key}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Runs every workload in quick mode and returns the parsed results file.
fn quick(trace: &str) -> JsonValue {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out: PathBuf = package
        .join("out")
        .join(format!("test-quick-trace{trace}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_naspipe-benchmark"))
        .args(["--quick", "--trace", trace, "--out"])
        .arg(&out)
        .env("CARGO_MANIFEST_DIR", package)
        .output()
        .expect("start the harness");
    assert!(
        run.status.success(),
        "quick run (trace {trace}) failed:\n{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let results = std::fs::read_to_string(&out).expect("results file");
    let _ = std::fs::remove_file(&out);
    parse_json(&results).expect("results are JSON")
}

fn check(contract: &JsonValue, section: &str, results: &JsonValue) {
    let declared = contract
        .get(section)
        .and_then(JsonValue::as_arr)
        .expect("metric list");
    let runs = results
        .get("runs")
        .and_then(JsonValue::as_arr)
        .expect("runs");
    let workloads = contract
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads");
    assert_eq!(runs.len(), workloads.len(), "one run per declared workload");
    for workload in workloads {
        let name = text(workload, "name");
        assert!(well_formed(name), "workload name {name:?}");
        let run = runs
            .iter()
            .find(|r| text(r, "workload") == name)
            .unwrap_or_else(|| panic!("no run of {name}"));
        let result = run.get("result").expect("result");
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(true),
            "{name} incorrect"
        );
        assert_eq!(
            result.get("failed").and_then(JsonValue::as_u64),
            Some(0),
            "{name} failed operations"
        );
        assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        let emitted = members(result.get("metrics").expect("metrics"));
        for metric in declared {
            let metric_name = text(metric, "name");
            assert!(well_formed(metric_name), "metric name {metric_name:?}");
            let hits: Vec<_> = emitted.iter().filter(|(n, _)| n == metric_name).collect();
            assert_eq!(
                hits.len(),
                1,
                "{name}: {metric_name} emitted {} times",
                hits.len()
            );
            assert_eq!(
                text(&hits[0].1, "unit"),
                text(metric, "unit"),
                "{name}: unit of {metric_name}"
            );
            let value = hits[0].1.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: {metric_name} is not a finite number"
            );
        }
        assert_eq!(
            emitted.len(),
            declared.len(),
            "{name}: undeclared metrics emitted"
        );
    }
}

#[test]
fn quick_mode_emits_exactly_the_declared_metrics() {
    let contract_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let contract = parse_json(&std::fs::read_to_string(contract_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    check(&contract, "end_to_end", &quick("0"));
    check(&contract, "per_layer", &quick("1"));
}

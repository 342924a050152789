//! `compare BEFORE.json AFTER.json`: one row per (workload, end-to-end
//! metric) with both medians and quartiles, the metric's bound, and a
//! verdict. The bounds and directions come from `BENCHMARK.json`.

use crate::stats::{median, quartiles, spread};
use naspipe_obs::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `(workload, metric) -> one value per run`, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(path: &str) -> Result<Samples, String> {
    let document = load(path)?;
    let runs = document
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no runs"))?;
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or("run without metrics")?;
        for (name, entry) in crate::stats::members(metrics) {
            if let Some(value) = entry.get("value").and_then(JsonValue::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// How `after` stands against `before` for one metric.
fn verdict(before: &[f64], after: &[f64], bound: f64, higher_is_better: bool) -> &'static str {
    // A spread wider than the bound cannot resolve a change of its size.
    if spread(before) > bound || spread(after) > bound {
        return "unresolved";
    }
    let (b, a) = (median(before), median(after));
    let gain = if higher_is_better {
        (a - b) / b.abs()
    } else {
        (b - a) / b.abs()
    };
    if gain < -bound {
        "worse"
    } else if gain > bound {
        "better"
    } else {
        "within"
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [before_path, after_path] = args else {
        return Err("compare needs two result files".into());
    };
    let (before, after) = (samples(before_path)?, samples(after_path)?);
    let contract_path = crate::package_dir().join("..").join("BENCHMARK.json");
    let contract = load(&contract_path.to_string_lossy())?;
    let metrics = contract
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let workloads = contract
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: no workloads")?;

    println!(
        "{:<22} {:<22} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "before", "quartiles", "after", "quartiles", "bound"
    );
    let mut worse = 0;
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let higher = metric.get("better").and_then(JsonValue::as_str) == Some("higher");
            let key = (workload.to_string(), name.to_string());
            let (Some(b), Some(a)) = (before.get(&key), after.get(&key)) else {
                println!("{workload:<22} {name:<22} missing from one of the files");
                worse += 1;
                continue;
            };
            let (bq, aq) = (quartiles(b), quartiles(a));
            let verdict = verdict(b, a, bound, higher);
            worse += i32::from(verdict == "worse");
            println!(
                "{workload:<22} {name:<22} {:>12.5} {:>12.5}..{:<11.5} {:>12.5} {:>12.5}..{:<11.5} {:>6.3}  {verdict}",
                median(b), bq.0, bq.1, median(a), aq.0, aq.1, bound
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

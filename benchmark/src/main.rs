//! Standalone benchmark of the NASPipe reproduction: six named
//! workloads over both engines, end-to-end metrics from untraced runs
//! and per-layer metrics from a traced run. See `README.md`.

mod affinity;
mod calibrate;
mod compare;
mod e2e;
mod layers;
mod spans;
mod stats;
mod workloads;

use stats::{median, metrics_json, quartiles, Metric};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  naspipe-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                    [--quick] [--runs K] [--out FILE] [--label TEXT]
  naspipe-benchmark compare BEFORE.json AFTER.json

Without --workload every workload runs, each in a process of its own,
K times on seeds N, N+1, ...; the results are printed and written to FILE
(default benchmark/out/results.json).";

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: one per subnet of each repetition or check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, why: &str) {
        self.failed += ops;
        self.notes.push(format!("FAILED ({ops} operations): {why}"));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
    label: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2022,
        seconds: 16.0,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        label: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()? as f64,
            "--trace" => parsed.trace = number()? != 0,
            "--runs" => parsed.runs = number()?.max(1),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--label" => parsed.label = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

/// The benchmark package's directory. `cargo run` exports it; a binary
/// started by hand falls back to where it was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "compare") {
        compare::run(&args[1..])
    } else {
        parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(name) => run_one(&parsed, name),
            None => run_all(&parsed),
        })
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("naspipe-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let scratch = package_dir().join("out");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let plan = e2e::Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        scratch: &scratch,
    };
    // Before any thread is started: threads inherit the confinement.
    let confined = workload.one_cpu().then(affinity::confine_to_one_cpu);
    let outcome = if args.trace {
        layers::run(&plan)
    } else {
        e2e::run(&plan)
    };
    let outcome = match outcome {
        Ok(mut outcome) => {
            match confined {
                Some(Ok(cpu)) => outcome.note(format!("confined to CPU {cpu}")),
                Some(Err(e)) => outcome.note(format!("NOT confined to one CPU: {e}")),
                None => {}
            }
            outcome
        }
        Err(message) => {
            eprintln!("naspipe-benchmark: {name}: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "workload {name} seed {} trace {} host_parallelism {}",
        args.seed,
        u8::from(args.trace),
        host_parallelism()
    );
    for (metric, value, unit) in &outcome.metrics {
        println!("  {metric:<40} {value:>16.6} {unit}");
    }
    println!(
        "  {:<40} {:>16.6} ratio",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload `--runs` times, one process each, and writes the
/// result lines to one file that `compare` reads.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for workload in &workloads::ALL {
        let mut lines = Vec::new();
        for run in 0..args.runs {
            let seed = args.seed + run;
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.quick {
                child.arg("--quick");
            }
            // `output` waits for the child to end.
            let output = child
                .output()
                .map_err(|e| format!("start {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default().to_string();
            if !output.status.success() || !line.starts_with('{') {
                return Err(format!("{} seed {seed} printed no result", workload.name));
            }
            all_correct &= line.contains("\"correct\": true");
            let notes: Vec<String> = stdout
                .lines()
                .filter_map(|l| l.trim().strip_prefix("note: "))
                .map(|note| format!("\"{}\"", note.replace(['"', '\\'], "'")))
                .collect();
            rows.push(format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\"notes\":[{}],\"result\":{line}}}",
                workload.name,
                notes.join(",")
            ));
            lines.push(line);
        }
        print_summary(workload.name, &lines)?;
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| package_dir().join("out").join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let document = format!(
        "{{\"label\":\"{}\",\"host_parallelism\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"runs\":[\n{}\n]}}\n",
        args.label.replace(['"', '\\'], "'"),
        host_parallelism(),
        args.seconds,
        u8::from(args.trace),
        args.quick,
        rows.join(",\n")
    );
    std::fs::write(&path, document).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints every metric of one workload: median and quartiles over runs.
fn print_summary(workload: &str, lines: &[String]) -> Result<(), String> {
    let results: Vec<naspipe_obs::JsonValue> = lines
        .iter()
        .map(|l| naspipe_obs::parse_json(l))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &results {
        attempted += r.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += r.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
    }
    println!(
        "{workload}: {} run(s), {failed} of {attempted} operations failed",
        results.len()
    );
    let first = results[0].get("metrics").ok_or("result has no metrics")?;
    for (name, entry) in stats::members(first) {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let unit = entry.get("unit").and_then(|u| u.as_str()).unwrap_or("");
        let (q1, q3) = quartiles(&values);
        println!(
            "  {name:<40} {:>16.6} {unit:<6} (quartiles {q1:.6} .. {q3:.6})",
            median(&values)
        );
    }
    Ok(())
}

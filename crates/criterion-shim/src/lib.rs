//! A self-contained, registry-free subset of the [criterion] API.
//!
//! The workspace must resolve and build with no network access, so the
//! `crates/bench` micro-benchmarks link against this shim instead of the
//! real criterion (renamed back via `package = "naspipe-criterion"`).
//! It implements exactly the surface the benches use — `Criterion`,
//! `Bencher::iter`, `benchmark_group`/`bench_with_input`,
//! `BenchmarkId::from_parameter`, and the `criterion_group!` /
//! `criterion_main!` macros — measuring wall-clock means with a short
//! warm-up instead of criterion's full statistical machinery.
//!
//! Like criterion (which keeps its estimates under `target/criterion/`),
//! a run leaves a record behind: every group writes what it measured to
//! `target/tmp/<bench>-<group>.json` (cargo's `CARGO_TARGET_TMPDIR`), one
//! `{"name", "value", "unit", "iters"}` object per benchmark. One
//! shim-only extension, [`Criterion::report_value`], lets a bench add a
//! derived figure (calls per task, scans per hit) to the same record.
//!
//! [criterion]: https://crates.io/crates/criterion

use std::fmt::Display;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);

/// One measured or reported figure of a run.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    name: String,
    value: f64,
    unit: String,
    iters: u64,
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Runs `f` as the benchmark `name`, prints its mean iteration time
    /// and records it.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        self.finish_bench(name, &b);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
        }
    }

    /// Shim-only: prints and records a figure the bench derived itself
    /// (a count per task, a ratio) next to the timings.
    pub fn report_value(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        println!("value {name:<48} {value:>10.3} {unit}");
        self.records.push(Record {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            iters: 0,
        });
        self
    }

    fn finish_bench(&mut self, name: &str, b: &Bencher) {
        b.report(name);
        if let Some(ns) = b.mean_ns {
            self.records.push(Record {
                name: name.to_string(),
                value: ns,
                unit: "ns/iter".to_string(),
                iters: b.iters,
            });
        }
    }

    /// The run's records as a JSON array.
    fn records_json(&self) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "  {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"iters\": {}}}",
                    escape(&r.name),
                    r.value,
                    escape(&r.unit),
                    r.iters
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Writes the records to `<dir>/<bench>-<group>.json`. Called by
    /// [`criterion_group!`] with cargo's `CARGO_TARGET_TMPDIR`; a failed
    /// write is reported, never fatal.
    #[doc(hidden)]
    pub fn write_records(&self, dir: Option<&str>, bench: &str, group: &str) {
        let Some(dir) = dir else { return };
        let path = Path::new(dir).join(format!("{bench}-{group}.json"));
        match std::fs::write(&path, self.records_json()) {
            Ok(()) => println!(
                "recorded {} result(s) to {}",
                self.records.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not record results to {}: {e}", path.display()),
        }
    }
}

/// A parameterised benchmark label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A label naming only the parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }

    /// A `function/parameter` label.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        Self {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs `f` with `input`, labelled `name/id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        self.parent
            .finish_bench(&format!("{}/{}", self.name, id.label), &b);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Collects timing for one benchmark body.
#[derive(Debug, Default)]
pub struct Bencher {
    mean_ns: Option<f64>,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`: a warm-up estimates the cost,
    /// then enough iterations run to fill the target measurement window.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        // Warm-up and cost estimate.
        let warm_start = Instant::now();
        black_box(routine());
        let estimate = warm_start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET.as_nanos() / estimate.as_nanos()).clamp(1, 10_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let total = start.elapsed();
        self.mean_ns = Some(total.as_nanos() as f64 / iters as f64);
        self.iters = iters;
    }

    fn report(&self, name: &str) {
        match self.mean_ns {
            Some(ns) => {
                let (value, unit) = if ns >= 1e9 {
                    (ns / 1e9, "s")
                } else if ns >= 1e6 {
                    (ns / 1e6, "ms")
                } else if ns >= 1e3 {
                    (ns / 1e3, "us")
                } else {
                    (ns, "ns")
                };
                println!(
                    "bench {name:<48} {value:>10.3} {unit}/iter ({} iters)",
                    self.iters
                );
            }
            None => println!("bench {name:<48} (no measurement)"),
        }
    }
}

/// Declares a function running each listed benchmark target in order,
/// then recording the results (see the crate docs).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
            criterion.write_records(
                option_env!("CARGO_TARGET_TMPDIR"),
                env!("CARGO_CRATE_NAME"),
                stringify!($group),
            );
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benches_and_values_are_recorded_and_written() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.benchmark_group("g").bench_with_input(
            BenchmarkId::from_parameter("p"),
            &3u32,
            |b, &x| b.iter(|| x * 2),
        );
        c.report_value("calls \"per\" task", 3.5, "count");
        let names: Vec<&str> = c.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["noop", "g/p", "calls \"per\" task"]);
        assert!(c.records[0].iters > 0 && c.records[0].unit == "ns/iter");

        let json = c.records_json();
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert!(json.contains(r#""name": "calls \"per\" task", "value": 3.5, "unit": "count""#));

        let dir = std::env::temp_dir().join(format!("criterion-shim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        c.write_records(dir.to_str(), "bench", "group");
        let written = std::fs::read_to_string(dir.join("bench-group.json")).unwrap();
        assert_eq!(written, json);
        std::fs::remove_dir_all(&dir).unwrap();
        // No directory, no record, no panic.
        c.write_records(None, "bench", "group");
    }
}

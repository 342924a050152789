//! Causal span tracing: both engines' traces as Chrome/Perfetto JSON,
//! and the critical path through each.
//!
//! Runs one exploration stream through the discrete-event pipeline and
//! the threaded supervised runtime, and prints each run's critical path
//! through the span graph, attributed to compute / fetch / causal stall /
//! bubble. [`write_artifacts`] writes `des.trace.json` /
//! `threaded.trace.json`: load them at <https://ui.perfetto.dev>, or
//! diagnose one against the other with `naspipe doctor --base/--cand`.
//! The properties that make the traces worth reading (the path is the
//! makespan, the export round-trips) are tested in `tests/trace_store.rs`.

use crate::experiments::{simulate, subnet_stream};
use naspipe_core::config::PipelineConfig;
use naspipe_core::runtime::{RecoveryOptions, RunSpec};
use naspipe_core::train::TrainConfig;
use naspipe_obs::{critical_path, export_chrome, RunMeta, SpanTrace};
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::path::PathBuf;

/// One engine's traced run.
pub struct EngineTrace {
    /// `"des"` or `"threaded"` (matches the trace's `RunMeta`).
    pub engine: &'static str,
    /// The causal span trace the engine emitted.
    pub spans: SpanTrace,
    /// The run's metadata, exported with the trace.
    pub meta: RunMeta,
}

/// Traces `n` subnets of `id` on `num_gpus` stages through both engines,
/// in `[des, threaded]` order. The threaded run checkpoints every `n / 3`
/// subnets, so its trace holds checkpoint spans, but injects no faults.
pub fn run(id: SpaceId, num_gpus: u32, n: u64) -> Vec<EngineTrace> {
    let space = SearchSpace::from_id(id);
    let des = simulate(&space, &PipelineConfig::naspipe(num_gpus, n)).expect("NASPipe fits");
    let threaded = RunSpec {
        recovery: RecoveryOptions {
            checkpoint_interval: (n / 3).max(1),
            ..RecoveryOptions::default()
        },
        ..RunSpec::new(
            &space,
            subnet_stream(&space, n),
            TrainConfig::default(),
            num_gpus,
        )
    }
    .run()
    .expect("clean threaded run");
    vec![
        EngineTrace {
            engine: "des",
            spans: des.spans,
            meta: des.obs.meta,
        },
        EngineTrace {
            engine: "threaded",
            spans: threaded.spans,
            meta: threaded.report.meta,
        },
    ]
}

/// Renders each engine's span count, makespan and critical path.
pub fn render(traces: &[EngineTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in traces {
        let _ = writeln!(
            out,
            "[{}] {} spans across {} stages, makespan {} us",
            t.engine,
            t.spans.len(),
            t.spans.num_stages(),
            t.spans.makespan_us(),
        );
        let _ = writeln!(out, "{}", critical_path(&t.spans).render_text(4));
    }
    out
}

/// Writes each engine's Chrome JSON to `dir/<engine>.trace.json`;
/// returns the paths written.
///
/// # Errors
///
/// Propagates any filesystem error (the directory is created first).
pub fn write_artifacts(traces: &[EngineTrace], dir: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for t in traces {
        let path = PathBuf::from(dir).join(format!("{}.trace.json", t.engine));
        std::fs::write(&path, export_chrome(&t.spans, &t.meta))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::parse_chrome;

    #[test]
    fn artifacts_are_the_traces_as_chrome_json() {
        let traces = run(SpaceId::NlpC2, 2, 8);
        let dir = std::env::temp_dir().join(format!("naspipe-trace-{}", std::process::id()));
        let paths = write_artifacts(&traces, dir.to_str().expect("utf8 path")).expect("writable");
        let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(names, ["des.trace.json", "threaded.trace.json"]);
        for (path, t) in paths.iter().zip(&traces) {
            let json = std::fs::read_to_string(path).expect("written");
            let parsed = parse_chrome(&json).expect("artifact parses back");
            assert!(parsed == (t.spans.clone(), t.meta.clone()), "{}", t.engine);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

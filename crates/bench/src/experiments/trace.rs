//! Causal span tracing: Chrome/Perfetto export plus critical-path
//! attribution for both engines.
//!
//! Runs the same exploration stream through the discrete-event pipeline
//! and the threaded supervised runtime, collects each run's
//! [`SpanTrace`], and checks the three properties that make the traces
//! trustworthy rather than decorative:
//!
//! 1. **makespan identity** — the critical path through the span graph
//!    totals exactly the run's makespan (the walk is contiguous by
//!    construction; this is the end-to-end check that the causal edges
//!    the engines recorded are sufficient to explain the schedule);
//! 2. **counter agreement** — on the deterministic DES engine, the
//!    path's per-stage idle time never exceeds the stall + bubble time
//!    the [`Recorder`](naspipe_obs::Recorder) measured independently
//!    (the threaded engine is exempt: wall-clock scheduling noise makes
//!    its recorder idle a jittery quantity, so the comparison is
//!    reported but not enforced);
//! 3. **lossless export** — the Chrome trace-event JSON round-trips
//!    through the hand-rolled parser back to the identical trace, the
//!    in-repo proof that Perfetto will accept the file.
//!
//! Set `REPRO_TRACE_JSON=<dir>` to also write `des.trace.json` /
//! `threaded.trace.json` artifacts (load them at
//! <https://ui.perfetto.dev>).

use crate::experiments::{simulate, subnet_stream};
use naspipe_core::config::PipelineConfig;
use naspipe_core::fault::FaultPlan;
use naspipe_core::runtime::{RecoveryOptions, RunSpec};
use naspipe_core::train::TrainConfig;
use naspipe_obs::{critical_path, export_chrome, parse_chrome, CriticalPath, ObsReport, SpanTrace};
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::path::PathBuf;

/// One engine's traced run and its verdicts.
#[derive(Debug, Clone)]
pub struct EngineTrace {
    /// `"des"` or `"threaded"` (matches the trace's `RunMeta`).
    pub engine: &'static str,
    /// The causal span trace the engine emitted.
    pub spans: SpanTrace,
    /// The per-stage observability report of the same run.
    pub report: ObsReport,
    /// Critical path through the span graph.
    pub path: CriticalPath,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_json: String,
    /// Causal edges whose source span is in the trace (= flow arrows).
    pub flows: usize,
    /// Whether `path.total_us == spans.makespan_us()`.
    pub path_matches_makespan: bool,
    /// Whether the export parses back to the identical trace and meta.
    pub round_trip_ok: bool,
    /// Whether per-stage path idle is within the recorder's stall +
    /// bubble counters (±1 µs). `None` for the threaded engine, where
    /// OS scheduling noise makes the recorder's idle non-comparable.
    pub idle_within_counters: Option<bool>,
}

/// The trace experiment: both engines on one shared configuration.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// The space trained.
    pub space: SpaceId,
    /// GPUs (= pipeline stages / stage threads).
    pub num_gpus: u32,
    /// Subnets trained.
    pub num_subnets: u64,
    /// Per-engine traces in `[des, threaded]` order.
    pub engines: Vec<EngineTrace>,
}

impl TraceRun {
    /// All hard verdicts across both engines.
    pub fn all_ok(&self) -> bool {
        self.engines.iter().all(|e| {
            e.path_matches_makespan && e.round_trip_ok && e.idle_within_counters != Some(false)
        })
    }
}

fn analyze(
    engine: &'static str,
    spans: SpanTrace,
    report: ObsReport,
    strict_counters: bool,
) -> EngineTrace {
    let path = critical_path(&spans);
    let chrome_json = export_chrome(&spans, &report.meta);
    let flows = spans
        .spans()
        .iter()
        .filter(|s| s.cause.is_some_and(|c| spans.get(c.src).is_some()))
        .count();
    let path_matches_makespan = path.total_us == spans.makespan_us();
    let round_trip_ok = match parse_chrome(&chrome_json) {
        Ok((parsed, meta)) => parsed == spans && meta == report.meta,
        Err(_) => false,
    };
    let idle_within_counters = strict_counters.then(|| {
        report.stages.iter().enumerate().all(|(k, s)| {
            path.stage_idle_us.get(k).copied().unwrap_or(0) <= s.stall_us + s.bubble_us + 1
        })
    });
    EngineTrace {
        engine,
        spans,
        report,
        path,
        chrome_json,
        flows,
        path_matches_makespan,
        round_trip_ok,
        idle_within_counters,
    }
}

/// Traces `n` subnets of `id` on `num_gpus` stages through both engines.
///
/// The threaded run checkpoints every `n / 3` subnets (so checkpoint
/// spans appear in the trace) but injects no faults.
pub fn run(id: SpaceId, num_gpus: u32, n: u64) -> TraceRun {
    let space = SearchSpace::from_id(id);
    let des_cfg = PipelineConfig::naspipe(num_gpus, n);
    let des = simulate(&space, &des_cfg).expect("NASPipe fits");

    let opts = RecoveryOptions {
        fault_plan: FaultPlan::new(),
        checkpoint_interval: (n / 3).max(1),
        max_restarts: 0,
        recv_timeout_ms: None,
    };
    let subnets = subnet_stream(&space, n);
    let threaded = RunSpec {
        recovery: opts,
        ..RunSpec::new(&space, subnets, TrainConfig::default(), num_gpus)
    }
    .run()
    .expect("clean threaded run");

    TraceRun {
        space: id,
        num_gpus,
        num_subnets: n,
        engines: vec![
            analyze("des", des.spans, des.obs, true),
            analyze("threaded", threaded.spans, threaded.report, false),
        ],
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders both engines' span statistics, critical-path attribution and
/// verdicts.
pub fn render(run: &TraceRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} GPUs, {} subnets, both engines:",
        run.space, run.num_gpus, run.num_subnets
    );
    for e in &run.engines {
        let _ = writeln!(
            out,
            "\n[{}] {} spans across {} stages, {} causal flows, makespan {} us",
            e.engine,
            e.spans.len(),
            e.spans.num_stages(),
            e.flows,
            e.spans.makespan_us(),
        );
        let _ = write!(out, "{}", e.path.render_text(4));
        let counters = match e.idle_within_counters {
            Some(ok) => verdict(ok),
            None => "n/a (wall-clock)",
        };
        let _ = writeln!(
            out,
            "path == makespan: {}  chrome round-trip: {}  idle <= recorder stall+bubble: {}",
            verdict(e.path_matches_makespan),
            verdict(e.round_trip_ok),
            counters,
        );
    }
    out
}

/// Writes each engine's Chrome JSON to `dir/<engine>.trace.json`;
/// returns the paths written.
///
/// # Errors
///
/// Propagates any filesystem error (the directory is created first).
pub fn write_artifacts(run: &TraceRun, dir: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for e in &run.engines {
        let path = PathBuf::from(dir).join(format!("{}.trace.json", e.engine));
        std::fs::write(&path, &e.chrome_json)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::SpanKind;

    #[test]
    fn both_engines_satisfy_the_trace_verdicts() {
        let r = run(SpaceId::NlpC2, 2, 12);
        assert_eq!(r.engines.len(), 2);
        for e in &r.engines {
            assert!(!e.spans.spans().is_empty(), "{}: empty trace", e.engine);
            assert!(e.flows > 0, "{}: no causal flows", e.engine);
            assert!(
                e.path_matches_makespan,
                "{}: critical path {} != makespan {}",
                e.engine,
                e.path.total_us,
                e.spans.makespan_us()
            );
            assert!(e.round_trip_ok, "{}: chrome round-trip failed", e.engine);
        }
        assert_eq!(r.engines[0].idle_within_counters, Some(true));
        assert_eq!(r.engines[1].idle_within_counters, None);
        assert!(
            r.engines[1].spans.of_kind(SpanKind::Checkpoint).count() > 0,
            "threaded run should trace its watermark checkpoints"
        );
        assert!(r.all_ok());
        let text = render(&r);
        assert!(text.contains("[des]"));
        assert!(text.contains("[threaded]"));
        assert!(text.contains("path == makespan: ok"));
    }

    #[test]
    fn artifacts_are_perfetto_loadable_chrome_json() {
        let r = run(SpaceId::NlpC2, 2, 8);
        let dir = std::env::temp_dir().join("naspipe-trace-test");
        let paths = write_artifacts(&r, dir.to_str().expect("utf8 path")).expect("writable");
        assert_eq!(paths.len(), 2);
        for p in paths {
            let json = std::fs::read_to_string(&p).expect("written");
            assert!(json.contains("\"traceEvents\""));
            parse_chrome(&json).expect("artifact must parse back");
            std::fs::remove_file(p).ok();
        }
    }
}

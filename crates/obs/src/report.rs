//! Rendering of recorded metrics: per-stage text tables and JSON.
//!
//! [`ObsReport`] is a plain snapshot produced by
//! [`MetricsRecorder::report`](crate::MetricsRecorder::report); the
//! experiment drivers in `crates/bench` print the
//! [`render_text`](ObsReport::render_text) form after each run and can
//! dump [`to_json`](ObsReport::to_json) for downstream tooling.

use crate::json::{JsonNum, JsonStr};
use std::fmt::Write as _;

/// Identity of the run a report (or trace) describes, stamped into the
/// JSON so downstream tooling can detect format or provenance drift.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunMeta {
    /// Which engine produced the data: `"des"` or `"threaded"`.
    pub engine: String,
    /// Number of pipeline stages.
    pub stages: u32,
    /// RNG seed of the run, when one exists.
    pub seed: Option<u64>,
}

impl RunMeta {
    /// Metadata for an engine/stage-count pair.
    pub fn new(engine: &str, stages: u32) -> Self {
        RunMeta {
            engine: engine.to_string(),
            stages,
            seed: None,
        }
    }

    /// Attaches the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// Derived per-stage observability summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageObs {
    /// Pipeline stage index.
    pub stage: u32,
    /// Forward tasks completed.
    pub forward_tasks: u64,
    /// Backward tasks completed.
    pub backward_tasks: u64,
    /// Times a backward was dispatched ahead of a ready forward.
    pub backward_preemptions: u64,
    /// Microseconds idle with inadmissible work queued.
    pub stall_us: u64,
    /// Microseconds idle with an empty queue.
    pub bubble_us: u64,
    /// `stall_us` over the run's wall time.
    pub stall_ratio: f64,
    /// `bubble_us` over the run's wall time.
    pub bubble_ratio: f64,
    /// Context-cache hits.
    pub cache_hits: u64,
    /// Context-cache misses.
    pub cache_misses: u64,
    /// Context-cache evictions.
    pub cache_evictions: u64,
    /// Context-cache prefetches.
    pub cache_prefetches: u64,
    /// Hits over total lookups (0 when no lookups).
    pub cache_hit_rate: f64,
    /// Transient channel faults retried with backoff.
    pub retries: u64,
    /// Times this stage's worker was respawned by the supervisor.
    pub restarts: u64,
    /// Tasks re-executed after a checkpoint rollback.
    pub replayed_tasks: u64,
    /// Compute-pool jobs this stage's tensor kernels fanned out
    /// (shape-gated; worker-count invariant).
    pub pool_jobs: u64,
    /// Compute-pool chunks executed for this stage's jobs (the fixed,
    /// shape-derived work units; worker-count invariant).
    pub pool_chunks: u64,
    /// Microseconds of pool chunk execution attributed to this stage's
    /// jobs (timing-dependent).
    pub pool_busy_us: u64,
    /// Completed watermark cuts this stage persisted to durable storage.
    pub durable_persists: u64,
    /// Cross-process resumes from a durable snapshot (once per resume).
    pub durable_resumes: u64,
    /// Mean queue depth at dispatch decisions and enqueues.
    pub mean_queue_depth: f64,
    /// Largest observed queue depth.
    pub max_queue_depth: u64,
    /// Median observed queue depth.
    pub queue_depth_p50: f64,
    /// 95th-percentile observed queue depth.
    pub queue_depth_p95: f64,
    /// 99th-percentile observed queue depth.
    pub queue_depth_p99: f64,
    /// Mean forward-task latency in microseconds.
    pub fwd_latency_mean_us: f64,
    /// Largest forward-task latency in microseconds.
    pub fwd_latency_max_us: u64,
    /// Median forward-task latency in microseconds.
    pub fwd_latency_p50_us: f64,
    /// 95th-percentile forward-task latency in microseconds.
    pub fwd_latency_p95_us: f64,
    /// 99th-percentile forward-task latency in microseconds.
    pub fwd_latency_p99_us: f64,
    /// Mean backward-task latency in microseconds.
    pub bwd_latency_mean_us: f64,
    /// Largest backward-task latency in microseconds.
    pub bwd_latency_max_us: u64,
    /// Median backward-task latency in microseconds.
    pub bwd_latency_p50_us: f64,
    /// 95th-percentile backward-task latency in microseconds.
    pub bwd_latency_p95_us: f64,
    /// 99th-percentile backward-task latency in microseconds.
    pub bwd_latency_p99_us: f64,
}

impl StageObs {
    /// Fraction of the wall time this stage spent busy (1 − stall −
    /// bubble), clamped to `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        (1.0 - self.stall_ratio - self.bubble_ratio).clamp(0.0, 1.0)
    }
}

/// Version of the JSON layout [`ObsReport::to_json`] emits. Bumped when
/// fields change meaning or disappear; additions alone keep it stable
/// within a major revision.
///
/// Schema 3 = schema 2 plus the compute-pool fields: per-stage
/// `pool_jobs` / `pool_chunks` / `pool_busy_us` and the top-level
/// `"pool"` array of per-worker utilisation. Every schema-2 field keeps
/// its exact key name and value formatting.
///
/// Schema 4 = schema 3 plus the live-telemetry time series: top-level
/// `"samples_dropped"` (snapshots evicted from the ring — truncation is
/// always explicit, never silent) and `"series"`, an array of sampled
/// points (`at_us`, `incarnation`, `pool_busy_us`, per-stage cumulative
/// task/cache/idle counters) that rate curves can be derived from.
/// Every schema-3 field keeps its exact key name and value formatting.
/// Schema 4 later gained the additive per-stage `durable_persists` /
/// `durable_resumes` durability counters.
///
/// Schema 5 = schema 4 plus the diagnosis layer: top-level `"watchdog"`
/// (array of latched detector verdicts — `at_us`, `kind`, `stage`,
/// `detail`) and `"flight"` (flight-recorder totals — `events`,
/// `dropped`, `capacity`). Both are additive; when neither subsystem
/// recorded anything the compact text rendering is byte-identical to
/// schema 4's. Every schema-4 field keeps its exact key name and value
/// formatting.
pub const OBS_SCHEMA_VERSION: u32 = 5;

/// One stage's cumulative counters at a sampled instant (schema-4
/// `"series"` entries; a compressed projection of the live
/// `MetricsSnapshot`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesStage {
    /// Forward tasks completed so far.
    pub forward_tasks: u64,
    /// Backward tasks completed so far.
    pub backward_tasks: u64,
    /// Context-cache hits so far.
    pub cache_hits: u64,
    /// Context-cache misses so far.
    pub cache_misses: u64,
    /// Microseconds causally stalled so far.
    pub stall_us: u64,
    /// Microseconds of pipeline bubble so far.
    pub bubble_us: u64,
    /// Microseconds of compute-pool busy time attributed so far.
    pub pool_busy_us: u64,
}

/// One sampled point of the live-telemetry time series.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesPoint {
    /// Run time of the sample in microseconds (wall-clock in the
    /// threaded runtime, simulated in the DES engine).
    pub at_us: u64,
    /// Supervisor incarnation when sampled.
    pub incarnation: u32,
    /// Global compute-pool busy microseconds at the sample.
    pub pool_busy_us: u64,
    /// Per-stage cumulative counters, indexed by stage.
    pub stages: Vec<SeriesStage>,
}

/// Utilisation of one compute-pool worker over a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolWorkerObs {
    /// Worker index (0 is the submitting thread itself).
    pub worker: usize,
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Microseconds this worker spent executing chunks.
    pub busy_us: u64,
    /// Microseconds of the run this worker was not executing chunks.
    pub idle_us: u64,
}

/// A full observability snapshot of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Total run time in microseconds (simulated or wall-clock).
    pub wall_us: u64,
    /// One summary per pipeline stage.
    pub stages: Vec<StageObs>,
    /// Identity of the run (engine, stage count, seed).
    pub meta: RunMeta,
    /// Compute-pool worker utilisation over the run, when a pool was
    /// used (empty otherwise).
    pub pool: Vec<PoolWorkerObs>,
    /// Sampled telemetry time series, when live telemetry ran (empty
    /// otherwise). Oldest first; capped by the ring capacity.
    pub series: Vec<SeriesPoint>,
    /// Snapshots evicted from the telemetry ring before this report was
    /// built — the explicit truncation count for `series`.
    pub samples_dropped: u64,
    /// Latched watchdog verdicts, in trip order (empty when no detector
    /// fired or the watchdog was off).
    pub watchdog: Vec<crate::watchdog::WatchdogVerdict>,
    /// Flight-recorder totals (all-zero default when no recorder ran).
    pub flight: crate::flight::FlightSummary,
}

impl ObsReport {
    /// Stamps the run metadata (builder-style).
    pub fn with_meta(mut self, meta: RunMeta) -> Self {
        self.meta = meta;
        self
    }

    /// Attaches compute-pool worker utilisation (builder-style).
    pub fn with_pool(mut self, pool: Vec<PoolWorkerObs>) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches the sampled telemetry series with its explicit drop
    /// count (builder-style).
    pub fn with_series(mut self, series: Vec<SeriesPoint>, samples_dropped: u64) -> Self {
        self.series = series;
        self.samples_dropped = samples_dropped;
        self
    }

    /// Attaches the latched watchdog verdicts (builder-style).
    pub fn with_watchdog(mut self, watchdog: Vec<crate::watchdog::WatchdogVerdict>) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Attaches the flight-recorder totals (builder-style).
    pub fn with_flight(mut self, flight: crate::flight::FlightSummary) -> Self {
        self.flight = flight;
        self
    }

    /// Total compute-pool jobs across all stages.
    pub fn pool_jobs(&self) -> u64 {
        self.stages.iter().map(|s| s.pool_jobs).sum()
    }

    /// Total compute-pool chunks across all stages.
    pub fn pool_chunks(&self) -> u64 {
        self.stages.iter().map(|s| s.pool_chunks).sum()
    }
    /// Whole-pipeline bubble ratio: mean of the per-stage bubble ratios.
    pub fn bubble_ratio(&self) -> f64 {
        mean(self.stages.iter().map(|s| s.bubble_ratio))
    }

    /// Whole-pipeline stall ratio: mean of the per-stage stall ratios.
    pub fn stall_ratio(&self) -> f64 {
        mean(self.stages.iter().map(|s| s.stall_ratio))
    }

    /// Total supervisor-driven stage restarts across all stages.
    pub fn restarts(&self) -> u64 {
        self.stages.iter().map(|s| s.restarts).sum()
    }

    /// Total transient-fault retries across all stages.
    pub fn retries(&self) -> u64 {
        self.stages.iter().map(|s| s.retries).sum()
    }

    /// Total replayed tasks across all stages.
    pub fn replayed_tasks(&self) -> u64 {
        self.stages.iter().map(|s| s.replayed_tasks).sum()
    }

    /// Whole-pipeline cache hit rate over all stages' lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.stages.iter().map(|s| s.cache_hits).sum();
        let lookups: u64 = hits + self.stages.iter().map(|s| s.cache_misses).sum::<u64>();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Renders a human-readable per-stage table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stage  fwd   bwd  preempt  util%  stall%  bubble%  cache-hit%  \
             ev  rst  rty  repl  q-mean  q-max  q(p50/p95/p99)  \
             fwd-us(mean/max)  fwd-us(p50/p95/p99)  \
             bwd-us(mean/max)  bwd-us(p50/p95/p99)"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>5} {:>8} {:>6.1} {:>7.1} {:>8.1} {:>11.1} {:>3} \
                 {:>4} {:>4} {:>5} {:>7.1} {:>6} {:>5.1}/{:.1}/{:.1} \
                 {:>9.0}/{:<7} {:>7.0}/{:.0}/{:.0} {:>9.0}/{:<7} {:>7.0}/{:.0}/{:.0}",
                s.stage,
                s.forward_tasks,
                s.backward_tasks,
                s.backward_preemptions,
                100.0 * s.utilization(),
                100.0 * s.stall_ratio,
                100.0 * s.bubble_ratio,
                100.0 * s.cache_hit_rate,
                s.cache_evictions,
                s.restarts,
                s.retries,
                s.replayed_tasks,
                s.mean_queue_depth,
                s.max_queue_depth,
                s.queue_depth_p50,
                s.queue_depth_p95,
                s.queue_depth_p99,
                s.fwd_latency_mean_us,
                s.fwd_latency_max_us,
                s.fwd_latency_p50_us,
                s.fwd_latency_p95_us,
                s.fwd_latency_p99_us,
                s.bwd_latency_mean_us,
                s.bwd_latency_max_us,
                s.bwd_latency_p50_us,
                s.bwd_latency_p95_us,
                s.bwd_latency_p99_us,
            );
        }
        let _ = write!(
            out,
            "total: wall {:.3}s  bubble ratio {:.3}  stall ratio {:.3}  \
             cache hit rate {:.3}  restarts {}  retries {}  replayed {}",
            self.wall_us as f64 / 1e6,
            self.bubble_ratio(),
            self.stall_ratio(),
            self.cache_hit_rate(),
            self.restarts(),
            self.retries(),
            self.replayed_tasks(),
        );
        if self.pool_jobs() > 0 {
            let _ = write!(
                out,
                "  pool jobs {}  chunks {}",
                self.pool_jobs(),
                self.pool_chunks()
            );
        }
        out.push('\n');
        for w in &self.pool {
            let denom = (w.busy_us + w.idle_us).max(1);
            let _ = writeln!(
                out,
                "pool worker {:>2}: chunks {:>8}  busy {:>9}us  idle {:>9}us  busy% {:>5.1}",
                w.worker,
                w.chunks,
                w.busy_us,
                w.idle_us,
                100.0 * w.busy_us as f64 / denom as f64,
            );
        }
        if !self.series.is_empty() || self.samples_dropped > 0 {
            let _ = writeln!(
                out,
                "telemetry: {} samples kept, {} dropped",
                self.series.len(),
                self.samples_dropped,
            );
        }
        for v in &self.watchdog {
            let _ = writeln!(out, "{}", v.render());
        }
        if !self.flight.is_empty() {
            let _ = writeln!(
                out,
                "flight: {} events kept, {} dropped (ring capacity {})",
                self.flight.events, self.flight.dropped, self.flight.capacity,
            );
        }
        out
    }

    /// Renders the report as a JSON object.
    ///
    /// `"schema"` is [`OBS_SCHEMA_VERSION`]; schema-1 fields keep their
    /// exact key names and value formatting, so schema-1 consumers that
    /// ignore unknown keys keep working unchanged.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{},\"meta\":{{\"engine\":{},\"stages\":{},\"seed\":{}}},\
             \"wall_us\":{},\"bubble_ratio\":{},\"stall_ratio\":{},\
             \"cache_hit_rate\":{},\"stages\":[",
            OBS_SCHEMA_VERSION,
            JsonStr(&self.meta.engine),
            self.meta.stages,
            self.meta
                .seed
                .map_or_else(|| "null".to_string(), |s| s.to_string()),
            self.wall_us,
            JsonNum(self.bubble_ratio()),
            JsonNum(self.stall_ratio()),
            JsonNum(self.cache_hit_rate()),
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"forward_tasks\":{},\"backward_tasks\":{},\
                 \"backward_preemptions\":{},\"stall_us\":{},\"bubble_us\":{},\
                 \"stall_ratio\":{},\"bubble_ratio\":{},\"utilization\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
                 \"cache_prefetches\":{},\"cache_hit_rate\":{},\
                 \"retries\":{},\"restarts\":{},\"replayed_tasks\":{},\
                 \"pool_jobs\":{},\"pool_chunks\":{},\"pool_busy_us\":{},\
                 \"durable_persists\":{},\"durable_resumes\":{},\
                 \"mean_queue_depth\":{},\"max_queue_depth\":{},\
                 \"fwd_latency_mean_us\":{},\"fwd_latency_max_us\":{},\
                 \"bwd_latency_mean_us\":{},\"bwd_latency_max_us\":{},\
                 \"queue_depth_p50\":{},\"queue_depth_p95\":{},\
                 \"queue_depth_p99\":{},\
                 \"fwd_latency_p50_us\":{},\"fwd_latency_p95_us\":{},\
                 \"fwd_latency_p99_us\":{},\
                 \"bwd_latency_p50_us\":{},\"bwd_latency_p95_us\":{},\
                 \"bwd_latency_p99_us\":{}}}",
                s.stage,
                s.forward_tasks,
                s.backward_tasks,
                s.backward_preemptions,
                s.stall_us,
                s.bubble_us,
                JsonNum(s.stall_ratio),
                JsonNum(s.bubble_ratio),
                JsonNum(s.utilization()),
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_prefetches,
                JsonNum(s.cache_hit_rate),
                s.retries,
                s.restarts,
                s.replayed_tasks,
                s.pool_jobs,
                s.pool_chunks,
                s.pool_busy_us,
                s.durable_persists,
                s.durable_resumes,
                JsonNum(s.mean_queue_depth),
                s.max_queue_depth,
                JsonNum(s.fwd_latency_mean_us),
                s.fwd_latency_max_us,
                JsonNum(s.bwd_latency_mean_us),
                s.bwd_latency_max_us,
                JsonNum(s.queue_depth_p50),
                JsonNum(s.queue_depth_p95),
                JsonNum(s.queue_depth_p99),
                JsonNum(s.fwd_latency_p50_us),
                JsonNum(s.fwd_latency_p95_us),
                JsonNum(s.fwd_latency_p99_us),
                JsonNum(s.bwd_latency_p50_us),
                JsonNum(s.bwd_latency_p95_us),
                JsonNum(s.bwd_latency_p99_us),
            );
        }
        out.push_str("],\"pool\":[");
        for (i, w) in self.pool.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"chunks\":{},\"busy_us\":{},\"idle_us\":{}}}",
                w.worker, w.chunks, w.busy_us, w.idle_us,
            );
        }
        out.push_str("],\"watchdog\":[");
        for (i, v) in self.watchdog.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_us\":{},\"kind\":{},\"stage\":{},\"detail\":{}}}",
                v.at_us,
                JsonStr(v.kind.name()),
                v.stage,
                JsonStr(&v.detail),
            );
        }
        let _ = write!(
            out,
            "],\"flight\":{{\"events\":{},\"dropped\":{},\"capacity\":{}}}",
            self.flight.events, self.flight.dropped, self.flight.capacity,
        );
        let _ = write!(
            out,
            ",\"samples_dropped\":{},\"series\":[",
            self.samples_dropped
        );
        for (i, p) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_us\":{},\"incarnation\":{},\"pool_busy_us\":{},\"stages\":[",
                p.at_us, p.incarnation, p.pool_busy_us,
            );
            for (j, s) in p.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"forward_tasks\":{},\"backward_tasks\":{},\"cache_hits\":{},\
                     \"cache_misses\":{},\"stall_us\":{},\"bubble_us\":{},\
                     \"pool_busy_us\":{}}}",
                    s.forward_tasks,
                    s.backward_tasks,
                    s.cache_hits,
                    s.cache_misses,
                    s.stall_us,
                    s.bubble_us,
                    s.pool_busy_us,
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0u64), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_report() -> ObsReport {
        ObsReport {
            wall_us: 1_000_000,
            meta: RunMeta::new("des", 2).seed(7),
            pool: Vec::new(),
            series: Vec::new(),
            samples_dropped: 0,
            watchdog: Vec::new(),
            flight: crate::flight::FlightSummary::default(),
            stages: vec![
                StageObs {
                    stage: 0,
                    forward_tasks: 10,
                    backward_tasks: 10,
                    bubble_ratio: 0.2,
                    stall_ratio: 0.1,
                    cache_hits: 8,
                    cache_misses: 2,
                    cache_hit_rate: 0.8,
                    ..StageObs::default()
                },
                StageObs {
                    stage: 1,
                    forward_tasks: 10,
                    backward_tasks: 10,
                    bubble_ratio: 0.4,
                    stall_ratio: 0.0,
                    cache_hits: 2,
                    cache_misses: 8,
                    cache_hit_rate: 0.2,
                    ..StageObs::default()
                },
            ],
        }
    }

    #[test]
    fn aggregates_are_means_and_totals() {
        let r = two_stage_report();
        assert!((r.bubble_ratio() - 0.3).abs() < 1e-12);
        assert!((r.stall_ratio() - 0.05).abs() < 1e-12);
        assert!((r.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn text_report_mentions_every_stage_and_totals() {
        let text = two_stage_report().render_text();
        assert!(text.contains("bubble ratio 0.300"));
        assert!(text.contains("cache hit rate 0.500"));
        assert_eq!(text.lines().count(), 4); // header + 2 stages + totals
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = two_stage_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"stage\":").count(), 2);
        assert!(json.contains("\"wall_us\":1000000"));
        assert!(json.contains("\"cache_hit_rate\":0.5"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn json_carries_schema_meta_and_percentiles() {
        let json = two_stage_report().to_json();
        assert!(json.starts_with("{\"schema\":5,"), "schema first: {json}");
        assert!(json.contains("\"meta\":{\"engine\":\"des\",\"stages\":2,\"seed\":7}"));
        for key in [
            "\"queue_depth_p50\":",
            "\"queue_depth_p99\":",
            "\"fwd_latency_p95_us\":",
            "\"bwd_latency_p99_us\":",
        ] {
            assert_eq!(json.matches(key).count(), 2, "missing {key} in {json}");
        }
        // No seed -> null, not absent (fixed key set per schema).
        let unseeded = ObsReport::default().to_json();
        assert!(unseeded.contains("\"seed\":null"));
    }

    #[test]
    fn text_table_surfaces_percentiles() {
        let mut r = two_stage_report();
        r.stages[0].queue_depth_p95 = 4.0;
        r.stages[0].fwd_latency_p99_us = 900.0;
        let text = r.render_text();
        assert!(text.lines().next().unwrap().contains("q(p50/p95/p99)"));
        assert!(text.lines().next().unwrap().contains("fwd-us(p50/p95/p99)"));
    }

    #[test]
    fn recovery_counters_aggregate_and_render() {
        let mut r = two_stage_report();
        r.stages[0].restarts = 1;
        r.stages[1].restarts = 1;
        r.stages[0].retries = 3;
        r.stages[1].replayed_tasks = 7;
        assert_eq!(r.restarts(), 2);
        assert_eq!(r.retries(), 3);
        assert_eq!(r.replayed_tasks(), 7);
        let text = r.render_text();
        assert!(text.contains("restarts 2"));
        assert!(text.contains("replayed 7"));
        let json = r.to_json();
        assert!(json.contains("\"restarts\":1"));
        assert!(json.contains("\"replayed_tasks\":7"));
    }

    #[test]
    fn pool_section_renders_in_text_and_json() {
        let mut r = two_stage_report();
        r.stages[0].pool_jobs = 4;
        r.stages[0].pool_chunks = 32;
        r.stages[1].pool_jobs = 2;
        r.stages[1].pool_chunks = 16;
        r.pool = vec![
            PoolWorkerObs {
                worker: 0,
                chunks: 30,
                busy_us: 900,
                idle_us: 100,
            },
            PoolWorkerObs {
                worker: 1,
                chunks: 18,
                busy_us: 600,
                idle_us: 400,
            },
        ];
        assert_eq!(r.pool_jobs(), 6);
        assert_eq!(r.pool_chunks(), 48);
        let text = r.render_text();
        assert!(text.contains("pool jobs 6  chunks 48"), "{text}");
        assert!(text.contains("pool worker  1"), "{text}");
        assert_eq!(text.lines().count(), 6); // header + 2 stages + totals + 2 workers
        let json = r.to_json();
        assert!(json.contains("\"pool_jobs\":4"));
        assert!(json
            .contains("\"pool\":[{\"worker\":0,\"chunks\":30,\"busy_us\":900,\"idle_us\":100},"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_pool_keeps_compact_rendering() {
        // Runs without pool activity keep the schema-2 text shape: no
        // pool suffix on the totals line and no worker lines.
        let r = two_stage_report();
        let text = r.render_text();
        assert!(!text.contains("pool"), "{text}");
        assert_eq!(text.lines().count(), 4);
        assert!(r.to_json().contains("\"pool\":[]"));
    }

    #[test]
    fn series_embeds_with_explicit_drop_count() {
        let mut r = two_stage_report();
        assert!(r.to_json().contains("\"samples_dropped\":0,\"series\":[]"));
        r = r.with_series(
            vec![
                SeriesPoint {
                    at_us: 1000,
                    incarnation: 0,
                    pool_busy_us: 50,
                    stages: vec![SeriesStage {
                        forward_tasks: 4,
                        cache_hits: 3,
                        ..SeriesStage::default()
                    }],
                },
                SeriesPoint {
                    at_us: 2000,
                    incarnation: 1,
                    pool_busy_us: 90,
                    stages: vec![SeriesStage {
                        forward_tasks: 9,
                        cache_hits: 7,
                        stall_us: 120,
                        ..SeriesStage::default()
                    }],
                },
            ],
            3,
        );
        let json = r.to_json();
        assert!(json.contains("\"samples_dropped\":3"), "{json}");
        assert_eq!(json.matches("\"at_us\":").count(), 2);
        assert!(json.contains("\"at_us\":2000,\"incarnation\":1,\"pool_busy_us\":90"));
        assert!(json.contains("\"forward_tasks\":9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = r.render_text();
        assert!(
            text.contains("telemetry: 2 samples kept, 3 dropped"),
            "{text}"
        );
    }

    #[test]
    fn empty_watchdog_flight_keeps_compact_rendering() {
        // Like the schema-2/3 pool regression: runs where neither the
        // watchdog nor the flight recorder observed anything keep the
        // schema-4 compact text shape, byte for byte.
        let r = two_stage_report();
        let text = r.render_text();
        assert!(!text.contains("watchdog"), "{text}");
        assert!(!text.contains("flight"), "{text}");
        assert_eq!(text.lines().count(), 4); // header + 2 stages + totals
        let json = r.to_json();
        assert!(
            json.contains("\"watchdog\":[],\"flight\":{\"events\":0,\"dropped\":0,\"capacity\":0}")
        );
    }

    #[test]
    fn watchdog_and_flight_sections_render() {
        let r = two_stage_report()
            .with_watchdog(vec![crate::watchdog::WatchdogVerdict {
                at_us: 1_200_000,
                kind: crate::watchdog::WatchdogVerdictKind::Straggler,
                stage: 1,
                detail: "busy 900000us vs peer median \"100000us\"".into(),
            }])
            .with_flight(crate::flight::FlightSummary {
                events: 42,
                dropped: 3,
                capacity: 256,
            });
        let text = r.render_text();
        assert!(
            text.contains("watchdog: straggler on stage 1 at 1200000us"),
            "{text}"
        );
        assert!(text.contains("flight: 42 events kept, 3 dropped (ring capacity 256)"));
        let json = r.to_json();
        assert!(
            json.contains("\"watchdog\":[{\"at_us\":1200000,\"kind\":\"straggler\",\"stage\":1,")
        );
        assert!(json.contains("\"flight\":{\"events\":42,\"dropped\":3,\"capacity\":256}"));
        // The free-text detail is escaped as a JSON string.
        assert!(json.contains("\\\"100000us\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn utilization_clamps() {
        let s = StageObs {
            stall_ratio: 0.7,
            bubble_ratio: 0.6,
            ..StageObs::default()
        };
        assert_eq!(s.utilization(), 0.0);
    }
}

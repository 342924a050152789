//! Live telemetry: lock-light snapshots of the per-stage counters while
//! a run is still in flight.
//!
//! The [`TelemetryHub`] holds every [`Counter`] and [`Sample`] of every
//! stage in concurrently readable cells:
//!
//! * The threaded runtime's stage workers (and its supervisor and
//!   snapshot writer) write the cells directly — `incr` / `sample` are
//!   [`TelemetryHub::record`] / [`TelemetryHub::observe`], `Relaxed`
//!   atomics: an uncontended atomic add per event, no locks on the hot
//!   path. The hub is that run's one counter ledger: its report is
//!   built from the final snapshot ([`MetricsSnapshot::report`]).
//! * The threaded supervisor (while it waits on its workers) or the DES
//!   loop (in simulated time, from its own [`MetricsRecorder`]) takes a
//!   [`MetricsSnapshot`] at a fixed interval and publishes it onto a
//!   fixed-capacity ring buffer. Only the publisher and scrapers touch
//!   the ring's mutex; workers never do.
//! * `rate_between` turns two consecutive snapshots into per-interval
//!   rates (tasks/s, cache hit-rate, stall fraction, pool utilisation)
//!   for the `/metrics` endpoint and the live progress line.
//!
//! Consistency model (DESIGN.md §3e): a snapshot is *per-counter*
//! atomic, not a consistent cut — two counters incremented by the same
//! event may straddle a snapshot. Each individual counter is still
//! monotonically non-decreasing across snapshots (same-location loads
//! respect coherence), which is exactly the contract Prometheus
//! counters need. The final snapshot is exact: it is taken once nothing
//! writes any more, and the report is built from it (threaded) or from
//! the recorder it copies (DES), which [`diff_against_report`] checks.

use crate::metrics::{report_of, Counter, Histogram, MetricsRecorder, Recorder, Sample};
use crate::metrics::{StageMetrics, NUM_COUNTERS, NUM_SAMPLES};
use crate::report::{ObsReport, SeriesPoint, SeriesStage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring-buffer capacity (snapshots kept live).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 512;

/// Atomic mirror of one stage's counters and histograms.
struct StageCells {
    counters: [AtomicU64; NUM_COUNTERS],
    hist_sum: [AtomicU64; NUM_SAMPLES],
    hist_min: [AtomicU64; NUM_SAMPLES],
    hist_max: [AtomicU64; NUM_SAMPLES],
    hist_buckets: [[AtomicU64; 64]; NUM_SAMPLES],
}

impl StageCells {
    fn new() -> Self {
        StageCells {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_sum: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_min: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            hist_max: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

/// Global compute-pool counters at snapshot time (whole-run deltas of
/// the shared pool, attributed by the sampling thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSnapshot {
    /// Fan-out jobs submitted.
    pub jobs: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Microseconds of chunk execution summed over workers.
    pub busy_us: u64,
}

/// One point-in-time copy of every live counter.
///
/// `at_us` is run time: wall-clock microseconds since the run epoch in
/// the threaded runtime, simulated microseconds in the DES engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Run time this snapshot was taken at, in microseconds.
    pub at_us: u64,
    /// Publish sequence number (0-based, never reset).
    pub seq: u64,
    /// Supervisor incarnation the run was in when sampled (0 before any
    /// restart).
    pub incarnation: u32,
    /// Per-stage copies, indexed by stage.
    pub stages: Vec<StageMetrics>,
    /// Global compute-pool counters.
    pub pool: PoolSnapshot,
}

impl MetricsSnapshot {
    /// Sums `counter` across all stages.
    pub fn total(&self, counter: Counter) -> u64 {
        self.stages.iter().map(|s| s.counter(counter)).sum()
    }

    /// Forward + backward tasks completed across all stages.
    pub(crate) fn tasks_done(&self) -> u64 {
        self.total(Counter::ForwardTask) + self.total(Counter::BackwardTask)
    }

    /// Builds a snapshot straight from a (single-threaded) recorder, where
    /// no atomics are needed because the event loop owns the recorder.
    /// The DES copies its recorder this way only when a hub is attached
    /// and due a snapshot; its watchdog reads the recorder in place
    /// ([`MetricsRecorder::stages`]).
    pub fn from_recorder(rec: &MetricsRecorder, at_us: u64, incarnation: u32) -> Self {
        MetricsSnapshot {
            at_us,
            seq: 0,
            incarnation,
            stages: rec.stages.clone(),
            pool: PoolSnapshot::default(),
        }
    }

    /// The per-stage [`ObsReport`] of this snapshot, exactly as
    /// [`MetricsRecorder::report`] renders a recorder: how the threaded
    /// runtime reports from its hub's final snapshot.
    pub fn report(&self, wall_us: u64) -> ObsReport {
        report_of(&self.stages, wall_us)
    }
}

struct Ring {
    buf: VecDeque<MetricsSnapshot>,
    capacity: usize,
    published: u64,
    dropped: u64,
}

/// The live-telemetry rendezvous: atomic counter cells written by stage
/// workers, a snapshot ring written by the sampling thread, read by
/// scrapers.
///
/// Stage capacity is fixed at construction; writes to out-of-range
/// stages are silently dropped (the threaded runtime only runs with a
/// hub sized for its stages).
pub struct TelemetryHub {
    stages: Vec<StageCells>,
    incarnation: AtomicU32,
    pool_jobs: AtomicU64,
    pool_chunks: AtomicU64,
    pool_busy_us: AtomicU64,
    watchdog_trips: [AtomicU64; crate::watchdog::NUM_WATCHDOG_KINDS],
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("stages", &self.stages.len())
            .field("published", &self.published())
            .finish()
    }
}

impl TelemetryHub {
    /// A hub for `num_stages` stages keeping up to `capacity` snapshots
    /// live (0 selects `DEFAULT_RING_CAPACITY`).
    pub fn new(num_stages: usize, capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            capacity
        };
        TelemetryHub {
            stages: (0..num_stages).map(|_| StageCells::new()).collect(),
            incarnation: AtomicU32::new(0),
            pool_jobs: AtomicU64::new(0),
            pool_chunks: AtomicU64::new(0),
            pool_busy_us: AtomicU64::new(0),
            watchdog_trips: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                published: 0,
                dropped: 0,
            }),
        }
    }

    /// Stage capacity the hub was built with.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Adds `by` to `counter` on `stage` (hot path; relaxed atomic add).
    pub fn record(&self, stage: u32, counter: Counter, by: u64) {
        if let Some(cells) = self.stages.get(stage as usize) {
            cells.counters[counter as usize].fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Records one histogram observation of `sample` on `stage`.
    pub fn observe(&self, stage: u32, sample: Sample, value: u64) {
        let Some(cells) = self.stages.get(stage as usize) else {
            return;
        };
        let s = sample as usize;
        cells.hist_sum[s].fetch_add(value, Ordering::Relaxed);
        cells.hist_min[s].fetch_min(value, Ordering::Relaxed);
        cells.hist_max[s].fetch_max(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()) as usize;
        cells.hist_buckets[s][bucket.min(63)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the supervisor incarnation exported with every snapshot.
    ///
    /// Exposed as a gauge, not a label: folding the incarnation into
    /// counter labels would reset each labelset on restart and break
    /// per-series monotonicity.
    pub(crate) fn set_incarnation(&self, incarnation: u32) {
        self.incarnation.store(incarnation, Ordering::Relaxed);
    }

    /// Current incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation.load(Ordering::Relaxed)
    }

    /// Counts one watchdog detector trip (feeds the
    /// `naspipe_watchdog_trips_total` Prometheus family).
    pub fn record_watchdog_trip(&self, kind: crate::watchdog::WatchdogVerdictKind) {
        self.watchdog_trips[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative trips per [`WatchdogVerdictKind`](crate::watchdog::WatchdogVerdictKind),
    /// index order.
    pub(crate) fn watchdog_trips(&self) -> [u64; crate::watchdog::NUM_WATCHDOG_KINDS] {
        std::array::from_fn(|i| self.watchdog_trips[i].load(Ordering::Relaxed))
    }

    /// Publishes the global compute-pool counters (run-delta values; the
    /// sampling thread owns attribution, so these are stores, not adds).
    pub fn set_pool(&self, jobs: u64, chunks: u64, busy_us: u64) {
        // max-store keeps each cell monotone even if two publishers race.
        self.pool_jobs.fetch_max(jobs, Ordering::Relaxed);
        self.pool_chunks.fetch_max(chunks, Ordering::Relaxed);
        self.pool_busy_us.fetch_max(busy_us, Ordering::Relaxed);
    }

    /// Copies every cell into an immutable snapshot without publishing
    /// it. `seq` is filled in by [`publish`](Self::publish).
    pub fn snapshot(&self, at_us: u64) -> MetricsSnapshot {
        let stages = self
            .stages
            .iter()
            .map(|cells| StageMetrics {
                counters: std::array::from_fn(|i| cells.counters[i].load(Ordering::Relaxed)),
                samples: std::array::from_fn(|s| {
                    let buckets: [u64; 64] =
                        std::array::from_fn(|b| cells.hist_buckets[s][b].load(Ordering::Relaxed));
                    Histogram {
                        // Counted from the buckets just read, not kept in
                        // a cell of its own: a writer landing between two
                        // loads could otherwise leave `count` short of
                        // them, which is not a histogram.
                        count: buckets.iter().sum(),
                        sum: cells.hist_sum[s].load(Ordering::Relaxed),
                        min: cells.hist_min[s].load(Ordering::Relaxed),
                        max: cells.hist_max[s].load(Ordering::Relaxed),
                        buckets,
                    }
                }),
            })
            .collect();
        MetricsSnapshot {
            at_us,
            seq: 0,
            incarnation: self.incarnation(),
            stages,
            pool: PoolSnapshot {
                jobs: self.pool_jobs.load(Ordering::Relaxed),
                chunks: self.pool_chunks.load(Ordering::Relaxed),
                busy_us: self.pool_busy_us.load(Ordering::Relaxed),
            },
        }
    }

    /// Takes a snapshot and pushes it onto the ring; returns the
    /// published copy (with its sequence number).
    pub fn publish(&self, at_us: u64) -> MetricsSnapshot {
        let mut snap = self.snapshot(at_us);
        snap.seq = self.publish_snapshot(&snap);
        snap
    }

    /// Pushes a copy of `snap` onto the ring under the next sequence
    /// number, which it returns (`snap.seq` is ignored). The bus publishes
    /// the threaded supervisor's hub snapshots and, when a hub is
    /// attached, the DES's [`MetricsSnapshot::from_recorder`] copies.
    pub(crate) fn publish_snapshot(&self, snap: &MetricsSnapshot) -> u64 {
        let mut ring = self.ring.lock().expect("telemetry ring poisoned");
        let seq = ring.published;
        ring.published += 1;
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(MetricsSnapshot {
            seq,
            ..snap.clone()
        });
        seq
    }

    /// Latest published snapshot, if any.
    pub fn latest(&self) -> Option<MetricsSnapshot> {
        let ring = self.ring.lock().expect("telemetry ring poisoned");
        ring.buf.back().cloned()
    }

    /// Latest two published snapshots `(previous, latest)` — the pair
    /// rate gauges are derived from.
    pub(crate) fn latest_pair(&self) -> (Option<MetricsSnapshot>, Option<MetricsSnapshot>) {
        let ring = self.ring.lock().expect("telemetry ring poisoned");
        let n = ring.buf.len();
        let prev = n.checked_sub(2).and_then(|i| ring.buf.get(i)).cloned();
        (prev, ring.buf.back().cloned())
    }

    /// Every snapshot still in the ring, oldest first.
    pub fn series(&self) -> Vec<MetricsSnapshot> {
        let ring = self.ring.lock().expect("telemetry ring poisoned");
        ring.buf.iter().cloned().collect()
    }

    /// Total snapshots ever published.
    pub fn published(&self) -> u64 {
        self.ring.lock().expect("telemetry ring poisoned").published
    }

    /// Snapshots evicted from the ring because it was full.
    pub fn samples_dropped(&self) -> u64 {
        self.ring.lock().expect("telemetry ring poisoned").dropped
    }

    /// Converts the ring into `(series, samples_dropped)` for embedding
    /// in the [`ObsReport`] JSON (schema 4).
    pub(crate) fn series_points(&self) -> (Vec<SeriesPoint>, u64) {
        let series = self.series();
        let points = series
            .iter()
            .map(|snap| SeriesPoint {
                at_us: snap.at_us,
                incarnation: snap.incarnation,
                pool_busy_us: snap.pool.busy_us,
                stages: snap
                    .stages
                    .iter()
                    .map(|s| SeriesStage {
                        forward_tasks: s.counter(Counter::ForwardTask),
                        backward_tasks: s.counter(Counter::BackwardTask),
                        cache_hits: s.counter(Counter::CacheHit),
                        cache_misses: s.counter(Counter::CacheMiss),
                        stall_us: s.counter(Counter::StallUs),
                        bubble_us: s.counter(Counter::BubbleUs),
                        pool_busy_us: s.counter(Counter::PoolBusyUs),
                    })
                    .collect(),
            })
            .collect();
        (points, self.samples_dropped())
    }
}

/// How a run publishes live telemetry: where to, how often, and whether
/// to narrate progress on stderr.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// The hub snapshots are published to (shared with the `/metrics`
    /// server and any scraper). A threaded run writes its counters here
    /// too, so it takes a fresh hub sized for its stages.
    pub hub: Arc<TelemetryHub>,
    /// Sampling interval in run-time microseconds: wall-clock for the
    /// threaded runtime, simulated time for the DES engine. 0 selects
    /// [`DEFAULT_SAMPLE_INTERVAL_US`].
    pub sample_interval_us: u64,
    /// Emit a single-line live progress report on stderr at each
    /// sample.
    pub progress: bool,
}

/// Default sampling interval (200 ms of run time).
pub const DEFAULT_SAMPLE_INTERVAL_US: u64 = 200_000;

impl TelemetryOptions {
    /// Options publishing to `hub` at the default interval, quiet.
    pub fn new(hub: Arc<TelemetryHub>) -> Self {
        TelemetryOptions {
            hub,
            sample_interval_us: DEFAULT_SAMPLE_INTERVAL_US,
            progress: false,
        }
    }

    /// Sets the sampling interval in microseconds (builder-style; 0
    /// restores the default).
    pub fn with_interval_us(mut self, us: u64) -> Self {
        self.sample_interval_us = us;
        self
    }

    /// Enables the stderr progress line (builder-style).
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The effective interval (resolves 0 to the default).
    pub fn interval_us(&self) -> u64 {
        if self.sample_interval_us == 0 {
            DEFAULT_SAMPLE_INTERVAL_US
        } else {
            self.sample_interval_us
        }
    }
}

/// A [`Recorder`] that forwards to a private [`MetricsRecorder`] and tees
/// every event into a [`TelemetryHub`] when one is attached.
///
/// No engine uses it: it is kept only because the frozen benchmark
/// harness's `obs.tee` microbench links it (ROADMAP item 1).
#[derive(Debug, Default)]
pub struct TeeRecorder {
    inner: MetricsRecorder,
    hub: Option<Arc<TelemetryHub>>,
}

impl TeeRecorder {
    /// A recorder teeing into `hub` (or plain recording when `None`).
    pub fn new(hub: Option<Arc<TelemetryHub>>) -> Self {
        TeeRecorder {
            inner: MetricsRecorder::new(),
            hub,
        }
    }

    /// Read-only view of the private recorder.
    pub fn inner(&self) -> &MetricsRecorder {
        &self.inner
    }
}

impl Recorder for TeeRecorder {
    fn incr(&mut self, stage: u32, counter: Counter, by: u64) {
        self.inner.incr(stage, counter, by);
        if let Some(hub) = &self.hub {
            hub.record(stage, counter, by);
        }
    }

    fn sample(&mut self, stage: u32, sample: Sample, value: u64) {
        self.inner.sample(stage, sample, value);
        if let Some(hub) = &self.hub {
            hub.observe(stage, sample, value);
        }
    }
}

/// Per-stage rates over one inter-snapshot interval.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageRate {
    /// Stage index.
    pub stage: u32,
    /// Forward tasks completed per second of run time.
    pub fwd_per_s: f64,
    /// Backward tasks completed per second of run time.
    pub bwd_per_s: f64,
    /// Cache hit rate over the interval's lookups (0 when none).
    pub cache_hit_rate: f64,
    /// Mean queue depth over the interval's dispatch decisions (0 when
    /// none).
    pub queue_depth_mean: f64,
    /// Fraction of the interval spent causally stalled.
    pub stall_frac: f64,
    /// Fraction of the interval spent in pipeline bubbles.
    pub bubble_frac: f64,
}

/// Whole-pipeline rates derived from two consecutive snapshots.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RatePoint {
    /// Interval start (run time, µs).
    pub t0_us: u64,
    /// Interval end (run time, µs).
    pub t1_us: u64,
    /// Incarnation at the interval's end.
    pub incarnation: u32,
    /// Tasks (fwd+bwd, all stages) completed per second.
    pub tasks_per_s: f64,
    /// Compute-pool busy time per second of run time. Exceeds 1.0 when
    /// several pool workers run concurrently (worker-seconds/second).
    pub pool_busy_frac: f64,
    /// Per-stage interval rates.
    pub stages: Vec<StageRate>,
}

/// The rate over `[prev, cur]`, or `None` when the interval is empty.
pub(crate) fn rate_between(prev: &MetricsSnapshot, cur: &MetricsSnapshot) -> Option<RatePoint> {
    if cur.at_us <= prev.at_us {
        return None;
    }
    let dt_us = (cur.at_us - prev.at_us) as f64;
    let dt_s = dt_us / 1e6;
    let per_s = |c: Counter, k: usize| {
        let d = cur.stages[k]
            .counter(c)
            .saturating_sub(prev.stages.get(k).map(|s| s.counter(c)).unwrap_or_default());
        d as f64 / dt_s
    };
    let stages = (0..cur.stages.len())
        .map(|k| {
            let delta = |c: Counter| {
                cur.stages[k]
                    .counter(c)
                    .saturating_sub(prev.stages.get(k).map(|s| s.counter(c)).unwrap_or_default())
            };
            let hits = delta(Counter::CacheHit);
            let lookups = hits + delta(Counter::CacheMiss);
            let qd_cur = cur.stages[k].histogram(Sample::QueueDepth);
            let qd_prev = prev.stages.get(k).map(|s| s.histogram(Sample::QueueDepth));
            let d_count = qd_cur
                .count
                .saturating_sub(qd_prev.map(|h| h.count).unwrap_or(0));
            let d_sum = qd_cur
                .sum
                .saturating_sub(qd_prev.map(|h| h.sum).unwrap_or(0));
            StageRate {
                stage: k as u32,
                fwd_per_s: per_s(Counter::ForwardTask, k),
                bwd_per_s: per_s(Counter::BackwardTask, k),
                cache_hit_rate: if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
                queue_depth_mean: if d_count == 0 {
                    0.0
                } else {
                    d_sum as f64 / d_count as f64
                },
                stall_frac: delta(Counter::StallUs) as f64 / dt_us,
                bubble_frac: delta(Counter::BubbleUs) as f64 / dt_us,
            }
        })
        .collect();
    Some(RatePoint {
        t0_us: prev.at_us,
        t1_us: cur.at_us,
        incarnation: cur.incarnation,
        tasks_per_s: (cur.tasks_done().saturating_sub(prev.tasks_done())) as f64 / dt_s,
        pool_busy_frac: cur.pool.busy_us.saturating_sub(prev.pool.busy_us) as f64 / dt_us,
        stages,
    })
}

/// One-line live progress summary for stderr, e.g.
/// `[ 1.2s] 384 tasks | 612.0 tasks/s | cache 93.1% | pool 3.2x | inc 0`.
pub(crate) fn progress_line(cur: &MetricsSnapshot, prev: Option<&MetricsSnapshot>) -> String {
    let rate = prev.and_then(|p| rate_between(p, cur));
    let (tps, pool) = rate
        .as_ref()
        .map(|r| (r.tasks_per_s, r.pool_busy_frac))
        .unwrap_or((0.0, 0.0));
    let hits = cur.total(Counter::CacheHit);
    let lookups = hits + cur.total(Counter::CacheMiss);
    let cache = if lookups == 0 {
        0.0
    } else {
        100.0 * hits as f64 / lookups as f64
    };
    format!(
        "[{:6.1}s] {} tasks | {:7.1} tasks/s | cache {:5.1}% | pool {:4.1}x | inc {}",
        cur.at_us as f64 / 1e6,
        cur.tasks_done(),
        tps,
        cache,
        pool,
        cur.incarnation,
    )
}

/// Compares a final snapshot against the per-stage totals of an
/// [`ObsReport`]; returns one message per mismatching field (empty =
/// totals agree, as they do for the final snapshot of any run of either
/// engine, faults and restarts included).
pub fn diff_against_report(snap: &MetricsSnapshot, report: &ObsReport) -> Vec<String> {
    let mut diffs = Vec::new();
    if snap.stages.len() < report.stages.len() {
        diffs.push(format!(
            "snapshot has {} stages, report has {}",
            snap.stages.len(),
            report.stages.len()
        ));
        return diffs;
    }
    for obs in &report.stages {
        let s = &snap.stages[obs.stage as usize];
        let fields: [(&str, u64, u64); 14] = [
            (
                "forward_tasks",
                s.counter(Counter::ForwardTask),
                obs.forward_tasks,
            ),
            (
                "backward_tasks",
                s.counter(Counter::BackwardTask),
                obs.backward_tasks,
            ),
            (
                "backward_preemptions",
                s.counter(Counter::BackwardPreemption),
                obs.backward_preemptions,
            ),
            ("stall_us", s.counter(Counter::StallUs), obs.stall_us),
            ("bubble_us", s.counter(Counter::BubbleUs), obs.bubble_us),
            ("cache_hits", s.counter(Counter::CacheHit), obs.cache_hits),
            (
                "cache_misses",
                s.counter(Counter::CacheMiss),
                obs.cache_misses,
            ),
            (
                "cache_evictions",
                s.counter(Counter::CacheEviction),
                obs.cache_evictions,
            ),
            (
                "cache_prefetches",
                s.counter(Counter::CachePrefetch),
                obs.cache_prefetches,
            ),
            ("retries", s.counter(Counter::Retry), obs.retries),
            (
                "replayed_tasks",
                s.counter(Counter::ReplayedTask),
                obs.replayed_tasks,
            ),
            ("pool_jobs", s.counter(Counter::PoolJob), obs.pool_jobs),
            (
                "pool_chunks",
                s.counter(Counter::PoolChunk),
                obs.pool_chunks,
            ),
            (
                "pool_busy_us",
                s.counter(Counter::PoolBusyUs),
                obs.pool_busy_us,
            ),
        ];
        for (name, got, want) in fields {
            if got != want {
                diffs.push(format!(
                    "stage {} {name}: snapshot {got} != report {want}",
                    obs.stage
                ));
            }
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let hub = TelemetryHub::new(2, 8);
        hub.record(0, Counter::ForwardTask, 3);
        hub.record(1, Counter::CacheHit, 2);
        hub.observe(0, Sample::QueueDepth, 5);
        hub.observe(0, Sample::QueueDepth, 7);
        hub.set_pool(10, 40, 900);
        let snap = hub.snapshot(1000);
        assert_eq!(snap.stages[0].counter(Counter::ForwardTask), 3);
        assert_eq!(snap.stages[1].counter(Counter::CacheHit), 2);
        let qd = snap.stages[0].histogram(Sample::QueueDepth);
        assert_eq!((qd.count, qd.sum, qd.min, qd.max), (2, 12, 5, 7));
        assert_eq!(qd.mean(), 6.0);
        assert_eq!(
            snap.pool,
            PoolSnapshot {
                jobs: 10,
                chunks: 40,
                busy_us: 900
            }
        );
        // Out-of-range stages are dropped, not grown.
        hub.record(9, Counter::ForwardTask, 1);
        hub.observe(9, Sample::QueueDepth, 1);
        assert_eq!(hub.snapshot(2000).stages.len(), 2);
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let hub = TelemetryHub::new(1, 3);
        for t in 0..5u64 {
            hub.publish(t * 100);
        }
        assert_eq!(hub.published(), 5);
        assert_eq!(hub.samples_dropped(), 2);
        let series = hub.series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].at_us, 200, "oldest snapshots evicted first");
        assert_eq!(series[2].seq, 4);
        assert_eq!(hub.latest().unwrap().at_us, 400);
        let (prev, latest) = hub.latest_pair();
        assert_eq!(prev.unwrap().at_us, 300);
        assert_eq!(latest.unwrap().at_us, 400);
    }

    #[test]
    fn tee_recorder_feeds_both_sinks() {
        let hub = Arc::new(TelemetryHub::new(2, 8));
        let mut tee = TeeRecorder::new(Some(hub.clone()));
        tee.incr(0, Counter::ForwardTask, 4);
        tee.sample(1, Sample::BackwardLatencyUs, 123);
        assert_eq!(
            tee.inner().stage(0).unwrap().counter(Counter::ForwardTask),
            4
        );
        let snap = hub.snapshot(0);
        assert_eq!(snap.stages[0].counter(Counter::ForwardTask), 4);
        assert_eq!(snap.stages[1].histogram(Sample::BackwardLatencyUs).count, 1);
        assert_eq!(snap.stages[1].histogram(Sample::BackwardLatencyUs).sum, 123);
    }

    #[test]
    fn rates_derive_from_snapshot_deltas() {
        let hub = TelemetryHub::new(1, 8);
        hub.record(0, Counter::ForwardTask, 10);
        hub.record(0, Counter::CacheHit, 8);
        hub.record(0, Counter::CacheMiss, 2);
        hub.publish(1_000_000);
        hub.record(0, Counter::ForwardTask, 5);
        hub.record(0, Counter::CacheHit, 1);
        hub.record(0, Counter::CacheMiss, 3);
        hub.record(0, Counter::StallUs, 500_000);
        hub.set_pool(1, 2, 2_000_000);
        hub.publish(2_000_000);
        let series = hub.series();
        assert_eq!(series.len(), 2);
        let r = rate_between(&series[0], &series[1]).expect("a 1 s interval");
        assert_eq!((r.t0_us, r.t1_us), (1_000_000, 2_000_000));
        assert_eq!(r.tasks_per_s, 5.0, "only the interval delta counts");
        assert_eq!(r.pool_busy_frac, 2.0, "worker-seconds per second");
        let s = &r.stages[0];
        assert_eq!(s.fwd_per_s, 5.0);
        assert_eq!(s.cache_hit_rate, 0.25, "interval hit rate, not cumulative");
        assert_eq!(s.stall_frac, 0.5);
    }

    #[test]
    fn zero_length_intervals_are_skipped() {
        let a = MetricsSnapshot {
            at_us: 100,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            at_us: 100,
            ..Default::default()
        };
        assert!(rate_between(&a, &b).is_none());
    }

    #[test]
    fn from_recorder_matches_tee_mirror() {
        // The DES path (from_recorder) and the threaded path (atomic
        // cells) must produce identical snapshots for the same event
        // stream.
        let hub = TelemetryHub::new(2, 8);
        let mut rec = MetricsRecorder::new();
        for (stage, c, by) in [
            (0u32, Counter::ForwardTask, 3u64),
            (1, Counter::CacheMiss, 2),
        ] {
            rec.incr(stage, c, by);
            hub.record(stage, c, by);
        }
        for (stage, s, v) in [
            (0u32, Sample::QueueDepth, 4u64),
            (0, Sample::ForwardLatencyUs, 250),
        ] {
            rec.sample(stage, s, v);
            hub.observe(stage, s, v);
        }
        let from_rec = MetricsSnapshot::from_recorder(&rec, 500, 0);
        let from_hub = hub.snapshot(500);
        assert_eq!(from_rec.stages, from_hub.stages);
    }

    #[test]
    fn progress_line_is_single_line() {
        let hub = TelemetryHub::new(1, 8);
        hub.record(0, Counter::ForwardTask, 100);
        let a = hub.publish(1_000_000);
        hub.record(0, Counter::ForwardTask, 50);
        let b = hub.publish(2_000_000);
        let line = progress_line(&b, Some(&a));
        assert!(!line.contains('\n'));
        assert!(line.contains("tasks/s"), "{line}");
        assert!(line.contains("inc 0"), "{line}");
    }
}

//! Progress watchdog: stall, straggler, and CSP-convoy detectors over
//! the telemetry snapshot stream.
//!
//! A [`Watchdog`] consumes the same [`MetricsSnapshot`]s the live
//! telemetry ring publishes and emits typed [`WatchdogVerdict`]s. It is
//! a pure function of the snapshot sequence, which splits determinism
//! cleanly between the engines: the DES feeds it snapshots taken at
//! simulated-time crossings, so every verdict (including its `at_us`)
//! is bitwise reproducible across hosts and `NASPIPE_THREADS`; the
//! threaded runtime feeds it wall-clock snapshots of its hub, so verdicts
//! there are advisory (timing-dependent) but still side-effect-free —
//! tripping never alters scheduling, only reporting and flight dumps.
//!
//! Every detector latches: one verdict per (kind, stage) per run, so a
//! persistent condition cannot flood the report.

use crate::metrics::{Counter, Sample};
use crate::telemetry::MetricsSnapshot;

/// Detector thresholds. The defaults are intentionally conservative —
/// a clean uniform run must stay at zero trips across the seed matrix
/// (enforced by `core`'s watchdog determinism tests).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Stage-stall deadline: a stage with stall time accruing but no
    /// task completing for this long trips `StageStall`.
    pub stall_deadline_us: u64,
    /// Straggler trip ratio: a stage whose mean task latency reaches
    /// this multiple of the peer median trips `Straggler`.
    pub straggler_ratio: f64,
    /// Minimum busy time (us) a stage must have spent beyond what its
    /// tasks would have cost at the peer-median latency before
    /// `Straggler` can trip, so tiny warm-up skews don't fire.
    pub straggler_min_busy_us: u64,
    /// Minimum window between two snapshots for the convoy detector to
    /// evaluate (rates over shorter windows are too noisy).
    pub convoy_min_window_us: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_deadline_us: 5_000_000,
            straggler_ratio: 4.0,
            straggler_min_busy_us: 100_000,
            convoy_min_window_us: 1_000_000,
        }
    }
}

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WatchdogVerdictKind {
    /// A stage accrued stall time without completing a task past the
    /// deadline.
    StageStall,
    /// A stage's mean task latency is an outlier versus its peers'.
    Straggler,
    /// Multiple stages sat fully stalled while one stage kept
    /// progressing — the CSP admission watermark convoying behind one
    /// hot shared layer.
    CspConvoy,
}

/// Number of verdict kinds; sizes the trip-counter arrays.
pub const NUM_WATCHDOG_KINDS: usize = WatchdogVerdictKind::CspConvoy as usize + 1;

impl WatchdogVerdictKind {
    /// Every variant in declaration (= index) order.
    pub const ALL: [WatchdogVerdictKind; NUM_WATCHDOG_KINDS] = [
        WatchdogVerdictKind::StageStall,
        WatchdogVerdictKind::Straggler,
        WatchdogVerdictKind::CspConvoy,
    ];

    /// Stable kebab-case name used in JSON and the Prometheus family.
    pub fn name(self) -> &'static str {
        match self {
            WatchdogVerdictKind::StageStall => "stage-stall",
            WatchdogVerdictKind::Straggler => "straggler",
            WatchdogVerdictKind::CspConvoy => "csp-convoy",
        }
    }
}

/// One latched detector trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogVerdict {
    /// When the detector latched (us since run start; simulated time in
    /// the DES, wall-clock in the threaded runtime).
    pub at_us: u64,
    /// Which detector.
    pub kind: WatchdogVerdictKind,
    /// The stage charged: the stalled stage, the straggling stage, or —
    /// for a convoy — the hot stage everyone else is stuck behind.
    pub stage: u32,
    /// Human-readable evidence, e.g. `mean task 840000us vs peer median
    /// 120000us`.
    pub detail: String,
}

impl WatchdogVerdict {
    /// One-line rendering for alerts and the text report.
    pub fn render(&self) -> String {
        format!(
            "watchdog: {} on stage {} at {}us ({})",
            self.kind.name(),
            self.stage,
            self.at_us,
            self.detail
        )
    }
}

#[derive(Clone)]
struct StageState {
    tasks: u64,
    stall: u64,
    /// Snapshot time when `tasks` last advanced.
    progressed_at: u64,
    /// Stall total at that moment.
    stall_at_progress: u64,
}

/// The detector state machine. Feed it every published snapshot via
/// [`observe`](Watchdog::observe); returned verdicts are newly latched.
#[derive(Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    stages: Vec<StageState>,
    prev_at_us: Option<u64>,
    latched: Vec<[bool; NUM_WATCHDOG_KINDS]>,
    convoy_latched: bool,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("stages", &self.stages.len())
            .finish()
    }
}

/// Cumulative `(busy time, tasks timed)`: the forward + backward latency
/// histograms' sums and counts. Deterministic in the DES (simulated
/// durations), measured in the threaded runtime.
fn busy_and_timed(snap: &MetricsSnapshot, stage: usize) -> (u64, u64) {
    let s = &snap.stages[stage];
    let (fwd, bwd) = (
        s.histogram(Sample::ForwardLatencyUs),
        s.histogram(Sample::BackwardLatencyUs),
    );
    (fwd.sum + bwd.sum, fwd.count + bwd.count)
}

/// Lower median of `values` (deterministic; no float averaging); `None`
/// of none.
fn median(values: &mut [u64]) -> Option<u64> {
    values.sort_unstable();
    values.get(values.len().checked_sub(1)? / 2).copied()
}

impl Watchdog {
    /// A watchdog for `num_stages` stages.
    pub fn new(num_stages: usize, config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            stages: vec![
                StageState {
                    tasks: 0,
                    stall: 0,
                    progressed_at: 0,
                    stall_at_progress: 0,
                };
                num_stages
            ],
            prev_at_us: None,
            latched: vec![[false; NUM_WATCHDOG_KINDS]; num_stages],
            convoy_latched: false,
        }
    }

    /// Runs every detector against `snap`, returning verdicts that
    /// latched on this observation. Pure: same snapshot sequence, same
    /// verdicts.
    pub fn observe(&mut self, snap: &MetricsSnapshot) -> Vec<WatchdogVerdict> {
        let n = self.stages.len().min(snap.stages.len());
        let at = snap.at_us;
        let mut verdicts = Vec::new();

        let mut tasks = vec![0u64; n];
        let mut stall = vec![0u64; n];
        let mut busy = vec![0u64; n];
        let mut timed = vec![0u64; n];
        for k in 0..n {
            let s = &snap.stages[k];
            tasks[k] = s.counter(Counter::ForwardTask) + s.counter(Counter::BackwardTask);
            stall[k] = s.counter(Counter::StallUs);
            (busy[k], timed[k]) = busy_and_timed(snap, k);
        }

        // Straggler: a stage's pace — its mean task latency — an outlier
        // vs the peer median of the same. Cumulative busy time will not
        // do: pipeline fill, BSP bulks and injection bursts make one
        // stage busier than its peers by construction, at the same pace.
        // A stage that has timed no task yet neither trips nor votes.
        let pace: Vec<Option<u64>> = (0..n).map(|k| busy[k].checked_div(timed[k])).collect();
        for k in 0..n {
            if self.latched[k][WatchdogVerdictKind::Straggler as usize] {
                continue;
            }
            let Some(mine) = pace[k] else { continue };
            let mut peers: Vec<u64> = (0..n).filter(|&j| j != k).filter_map(|j| pace[j]).collect();
            let Some(med) = median(&mut peers) else {
                continue;
            };
            let excess = busy[k].saturating_sub(timed[k].saturating_mul(med));
            let trip = excess >= self.config.straggler_min_busy_us
                && (mine as f64) >= self.config.straggler_ratio * (med as f64);
            if trip {
                self.latched[k][WatchdogVerdictKind::Straggler as usize] = true;
                verdicts.push(WatchdogVerdict {
                    at_us: at,
                    kind: WatchdogVerdictKind::Straggler,
                    stage: k as u32,
                    detail: format!("mean task {mine}us vs peer median {med}us"),
                });
            }
        }

        // CSP convoy: over a wide-enough window, >=2 stages made no task
        // progress while stalled for (almost) the whole window, and at
        // least one stage did progress — everyone queued behind it.
        if let Some(prev_at) = self.prev_at_us {
            let dt = at.saturating_sub(prev_at);
            if !self.convoy_latched && dt >= self.config.convoy_min_window_us && n > 2 {
                let mut convoyed = 0usize;
                let mut hot: Option<(usize, u64)> = None;
                for k in 0..n {
                    let dtasks = tasks[k] - self.stages[k].tasks;
                    let dstall = stall[k] - self.stages[k].stall;
                    if dtasks == 0 && dstall * 10 >= dt * 9 {
                        convoyed += 1;
                    } else if dtasks > 0 && hot.map(|(_, best)| dtasks > best).unwrap_or(true) {
                        hot = Some((k, dtasks));
                    }
                }
                if convoyed >= 2 {
                    if let Some((hot_stage, dtasks)) = hot {
                        self.convoy_latched = true;
                        verdicts.push(WatchdogVerdict {
                            at_us: at,
                            kind: WatchdogVerdictKind::CspConvoy,
                            stage: hot_stage as u32,
                            detail: format!(
                                "{convoyed} stages fully stalled for {dt}us behind \
                                 stage {hot_stage} ({dtasks} tasks)"
                            ),
                        });
                    }
                }
            }
        }

        // Stage stall: stall time accruing with no task completion past
        // the deadline. Requiring the stall counter to advance keeps
        // end-of-run bubbles (drained stages) from tripping it.
        for k in 0..n {
            if tasks[k] > self.stages[k].tasks {
                self.stages[k].progressed_at = at;
                self.stages[k].stall_at_progress = stall[k];
            } else if !self.latched[k][WatchdogVerdictKind::StageStall as usize] {
                let idle_for = at.saturating_sub(self.stages[k].progressed_at);
                let stalled_since = stall[k] > self.stages[k].stall_at_progress;
                if idle_for >= self.config.stall_deadline_us && stalled_since {
                    self.latched[k][WatchdogVerdictKind::StageStall as usize] = true;
                    verdicts.push(WatchdogVerdict {
                        at_us: at,
                        kind: WatchdogVerdictKind::StageStall,
                        stage: k as u32,
                        detail: format!(
                            "no task completed for {idle_for}us with {}us stall accrued",
                            stall[k] - self.stages[k].stall_at_progress
                        ),
                    });
                }
            }
            self.stages[k].tasks = tasks[k];
            self.stages[k].stall = stall[k];
        }
        self.prev_at_us = Some(at);
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRecorder, Recorder};

    fn snap_at(rec: &MetricsRecorder, at_us: u64) -> MetricsSnapshot {
        MetricsSnapshot::from_recorder(rec, at_us, 0)
    }

    #[test]
    fn uniform_run_never_trips() {
        let mut wd = Watchdog::new(4, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        for step in 1..=20u64 {
            for k in 0..4u32 {
                rec.incr(k, Counter::ForwardTask, 1);
                rec.sample(k, Sample::ForwardLatencyUs, 10_000);
            }
            assert!(wd.observe(&snap_at(&rec, step * 100_000)).is_empty());
        }
    }

    #[test]
    fn straggler_latches_once_on_outlier_busy_time() {
        let mut wd = Watchdog::new(4, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        for k in 0..4u32 {
            rec.incr(k, Counter::ForwardTask, 1);
            rec.sample(k, Sample::ForwardLatencyUs, 50_000);
        }
        assert!(wd.observe(&snap_at(&rec, 100_000)).is_empty());
        // Stage 2 accrues 10x the busy time of its peers.
        rec.sample(2, Sample::ForwardLatencyUs, 500_000);
        let v = wd.observe(&snap_at(&rec, 200_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::Straggler);
        assert_eq!(v[0].stage, 2);
        assert_eq!(v[0].at_us, 200_000);
        // Latched: the same condition does not re-trip.
        assert!(wd.observe(&snap_at(&rec, 300_000)).is_empty());
    }

    #[test]
    fn straggler_needs_absolute_excess_not_just_ratio() {
        // 40us vs 5us peers is an 8x ratio but far below the 100ms
        // absolute floor — warm-up noise, not a straggler.
        let mut wd = Watchdog::new(3, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        rec.sample(0, Sample::ForwardLatencyUs, 40);
        rec.sample(1, Sample::ForwardLatencyUs, 5);
        rec.sample(2, Sample::ForwardLatencyUs, 5);
        assert!(wd.observe(&snap_at(&rec, 1_000_000)).is_empty());
    }

    /// `n` forward tasks of `us` each on `stage`.
    fn run_tasks(rec: &mut MetricsRecorder, stage: u32, n: u64, us: u64) {
        for _ in 0..n {
            rec.incr(stage, Counter::ForwardTask, 1);
            rec.sample(stage, Sample::ForwardLatencyUs, us);
        }
    }

    fn stragglers(v: &[WatchdogVerdict]) -> Vec<u32> {
        v.iter()
            .filter(|v| v.kind == WatchdogVerdictKind::Straggler)
            .map(|v| v.stage)
            .collect()
    }

    #[test]
    fn pipeline_fill_is_busier_not_slower() {
        // Filling: every stage runs 10 ms tasks, the early ones have run
        // many, the last none. Stage 0 is 190 ms busier than the median
        // peer, at exactly the peers' pace.
        let mut wd = Watchdog::new(4, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        for (stage, n) in [(0, 20), (1, 5), (2, 1)] {
            run_tasks(&mut rec, stage, n, 10_000);
        }
        assert!(wd.observe(&snap_at(&rec, 200_000)).is_empty());
    }

    #[test]
    fn an_eightfold_pace_trips_once() {
        let mut wd = Watchdog::new(4, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        for stage in 0..4u32 {
            let us = if stage == 2 { 160_000 } else { 20_000 };
            run_tasks(&mut rec, stage, 10, us);
        }
        let v = wd.observe(&snap_at(&rec, 2_000_000));
        assert_eq!(stragglers(&v), [2]);
        assert_eq!(v[0].detail, "mean task 160000us vs peer median 20000us");
        run_tasks(&mut rec, 2, 10, 160_000);
        assert!(wd.observe(&snap_at(&rec, 4_000_000)).is_empty(), "latched");
    }

    #[test]
    fn a_slow_pace_must_have_cost_the_floor_in_excess_time() {
        // One 90 ms task against 10 ms peers is a 9x pace that has cost
        // 80 ms so far; the second such task takes the excess past 100 ms.
        let mut wd = Watchdog::new(3, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        run_tasks(&mut rec, 0, 1, 90_000);
        run_tasks(&mut rec, 1, 30, 10_000);
        run_tasks(&mut rec, 2, 30, 10_000);
        assert!(wd.observe(&snap_at(&rec, 300_000)).is_empty());
        run_tasks(&mut rec, 0, 1, 90_000);
        assert_eq!(stragglers(&wd.observe(&snap_at(&rec, 400_000))), [0]);
    }

    #[test]
    fn a_stage_that_has_run_nothing_neither_trips_nor_votes() {
        let mut wd = Watchdog::new(3, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        // Only stage 0 has run: there is no peer pace to hold it to.
        run_tasks(&mut rec, 0, 1, 400_000);
        assert!(wd.observe(&snap_at(&rec, 500_000)).is_empty());
        // Stage 1 sets a pace; idle stage 2 does not pull the median to
        // zero, and is itself no straggler.
        run_tasks(&mut rec, 1, 1, 50_000);
        let v = wd.observe(&snap_at(&rec, 600_000));
        assert_eq!(stragglers(&v), [0]);
        assert_eq!(v[0].detail, "mean task 400000us vs peer median 50000us");
    }

    #[test]
    fn stage_stall_needs_deadline_and_stall_accrual() {
        let cfg = WatchdogConfig {
            stall_deadline_us: 1_000_000,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::new(2, cfg);
        let mut rec = MetricsRecorder::new();
        rec.incr(0, Counter::ForwardTask, 1);
        rec.incr(1, Counter::ForwardTask, 1);
        assert!(wd.observe(&snap_at(&rec, 100_000)).is_empty());
        // Stage 1 stalls (blocked, not bubbled) with no completions.
        rec.incr(1, Counter::StallUs, 2_000_000);
        rec.incr(0, Counter::ForwardTask, 5);
        let v = wd.observe(&snap_at(&rec, 2_100_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::StageStall);
        assert_eq!(v[0].stage, 1);
        // Bubble-only idling (no stall accrual) never trips.
        let mut wd2 = Watchdog::new(2, WatchdogConfig::default());
        let mut rec2 = MetricsRecorder::new();
        rec2.incr(0, Counter::ForwardTask, 1);
        rec2.incr(1, Counter::ForwardTask, 1);
        wd2.observe(&snap_at(&rec2, 100_000));
        rec2.incr(1, Counter::BubbleUs, 20_000_000);
        assert!(wd2.observe(&snap_at(&rec2, 20_000_000)).is_empty());
    }

    #[test]
    fn convoy_trips_when_peers_fully_stall_behind_one_hot_stage() {
        let mut wd = Watchdog::new(4, WatchdogConfig::default());
        let mut rec = MetricsRecorder::new();
        for k in 0..4u32 {
            rec.incr(k, Counter::ForwardTask, 2);
        }
        assert!(wd.observe(&snap_at(&rec, 1_000_000)).is_empty());
        // Over the next 2s window: stage 1 completes 6 tasks, stages
        // 0/2/3 complete nothing and stall the whole window.
        rec.incr(1, Counter::ForwardTask, 6);
        for k in [0u32, 2, 3] {
            rec.incr(k, Counter::StallUs, 2_000_000);
        }
        let v = wd.observe(&snap_at(&rec, 3_000_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::CspConvoy);
        assert_eq!(v[0].stage, 1, "charged to the hot stage");
        assert!(wd.observe(&snap_at(&rec, 5_000_000)).is_empty(), "latched");
    }

    #[test]
    fn observe_is_deterministic_for_equal_snapshot_sequences() {
        let mut rec = MetricsRecorder::new();
        for k in 0..3u32 {
            rec.incr(k, Counter::ForwardTask, 1);
            rec.sample(k, Sample::ForwardLatencyUs, 20_000);
        }
        rec.sample(0, Sample::ForwardLatencyUs, 900_000);
        let mut a = Watchdog::new(3, WatchdogConfig::default());
        let mut b = Watchdog::new(3, WatchdogConfig::default());
        let snaps = [snap_at(&rec, 100_000), snap_at(&rec, 200_000)];
        let va: Vec<_> = snaps.iter().flat_map(|s| a.observe(s)).collect();
        let vb: Vec<_> = snaps.iter().flat_map(|s| b.observe(s)).collect();
        assert_eq!(va, vb);
        assert!(!va.is_empty());
    }

    #[test]
    fn verdict_render_names_kind_stage_and_time() {
        let v = WatchdogVerdict {
            at_us: 42,
            kind: WatchdogVerdictKind::CspConvoy,
            stage: 3,
            detail: "x".into(),
        };
        let line = v.render();
        assert!(line.contains("csp-convoy"));
        assert!(line.contains("stage 3"));
        assert!(line.contains("42us"));
    }
}

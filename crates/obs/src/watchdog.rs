//! Progress watchdog: stall, straggler, and CSP-convoy detectors over
//! the telemetry snapshot stream.
//!
//! A [`Watchdog`] reads the cumulative per-stage [`StageMetrics`] at
//! every sample, borrowed, and emits typed [`WatchdogVerdict`]s. It is a
//! pure function of the observation sequence, which splits determinism
//! cleanly between the engines: the DES hands it its recorder's stages
//! in place at simulated-time crossings, so every verdict (including its
//! `at_us`) is bitwise reproducible across hosts and `NASPIPE_THREADS`;
//! the threaded runtime hands it wall-clock snapshots of its hub, so
//! verdicts there are advisory (timing-dependent) but still
//! side-effect-free — tripping never alters scheduling, only reporting
//! and flight dumps.
//!
//! Every detector latches: one verdict per (kind, stage) per run, so a
//! persistent condition cannot flood the report.

use crate::metrics::{Counter, Sample, StageMetrics};

// Detector thresholds. They are intentionally conservative: a clean
// uniform run must stay at zero trips across the seed matrix (enforced
// by `core`'s watchdog determinism tests).

/// Stage-stall deadline: a stage with stall time accruing but no task
/// completing for this long trips `StageStall`.
const STALL_DEADLINE_US: u64 = 5_000_000;
/// Straggler trip ratio: a stage whose mean task latency reaches this
/// multiple of the peer median trips `Straggler`.
const STRAGGLER_RATIO: f64 = 4.0;
/// Minimum busy time (us) a stage must have spent beyond what its tasks
/// would have cost at the peer-median latency before `Straggler` can
/// trip, so tiny warm-up skews don't fire.
const STRAGGLER_MIN_BUSY_US: u64 = 100_000;
/// Minimum window between two snapshots for the convoy detector to
/// evaluate (rates over shorter windows are too noisy).
const CONVOY_MIN_WINDOW_US: u64 = 1_000_000;

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
pub(crate) const NUM_WATCHDOG_KINDS: usize = WatchdogVerdictKind::CspConvoy as usize + 1;

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
    /// Observation time when `tasks` last advanced.
    progressed_at: u64,
    /// Stall total at that moment.
    stall_at_progress: u64,
}

/// The detector state machine. Feed it the per-stage metrics at every
/// sample via [`observe`](Watchdog::observe); returned verdicts are newly
/// latched.
#[derive(Clone)]
pub struct Watchdog {
    stages: Vec<StageState>,
    prev_at_us: Option<u64>,
    latched: Vec<[bool; NUM_WATCHDOG_KINDS]>,
    convoy_latched: bool,
    /// Scratch for the straggler check, reused so that an observation
    /// that latches nothing allocates nothing: every stage's pace,
    /// ascending.
    paces: Vec<u64>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("stages", &self.stages.len())
            .finish()
    }
}

/// Forward + backward tasks completed.
fn tasks(s: &StageMetrics) -> u64 {
    s.counter(Counter::ForwardTask) + s.counter(Counter::BackwardTask)
}

/// Cumulative `(busy time, tasks timed)`: the forward + backward latency
/// histograms' sums and counts. Deterministic in the DES (simulated
/// durations), measured in the threaded runtime.
fn busy_and_timed(s: &StageMetrics) -> (u64, u64) {
    let (fwd, bwd) = (
        s.histogram(Sample::ForwardLatencyUs),
        s.histogram(Sample::BackwardLatencyUs),
    );
    (fwd.sum + bwd.sum, fwd.count + bwd.count)
}

/// A stage's mean task latency; `None` before it has timed a task.
fn pace(s: &StageMetrics) -> Option<u64> {
    let (busy, timed) = busy_and_timed(s);
    busy.checked_div(timed)
}

/// Lower median of a stage's peers' paces, read from `sorted` (every
/// stage's pace, ascending, `mine` among them) with one instance of
/// `mine` taken out: the `idx`-th of the `m = len − 1` peers is
/// `sorted[idx]` below `mine`'s first position and `sorted[idx + 1]` from
/// it on. Equal paces are interchangeable, so which instance goes does
/// not matter. `None` without a peer.
fn peer_median(sorted: &[u64], mine: u64) -> Option<u64> {
    let idx = sorted.len().checked_sub(2)? / 2;
    let pos = sorted.partition_point(|&v| v < mine);
    Some(if pos <= idx {
        sorted[idx + 1]
    } else {
        sorted[idx]
    })
}

impl Watchdog {
    /// A watchdog for `num_stages` stages.
    pub fn new(num_stages: usize) -> Self {
        Watchdog {
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
            paces: Vec::with_capacity(num_stages),
        }
    }

    /// Runs every detector against the cumulative per-stage metrics
    /// `stages` as of `at_us`, returning verdicts that latched on this
    /// observation. Pure: same observation sequence, same verdicts. Reads
    /// `stages` in place (the DES passes its recorder's, the threaded
    /// runtime its hub snapshot's) and allocates only for what latches.
    pub fn observe(&mut self, at_us: u64, stages: &[StageMetrics]) -> Vec<WatchdogVerdict> {
        let stages = &stages[..self.stages.len().min(stages.len())];
        let mut verdicts = Vec::new();

        // Straggler: a stage's pace — its mean task latency — an outlier
        // vs the peer median of the same. Cumulative busy time will not
        // do: pipeline fill, BSP bulks and injection bursts make one
        // stage busier than its peers by construction, at the same pace.
        // A stage that has timed no task yet neither trips nor votes. One
        // sort of all paces serves every stage's peer median.
        self.paces.clear();
        self.paces.extend(stages.iter().filter_map(pace));
        self.paces.sort_unstable();
        for (k, s) in stages.iter().enumerate() {
            if self.latched[k][WatchdogVerdictKind::Straggler as usize] {
                continue;
            }
            let Some(mine) = pace(s) else { continue };
            let Some(med) = peer_median(&self.paces, mine) else {
                continue;
            };
            let (busy, timed) = busy_and_timed(s);
            let excess = busy.saturating_sub(timed.saturating_mul(med));
            let trip =
                excess >= STRAGGLER_MIN_BUSY_US && (mine as f64) >= STRAGGLER_RATIO * (med as f64);
            if trip {
                self.latched[k][WatchdogVerdictKind::Straggler as usize] = true;
                verdicts.push(WatchdogVerdict {
                    at_us,
                    kind: WatchdogVerdictKind::Straggler,
                    stage: k as u32,
                    detail: format!("mean task {mine}us vs peer median {med}us"),
                });
            }
        }

        // CSP convoy: over a wide-enough window, >=2 stages made no task
        // progress while stalled for (almost) the whole window, and at
        // least one stage did progress — everyone queued behind it.
        let n = stages.len();
        if let Some(prev_at) = self.prev_at_us {
            let dt = at_us.saturating_sub(prev_at);
            if !self.convoy_latched && dt >= CONVOY_MIN_WINDOW_US && n > 2 {
                let mut convoyed = 0usize;
                let mut hot: Option<(usize, u64)> = None;
                for (k, s) in stages.iter().enumerate() {
                    let dtasks = tasks(s) - self.stages[k].tasks;
                    let dstall = s.counter(Counter::StallUs) - self.stages[k].stall;
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
                            at_us,
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
        for (k, s) in stages.iter().enumerate() {
            let (done, stall) = (tasks(s), s.counter(Counter::StallUs));
            let st = &mut self.stages[k];
            if done > st.tasks {
                st.progressed_at = at_us;
                st.stall_at_progress = stall;
            } else if !self.latched[k][WatchdogVerdictKind::StageStall as usize] {
                let idle_for = at_us.saturating_sub(st.progressed_at);
                let stalled_since = stall > st.stall_at_progress;
                if idle_for >= STALL_DEADLINE_US && stalled_since {
                    self.latched[k][WatchdogVerdictKind::StageStall as usize] = true;
                    verdicts.push(WatchdogVerdict {
                        at_us,
                        kind: WatchdogVerdictKind::StageStall,
                        stage: k as u32,
                        detail: format!(
                            "no task completed for {idle_for}us with {}us stall accrued",
                            stall - st.stall_at_progress
                        ),
                    });
                }
            }
            st.tasks = done;
            st.stall = stall;
        }
        self.prev_at_us = Some(at_us);
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRecorder, Recorder};
    use naspipe_supernet::rng::DetRng;

    #[test]
    fn uniform_run_never_trips() {
        let mut wd = Watchdog::new(4);
        let mut rec = MetricsRecorder::new();
        for step in 1..=20u64 {
            for k in 0..4u32 {
                rec.incr(k, Counter::ForwardTask, 1);
                rec.sample(k, Sample::ForwardLatencyUs, 10_000);
            }
            assert!(wd.observe(step * 100_000, rec.stages()).is_empty());
        }
    }

    #[test]
    fn straggler_latches_once_on_outlier_busy_time() {
        let mut wd = Watchdog::new(4);
        let mut rec = MetricsRecorder::new();
        for k in 0..4u32 {
            rec.incr(k, Counter::ForwardTask, 1);
            rec.sample(k, Sample::ForwardLatencyUs, 50_000);
        }
        assert!(wd.observe(100_000, rec.stages()).is_empty());
        // Stage 2 accrues 10x the busy time of its peers.
        rec.sample(2, Sample::ForwardLatencyUs, 500_000);
        let v = wd.observe(200_000, rec.stages());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::Straggler);
        assert_eq!(v[0].stage, 2);
        assert_eq!(v[0].at_us, 200_000);
        // Latched: the same condition does not re-trip.
        assert!(wd.observe(300_000, rec.stages()).is_empty());
    }

    #[test]
    fn straggler_needs_absolute_excess_not_just_ratio() {
        // 40us vs 5us peers is an 8x ratio but far below the 100ms
        // absolute floor — warm-up noise, not a straggler.
        let mut wd = Watchdog::new(3);
        let mut rec = MetricsRecorder::new();
        rec.sample(0, Sample::ForwardLatencyUs, 40);
        rec.sample(1, Sample::ForwardLatencyUs, 5);
        rec.sample(2, Sample::ForwardLatencyUs, 5);
        assert!(wd.observe(1_000_000, rec.stages()).is_empty());
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
        let mut wd = Watchdog::new(4);
        let mut rec = MetricsRecorder::new();
        for (stage, n) in [(0, 20), (1, 5), (2, 1)] {
            run_tasks(&mut rec, stage, n, 10_000);
        }
        assert!(wd.observe(200_000, rec.stages()).is_empty());
    }

    #[test]
    fn an_eightfold_pace_trips_once() {
        let mut wd = Watchdog::new(4);
        let mut rec = MetricsRecorder::new();
        for stage in 0..4u32 {
            let us = if stage == 2 { 160_000 } else { 20_000 };
            run_tasks(&mut rec, stage, 10, us);
        }
        let v = wd.observe(2_000_000, rec.stages());
        assert_eq!(stragglers(&v), [2]);
        assert_eq!(v[0].detail, "mean task 160000us vs peer median 20000us");
        run_tasks(&mut rec, 2, 10, 160_000);
        assert!(wd.observe(4_000_000, rec.stages()).is_empty(), "latched");
    }

    #[test]
    fn a_slow_pace_must_have_cost_the_floor_in_excess_time() {
        // One 90 ms task against 10 ms peers is a 9x pace that has cost
        // 80 ms so far; the second such task takes the excess past 100 ms.
        let mut wd = Watchdog::new(3);
        let mut rec = MetricsRecorder::new();
        run_tasks(&mut rec, 0, 1, 90_000);
        run_tasks(&mut rec, 1, 30, 10_000);
        run_tasks(&mut rec, 2, 30, 10_000);
        assert!(wd.observe(300_000, rec.stages()).is_empty());
        run_tasks(&mut rec, 0, 1, 90_000);
        assert_eq!(stragglers(&wd.observe(400_000, rec.stages())), [0]);
    }

    #[test]
    fn a_stage_that_has_run_nothing_neither_trips_nor_votes() {
        let mut wd = Watchdog::new(3);
        let mut rec = MetricsRecorder::new();
        // Only stage 0 has run: there is no peer pace to hold it to.
        run_tasks(&mut rec, 0, 1, 400_000);
        assert!(wd.observe(500_000, rec.stages()).is_empty());
        // Stage 1 sets a pace; idle stage 2 does not pull the median to
        // zero, and is itself no straggler.
        run_tasks(&mut rec, 1, 1, 50_000);
        let v = wd.observe(600_000, rec.stages());
        assert_eq!(stragglers(&v), [0]);
        assert_eq!(v[0].detail, "mean task 400000us vs peer median 50000us");
    }

    #[test]
    fn stage_stall_needs_deadline_and_stall_accrual() {
        let mut wd = Watchdog::new(2);
        let mut rec = MetricsRecorder::new();
        rec.incr(0, Counter::ForwardTask, 1);
        rec.incr(1, Counter::ForwardTask, 1);
        assert!(wd.observe(100_000, rec.stages()).is_empty());
        // Stage 1 stalls (blocked, not bubbled) with no completions: not
        // yet past the deadline, then past it.
        rec.incr(1, Counter::StallUs, 2_000_000);
        rec.incr(0, Counter::ForwardTask, 5);
        assert!(wd.observe(2_100_000, rec.stages()).is_empty());
        rec.incr(1, Counter::StallUs, 4_000_000);
        let v = wd.observe(STALL_DEADLINE_US + 100_000, rec.stages());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::StageStall);
        assert_eq!(v[0].stage, 1);
        // Bubble-only idling (no stall accrual) never trips.
        let mut wd2 = Watchdog::new(2);
        let mut rec2 = MetricsRecorder::new();
        rec2.incr(0, Counter::ForwardTask, 1);
        rec2.incr(1, Counter::ForwardTask, 1);
        wd2.observe(100_000, rec2.stages());
        rec2.incr(1, Counter::BubbleUs, 20_000_000);
        assert!(wd2.observe(20_000_000, rec2.stages()).is_empty());
    }

    #[test]
    fn convoy_trips_when_peers_fully_stall_behind_one_hot_stage() {
        let mut wd = Watchdog::new(4);
        let mut rec = MetricsRecorder::new();
        for k in 0..4u32 {
            rec.incr(k, Counter::ForwardTask, 2);
        }
        assert!(wd.observe(1_000_000, rec.stages()).is_empty());
        // Over the next 2s window: stage 1 completes 6 tasks, stages
        // 0/2/3 complete nothing and stall the whole window.
        rec.incr(1, Counter::ForwardTask, 6);
        for k in [0u32, 2, 3] {
            rec.incr(k, Counter::StallUs, 2_000_000);
        }
        let v = wd.observe(3_000_000, rec.stages());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, WatchdogVerdictKind::CspConvoy);
        assert_eq!(v[0].stage, 1, "charged to the hot stage");
        assert!(wd.observe(5_000_000, rec.stages()).is_empty(), "latched");
    }

    #[test]
    fn observe_is_deterministic_for_equal_snapshot_sequences() {
        let mut rec = MetricsRecorder::new();
        for k in 0..3u32 {
            rec.incr(k, Counter::ForwardTask, 1);
            rec.sample(k, Sample::ForwardLatencyUs, 20_000);
        }
        rec.sample(0, Sample::ForwardLatencyUs, 900_000);
        let mut a = Watchdog::new(3);
        let mut b = Watchdog::new(3);
        let times = [100_000, 200_000];
        let va: Vec<_> = times
            .iter()
            .flat_map(|&t| a.observe(t, rec.stages()))
            .collect();
        let vb: Vec<_> = times
            .iter()
            .flat_map(|&t| b.observe(t, rec.stages()))
            .collect();
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

    #[test]
    fn peer_median_drops_one_instance_of_the_stage_itself() {
        assert_eq!(peer_median(&[7], 7), None, "no peer");
        assert_eq!(peer_median(&[3, 7], 7), Some(3));
        assert_eq!(peer_median(&[3, 7], 3), Some(7));
        assert_eq!(peer_median(&[5, 5, 5], 5), Some(5), "ties");
        // Peers of 1 in [1, 2, 3, 4]: [2, 3, 4], lower median 3; of 4:
        // [1, 2, 3], lower median 2.
        assert_eq!(peer_median(&[1, 2, 3, 4], 1), Some(3));
        assert_eq!(peer_median(&[1, 2, 3, 4], 4), Some(2));
        assert_eq!(peer_median(&[1, 2, 2, 4], 2), Some(2));
    }

    /// The peer median the one-sort lookup replaced, kept as the oracle
    /// the differential tests compare against: collect the other stages'
    /// paces and sort them, once per stage.
    fn reference_peer_median(pace: &[Option<u64>], k: usize) -> Option<u64> {
        let mut peers: Vec<u64> = (0..pace.len())
            .filter(|&j| j != k)
            .filter_map(|j| pace[j])
            .collect();
        peers.sort_unstable();
        peers.get(peers.len().checked_sub(1)? / 2).copied()
    }

    /// The straggler check as it was, over [`reference_peer_median`].
    fn reference_stragglers(
        at: u64,
        stages: &[StageMetrics],
        latched: &mut [bool],
    ) -> Vec<WatchdogVerdict> {
        let pace: Vec<Option<u64>> = stages.iter().map(pace).collect();
        let mut verdicts = Vec::new();
        for (k, s) in stages.iter().enumerate() {
            if latched[k] {
                continue;
            }
            let Some(mine) = pace[k] else { continue };
            let Some(med) = reference_peer_median(&pace, k) else {
                continue;
            };
            let (busy, timed) = busy_and_timed(s);
            let excess = busy.saturating_sub(timed.saturating_mul(med));
            let trip =
                excess >= STRAGGLER_MIN_BUSY_US && (mine as f64) >= STRAGGLER_RATIO * (med as f64);
            if trip {
                latched[k] = true;
                verdicts.push(WatchdogVerdict {
                    at_us: at,
                    kind: WatchdogVerdictKind::Straggler,
                    stage: k as u32,
                    detail: format!("mean task {mine}us vs peer median {med}us"),
                });
            }
        }
        verdicts
    }

    /// Observes `d` stages `steps` times and checks every observation's
    /// straggler verdicts against [`reference_stragglers`], and every
    /// stage's peer median against [`reference_peer_median`] (a median
    /// above the stage's own pace cannot trip, so verdicts alone would
    /// not see it wrong); returns how many verdicts latched. Half the
    /// stages run one fixed latency from a short list (so paces tie),
    /// three in ten draw from it per task, a fifth never time a task
    /// (`None` pace), and any stage may time none for a while. Stages
    /// latched earlier keep voting in later observations.
    fn stragglers_match_reference(seed: u64, d: usize, steps: usize) -> Result<usize, String> {
        const LATENCIES: [u64; 6] = [5_000, 10_000, 10_000, 40_000, 90_000, 400_000];
        let mut rng = DetRng::new(seed);
        let mut wd = Watchdog::new(d);
        let mut latched = vec![false; d];
        let mut stages = vec![StageMetrics::default(); d];
        let plan: Vec<Option<Option<u64>>> = (0..d)
            .map(|_| match rng.index(10) {
                0..=1 => None,
                2..=6 => Some(Some(LATENCIES[rng.index(LATENCIES.len())])),
                _ => Some(None),
            })
            .collect();
        let mut latches = 0;
        for step in 1..=steps {
            for (s, plan) in stages.iter_mut().zip(&plan) {
                let Some(fixed) = *plan else { continue };
                for _ in 0..rng.index(4) {
                    let h = &mut s.samples[Sample::ForwardLatencyUs as usize];
                    h.sum += fixed.unwrap_or_else(|| LATENCIES[rng.index(LATENCIES.len())]);
                    h.count += 1;
                }
            }
            let at = step as u64 * 200_000;
            let got: Vec<_> = wd
                .observe(at, &stages)
                .into_iter()
                .filter(|v| v.kind == WatchdogVerdictKind::Straggler)
                .collect();
            let pace: Vec<Option<u64>> = stages.iter().map(pace).collect();
            let mut sorted: Vec<u64> = pace.iter().flatten().copied().collect();
            sorted.sort_unstable();
            for (k, mine) in pace.iter().enumerate() {
                let Some(mine) = *mine else { continue };
                let (have, want) = (peer_median(&sorted, mine), reference_peer_median(&pace, k));
                if have != want {
                    return Err(format!(
                        "seed {seed}, {d} stages, step {step}, stage {k}: median {have:?} vs {want:?}"
                    ));
                }
            }
            let want = reference_stragglers(at, &stages, &mut latched);
            if got != want {
                return Err(format!(
                    "seed {seed}, {d} stages, step {step}: {got:?} vs reference {want:?}"
                ));
            }
            latches += got.len();
        }
        Ok(latches)
    }

    #[test]
    fn one_sort_latches_the_reference_verdicts_at_the_edges() {
        let mut latches = [0; 4];
        for seed in 0..200 {
            for (i, d) in [1, 2, 3, 32].into_iter().enumerate() {
                latches[i] += stragglers_match_reference(seed, d, 6).unwrap();
            }
        }
        assert_eq!(latches[0], 0, "a lone stage has no peer to be slow against");
        assert!(latches[1..].iter().all(|&n| n > 0), "{latches:?}");
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The one-sort peer median latches exactly the straggler
            /// verdicts — stage, trip time and evidence — of the
            /// per-stage collect-and-sort it replaced, at D = 1 to 64.
            #[test]
            fn one_sort_latches_the_reference_verdicts(
                seed in 0u64..u64::MAX,
                d in 1usize..65,
                steps in 1usize..8,
            ) {
                let checked = stragglers_match_reference(seed, d, steps);
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
        }
    }
}

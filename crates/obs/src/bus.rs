//! The run-scoped event bus: the one place an engine's notices fan out
//! to the sinks every stage shares.
//!
//! ```text
//!                                              ┌▶ flight ring  (kind, detail)
//! engine ─ emit(stage, at_us, RunEvent) ─▶ one ├▶ journal      (level, kind, stage, msg, fields)
//!                                        match │                 └▶ ring · sink file · stderr mirror
//! engine ─ sample(&snapshot) ─▶ hub ring       ├▶ hub          (incarnation, watchdog trips)
//! engine ─ observe(&stages) ─▶ watchdog ─trip─▶├▶ OpsState     (phase, totals, watermarks, last cut)
//!                                              └▶ flight dump  (reason)
//! ```
//!
//! Both engines call only [`EventBus::start`], [`emit`](EventBus::emit),
//! [`sample`](EventBus::sample), [`observe`](EventBus::observe) and
//! [`finish`](EventBus::finish); which event reaches which sink, at which
//! level, with which message and fields is the `match` in `emit` and
//! nowhere else. The per-task events are one ring write: they never
//! format and never allocate.
//!
//! **Shared vs per-thread sinks.** The bus owns what is written from
//! several threads and read while the run is alive — the threaded
//! runtime's counters included: its stages, supervisor and snapshot
//! writer all write the hub's atomic cells, the run's one ledger. A
//! worker's spans ([`SpanTracer`](crate::SpanTracer)) stay with the
//! worker: they are lock-free *because* nobody else writes them.
//!
//! **The journal always exists.** A caller that attaches an
//! [`OpsState`] brings its journal (ring, optional sink file, optional
//! mirror). A caller that attaches none gets a private mirror-only one,
//! so a warning is one `emit` either way and reaches stderr as
//! `naspipe: <msg>` exactly as a journalled run prints it — the engines
//! never ask which of the two they have.

use crate::flight::{FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::journal::{Journal, JournalLevel};
use crate::metrics::StageMetrics;
use crate::ops::{OpsState, RunPhase};
use crate::report::ObsReport;
use crate::status;
use crate::telemetry::{progress_line, MetricsSnapshot, TelemetryHub, TelemetryOptions};
use crate::watchdog::{Watchdog, WatchdogVerdict};
use std::fmt::Display;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything an engine can tell the shared sinks. The `stage` and
/// `at_us` of an event are [`EventBus::emit`]'s arguments; run-level
/// events ignore `stage` unless their documentation names one.
#[derive(Clone, Copy)]
pub enum RunEvent<'a> {
    /// The scheduler admitted the forward of subnet `subnet`.
    Admission { subnet: u64 },
    /// `queued` forwards are waiting but the CSP rule admits none.
    CspStall { queued: u64 },
    /// A task blocked on a synchronous fetch of `bytes` missing bytes.
    FetchWait { bytes: u64 },
    /// An injected fault fired on `subnet`'s task.
    Fault { subnet: u64 },
    /// `stage` has finished every subnet below `watermark`.
    Watermark { watermark: u64 },
    /// `stage` snapshotted itself at the cut boundary `watermark`;
    /// `completed` when its snapshot was the one that closed the cut.
    CheckpointCut { watermark: u64, completed: bool },
    /// The completed cut at `watermark`, which `stage` closed, is on disk.
    DurablePersist { watermark: u64 },
    /// Persisting the cut at `watermark` failed with `error`; training
    /// continues on the in-memory checkpoints.
    DurablePersistFailed {
        watermark: u64,
        error: &'a dyn Display,
    },
    /// The snapshot file `path` was unusable (`why`) and skipped.
    DurableSkip { path: &'a Path, why: &'a str },
    /// The run resumes from the durable cut at `watermark`, loaded from
    /// `path`.
    DurableResume { watermark: u64, path: &'a Path },
    /// A resume found no usable snapshot in `dir`: a fresh start.
    DurableScratch { dir: &'a Path },
    /// The supervisor rolls every stage back to `watermark` after
    /// `stage` failed with `error`; `incarnation` (1 for the first
    /// restart) takes over.
    Restart {
        incarnation: u32,
        watermark: u64,
        error: &'a dyn Display,
    },
    /// A watchdog detector latched (emitted by [`EventBus::observe`], at
    /// the verdict's own stage and time).
    WatchdogTrip(&'a WatchdogVerdict),
    /// The pipeline starts admitting work on `subnets` subnets (emitted
    /// by [`EventBus::start`]).
    RunStart { subnets: u64 },
    /// The run trained its `subnets` subnets (emitted by
    /// [`EventBus::finish`]); `restarts` for engines that have them.
    RunEnd { subnets: u64, restarts: Option<u32> },
    /// The run ends in `error`, surfaced on `stage`.
    RunFailed { error: &'a dyn Display },
}

/// Diagnosis-layer knobs shared by both engines: the always-on flight
/// recorder, the progress watchdog and the ops plane; what
/// [`EventBus::new`] builds a run's shared sinks from. Engines take it as
/// `naspipe_core::config::DiagnosticsOptions`.
///
/// None of these may ever change training results or schedules: they
/// only observe (proven by the bitwise-equal run tests). Perturbing the
/// DES's timing is the cost hook's job (`SimSpec::cost`).
#[derive(Debug, Clone)]
pub struct DiagnosticsOptions {
    /// Master switch for the flight recorder + watchdog. On by default
    /// (the subsystems are designed to be always-on and lock-light).
    pub enabled: bool,
    /// Write a `.flight.json` dump to this path at end of run (dumps on
    /// faults and watchdog trips also use it). `None` disables dumping;
    /// recording still happens.
    pub flight_dump: Option<String>,
    /// Live ops-plane state ([`/status`](crate::ops::OpsState), journal,
    /// readiness). `Some` makes its journal the one the run's events land
    /// in (`None`: a private one that only mirrors warnings to stderr)
    /// and publishes phase, totals, checkpoint cuts and the per-stage CSP
    /// watermarks to the HTTP surface. Observation only — never affects
    /// results.
    pub ops: Option<Arc<OpsState>>,
}

impl Default for DiagnosticsOptions {
    fn default() -> Self {
        DiagnosticsOptions {
            enabled: true,
            flight_dump: None,
            ops: None,
        }
    }
}

impl PartialEq for DiagnosticsOptions {
    fn eq(&self, other: &Self) -> bool {
        let ops_eq = match (&self.ops, &other.ops) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.enabled == other.enabled && self.flight_dump == other.flight_dump && ops_eq
    }
}

impl DiagnosticsOptions {
    /// Disables the flight recorder and watchdog entirely (the
    /// bitwise-equal tests compare against this).
    pub fn disabled() -> Self {
        DiagnosticsOptions {
            enabled: false,
            ..DiagnosticsOptions::default()
        }
    }

    /// Attaches the live ops-plane state (builder-style).
    pub fn with_ops(mut self, ops: Arc<OpsState>) -> Self {
        self.ops = Some(ops);
        self
    }
}

struct Inner {
    engine: &'static str,
    stages: u32,
    flight: Option<Arc<FlightRecorder>>,
    dump: Option<String>,
    journal: Arc<Journal>,
    hub: Option<Arc<TelemetryHub>>,
    /// The hub is the caller's: embed its series in the report.
    exported: bool,
    progress: bool,
    ops: Option<Arc<OpsState>>,
    /// The detectors and the verdicts they have latched so far.
    watchdog: Option<Mutex<(Watchdog, Vec<WatchdogVerdict>)>>,
}

/// Cheaply clonable handle on one run's shared sinks (see the module
/// docs). Every stage worker holds a clone; the sinks live until the
/// last clone drops.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<Inner>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if self.progress {
            status::newline();
        }
    }
}

impl Inner {
    fn fly(&self, stage: u32, at_us: u64, kind: FlightEventKind, detail: u64) {
        if let Some(f) = &self.flight {
            f.record(stage, at_us, kind, detail);
        }
    }

    /// Writes the ring to the dump path, tagged with why. A failed dump
    /// is reported and otherwise ignored: diagnosis never takes a run
    /// down.
    fn dump(&self, reason: &str) {
        if let (Some(f), Some(path)) = (&self.flight, &self.dump) {
            if let Err(e) = f.snapshot().write_dump(path, reason) {
                status::alert(&format!("naspipe: flight dump to {path} failed: {e}"));
            }
        }
    }

    fn watchdog(&self) -> Option<MutexGuard<'_, (Watchdog, Vec<WatchdogVerdict>)>> {
        // The state is valid after every statement that touches it, so a
        // thread that panicked mid-observation loses nothing.
        self.watchdog
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }
}

impl EventBus {
    /// Builds one run's shared sinks for `stages` pipeline stages (they
    /// size the flight ring, the watchdog and a private hub). `engine`
    /// names the run in its run-start line (`"threaded"`, `"des"`);
    /// `telemetry` is the caller's hub: snapshots are published to it and
    /// the sampled series is embedded in the final report. `wall_clock`
    /// is the threaded runtime: its stages count into a hub even when the
    /// caller exports none (a private one is built), and a sample may
    /// repaint the progress line. (Simulated time would repaint it
    /// thousands of times a second.)
    pub fn new(
        engine: &'static str,
        stages: u32,
        diag: &DiagnosticsOptions,
        telemetry: Option<&TelemetryOptions>,
        wall_clock: bool,
    ) -> Self {
        let n = stages as usize;
        let hub = match telemetry {
            Some(t) => Some(Arc::clone(&t.hub)),
            None => wall_clock.then(|| Arc::new(TelemetryHub::new(n, 0))),
        };
        EventBus {
            inner: Arc::new(Inner {
                engine,
                stages,
                flight: diag
                    .enabled
                    .then(|| Arc::new(FlightRecorder::new(n, DEFAULT_FLIGHT_CAPACITY))),
                dump: diag.flight_dump.clone(),
                journal: match &diag.ops {
                    Some(ops) => ops.journal(),
                    None => Arc::new(Journal::new(0).with_mirror()),
                },
                hub,
                exported: telemetry.is_some(),
                progress: wall_clock && telemetry.is_some_and(|t| t.progress),
                ops: diag.ops.clone(),
                watchdog: diag
                    .enabled
                    .then(|| Mutex::new((Watchdog::new(n), Vec::new()))),
            }),
        }
    }

    /// The hub a wall-clock run counts into: the caller's, or the private
    /// one. `None` for a DES run that exports none.
    pub fn hub(&self) -> Option<&Arc<TelemetryHub>> {
        self.inner.hub.as_ref()
    }

    /// The pipeline is about to admit work on `subnets` subnets.
    pub fn start(&self, subnets: u64) {
        self.emit(0, 0, RunEvent::RunStart { subnets });
    }

    /// Routes one event to the sinks it concerns. Columns of the table,
    /// per arm: flight ring, hub and ops-plane gauges, flight dump,
    /// journal line.
    pub fn emit(&self, stage: u32, at_us: u64, event: RunEvent<'_>) {
        use FlightEventKind as F;
        use JournalLevel::{Error, Info, Warn};
        let b = &*self.inner;
        let (ops, hub, here) = (b.ops.as_deref(), b.hub.as_deref(), Some(stage));
        let log = |level, kind, stage, msg: String, fields: &[(&str, &dyn Display)]| {
            let fields = fields.iter().map(|(k, v)| (k.to_string(), v.to_string()));
            b.journal
                .emit(level, kind, stage, at_us, msg, fields.collect());
        };
        // For the Info lines a terminal still gets: the journal's own
        // mirror starts at Warn.
        let say = |msg: &str| status::alert(&format!("naspipe: {msg}"));
        match event {
            RunEvent::Admission { subnet } => b.fly(stage, at_us, F::Admission, subnet),
            RunEvent::CspStall { queued } => b.fly(stage, at_us, F::CspStall, queued),
            RunEvent::FetchWait { bytes } => b.fly(stage, at_us, F::FetchWait, bytes),
            RunEvent::Fault { subnet } => b.fly(stage, at_us, F::Fault, subnet),
            RunEvent::Watermark { watermark } => {
                if let Some(ops) = ops {
                    ops.note_stage_watermark(stage, watermark);
                }
            }
            RunEvent::CheckpointCut {
                watermark,
                completed,
            } => {
                b.fly(stage, at_us, F::CheckpointCut, watermark);
                if let Some(ops) = ops {
                    ops.note_stage_watermark(stage, watermark);
                }
                if completed {
                    if let Some(ops) = ops {
                        ops.record_cut(watermark);
                    }
                    let msg = format!("checkpoint cut complete at watermark {watermark}");
                    log(
                        Info,
                        "checkpoint-cut",
                        here,
                        msg,
                        &[("watermark", &watermark)],
                    );
                }
            }
            RunEvent::DurablePersist { watermark } => {
                let msg = format!("persisted watermark {watermark}");
                log(
                    Info,
                    "durable-persist",
                    here,
                    msg,
                    &[("watermark", &watermark)],
                );
            }
            RunEvent::DurablePersistFailed { watermark, error } => {
                let msg = format!(
                    "persisting watermark {watermark} failed \
                     (training continues on in-memory checkpoints): {error}"
                );
                let kind = "durable-persist-failed";
                log(Warn, kind, here, msg, &[("watermark", &watermark)]);
            }
            RunEvent::DurableSkip { path, why } => {
                let msg = format!("skipping snapshot {}: {why}", path.display());
                log(
                    Warn,
                    "durable-skip",
                    None,
                    msg,
                    &[("path", &path.display())],
                );
            }
            RunEvent::DurableResume { watermark, path } => {
                if let Some(ops) = ops {
                    ops.set_resume_watermark(watermark);
                }
                let msg = format!("resuming from watermark {watermark} ({})", path.display());
                say(&msg);
                log(
                    Info,
                    "durable-resume",
                    None,
                    msg,
                    &[("watermark", &watermark)],
                );
            }
            RunEvent::DurableScratch { dir } => {
                let dir = dir.display();
                let msg = format!("no usable snapshot in {dir}; starting from scratch");
                say(&msg);
                log(Info, "durable-scratch", None, msg, &[]);
            }
            RunEvent::Restart {
                incarnation,
                watermark,
                error,
            } => {
                // One mark per stage, tagged with the incarnation that
                // ends; the ring right now holds the lead-up to the
                // failure, so it is dumped before anything else happens.
                let ended = u64::from(incarnation.saturating_sub(1));
                for k in 0..b.stages {
                    b.fly(k, at_us, F::Recovery, ended);
                }
                b.dump("fault");
                if let Some(hub) = hub {
                    hub.set_incarnation(incarnation);
                }
                if let Some(ops) = ops {
                    // Everything below the resume point is trained by
                    // definition: this floors every stage watermark.
                    ops.set_resume_watermark(watermark);
                }
                let msg = format!(
                    "restart {incarnation}: rolling back to watermark {watermark} after {error}"
                );
                let fields: [(&str, &dyn Display); 2] =
                    [("incarnation", &incarnation), ("watermark", &watermark)];
                log(Warn, "restart", here, msg, &fields);
            }
            RunEvent::WatchdogTrip(v) => {
                b.fly(stage, at_us, F::WatchdogTrip, v.kind as u64);
                if let Some(hub) = hub {
                    hub.record_watchdog_trip(v.kind);
                }
                // A trip is the moment the ring's recent history is
                // worth keeping.
                b.dump("watchdog-trip");
                let fields: [(&str, &dyn Display); 2] =
                    [("verdict", &v.kind.name()), ("detail", &v.detail)];
                log(Warn, "watchdog-trip", here, v.render(), &fields);
            }
            RunEvent::RunStart { subnets } => {
                if let Some(hub) = hub {
                    hub.set_incarnation(0);
                }
                if let Some(ops) = ops {
                    ops.set_total_subnets(subnets);
                    if let Some(f) = &b.flight {
                        ops.attach_flight(Arc::clone(f));
                    }
                    ops.set_phase(RunPhase::Running);
                }
                let (engine, stages) = (b.engine, b.stages);
                let msg =
                    format!("{engine} run admitting work: {stages} stage(s), {subnets} subnet(s)");
                let fields: [(&str, &dyn Display); 2] =
                    [("stages", &stages), ("subnets", &subnets)];
                log(Info, "run-start", None, msg, &fields);
            }
            RunEvent::RunEnd { subnets, restarts } => {
                if let Some(ops) = ops {
                    ops.set_phase(RunPhase::Done);
                }
                let msg = format!("run complete: {subnets} subnet(s)");
                match restarts {
                    Some(n) => {
                        let msg = format!("{msg}, {n} restart(s)");
                        log(Info, "run-end", None, msg, &[("restarts", &n)]);
                    }
                    None => log(Info, "run-end", None, msg, &[]),
                }
            }
            RunEvent::RunFailed { error } => {
                b.dump("fault-escalation");
                if let Some(ops) = ops {
                    ops.set_phase(RunPhase::Failed);
                }
                log(
                    Error,
                    "run-failed",
                    here,
                    format!("run failed: {error}"),
                    &[],
                );
            }
        }
    }

    /// One sampling tick over `snap`, taken by the threaded runtime's
    /// supervisor on its wall clock while it waits on its workers, and by
    /// the DES when simulated time crosses its hub's interval. The
    /// snapshot is pushed onto an exported hub's ring — the one copy made
    /// of it — and repaints the progress line; a private hub has no ring
    /// anyone reads, so it is not copied there. With `observe`, the
    /// watchdog then runs over it, as [`observe`](Self::observe).
    pub fn sample(&self, snap: &MetricsSnapshot, observe: bool) {
        let b = &*self.inner;
        if let (Some(hub), true) = (&b.hub, b.exported) {
            let prev = if b.progress { hub.latest() } else { None };
            hub.publish_snapshot(snap);
            if b.progress {
                status::progress(&progress_line(snap, prev.as_ref()));
            }
        }
        if observe {
            self.observe(snap.at_us, &snap.stages);
        }
    }

    /// One watchdog tick over the cumulative per-stage metrics `stages`
    /// as of `at_us`, read in place: every verdict that latches is
    /// emitted as a [`RunEvent::WatchdogTrip`]. The DES calls this on the
    /// watchdog's own simulated-time cadence with its recorder's stages,
    /// so it copies no snapshot unless a hub is due one. A no-op with
    /// diagnostics off.
    pub fn observe(&self, at_us: u64, stages: &[StageMetrics]) {
        let fresh = match self.inner.watchdog() {
            Some(mut guard) => {
                let fresh = guard.0.observe(at_us, stages);
                guard.1.extend(fresh.iter().cloned());
                fresh
            }
            None => return,
        };
        for v in &fresh {
            self.emit(v.stage, v.at_us, RunEvent::WatchdogTrip(v));
        }
    }

    /// Closes a successful run: folds the sampled series (of an exported
    /// hub), the latched verdicts and the flight summary into `report`,
    /// writes the end-of-run flight dump and emits the run-end event at
    /// the report's wall time.
    pub fn finish(&self, mut report: ObsReport, subnets: u64, restarts: Option<u32>) -> ObsReport {
        let b = &*self.inner;
        if let (Some(hub), true) = (&b.hub, b.exported) {
            let (series, dropped) = hub.series_points();
            report = report.with_series(series, dropped);
        }
        if let Some(mut guard) = b.watchdog() {
            report = report.with_watchdog(std::mem::take(&mut guard.1));
        }
        if let Some(f) = &b.flight {
            b.dump("end-of-run");
            report = report.with_flight(f.snapshot().summary());
        }
        self.emit(0, report.wall_us, RunEvent::RunEnd { subnets, restarts });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
    use crate::metrics::{Counter, MetricsRecorder, Recorder, Sample};
    use crate::report::RunMeta;
    use crate::watchdog::WatchdogVerdictKind;

    /// Which sinks a bus under test is given.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Sinks {
        /// Diagnostics off, no ops plane: the private journal and hub.
        None,
        /// Flight ring, watchdog and private hub; private journal.
        Flight,
        /// The caller's ops plane (journal without a mirror); no ring.
        Journal,
        /// Ring, watchdog, the caller's hub and a mirroring journal.
        All,
    }

    struct Rig {
        bus: EventBus,
        ops: Option<Arc<OpsState>>,
        dump: std::path::PathBuf,
    }

    fn rig_with(sinks: Sinks, tag: &str) -> Rig {
        let hub = Arc::new(TelemetryHub::new(2, 0));
        let journal = match sinks {
            Sinks::All => Journal::new(0).with_mirror(),
            _ => Journal::new(0),
        };
        let ops = matches!(sinks, Sinks::Journal | Sinks::All).then(|| {
            let meta = RunMeta::new("threaded", 2).seed(1);
            Arc::new(OpsState::new(meta, Arc::clone(&hub), Arc::new(journal)))
        });
        let topts = TelemetryOptions::new(hub);
        let dump = std::env::temp_dir().join(format!(
            "naspipe-bus-{}-{tag}-{sinks:?}.flight.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dump);
        let diag = DiagnosticsOptions {
            enabled: matches!(sinks, Sinks::Flight | Sinks::All),
            flight_dump: dump.to_str().map(str::to_string),
            ops: ops.clone(),
        };
        let bus = EventBus::new("threaded", 2, &diag, ops.as_ref().map(|_| &topts), true);
        Rig { bus, ops, dump }
    }

    /// `phase total resume cut incarnation trips watermarks`, as
    /// `/status` reports them.
    fn gauges(ops: &OpsState) -> String {
        let doc = parse_json(&ops.render_status()).expect("status parses");
        let n = |v: Option<&JsonValue>| {
            v.and_then(JsonValue::as_u64)
                .map_or("-".into(), |n| n.to_string())
        };
        let trips: Vec<String> = WatchdogVerdictKind::ALL
            .iter()
            .map(|k| n(doc.get("watchdog").and_then(|w| w.get(k.name()))))
            .collect();
        let marks: Vec<String> = doc
            .get("stages_detail")
            .and_then(JsonValue::as_arr)
            .expect("stage rows")
            .iter()
            .map(|row| n(row.get("watermark")))
            .collect();
        format!(
            "{} {} {} {} {} {} {}",
            doc.get("phase").and_then(JsonValue::as_str).expect("phase"),
            n(doc.get("total_subnets")),
            n(doc.get("resume_watermark")),
            n(doc.get("last_cut")),
            n(doc.get("incarnation")),
            trips.join("/"),
            marks.join("/"),
        )
    }

    /// One row of the routing table: an event, and what each sink must
    /// hold after it on a fresh two-stage bus (emitted on stage 1 at
    /// 77 µs).
    struct Row<'a> {
        event: RunEvent<'a>,
        /// Ring contents, `stage kind detail`, when there is a ring.
        flight: &'a [&'a str],
        /// The journal line, `level kind stage "msg" fields`.
        journal: Option<&'a str>,
        /// Printed to stderr whatever the level and the journal's mirror.
        always_stderr: bool,
        /// [`gauges`] afterwards, when an ops plane is attached.
        gauges: &'a str,
        /// Reason of the flight dump written, when there is a ring.
        dump: Option<&'a str>,
    }

    const UNTOUCHED: &str = "starting 0 0 - 0 0/0/0 0/0";

    #[test]
    fn every_event_reaches_exactly_its_sinks() {
        let verdict = WatchdogVerdict {
            at_us: 77,
            kind: WatchdogVerdictKind::Straggler,
            stage: 1,
            detail: "busy 9us vs peer median 1us".into(),
        };
        let snap = Path::new("ck/ckpt-16.snap");
        let quiet = |event, flight| Row {
            event,
            flight,
            journal: None,
            always_stderr: false,
            gauges: UNTOUCHED,
            dump: None,
        };
        let rows = [
            quiet(RunEvent::Admission { subnet: 5 }, &["1 admission 5"]),
            quiet(RunEvent::CspStall { queued: 3 }, &["1 csp-stall 3"]),
            quiet(RunEvent::FetchWait { bytes: 4096 }, &["1 fetch-wait 4096"]),
            quiet(RunEvent::Fault { subnet: 5 }, &["1 fault 5"]),
            Row {
                gauges: "starting 0 0 - 0 0/0/0 0/6",
                ..quiet(RunEvent::Watermark { watermark: 6 }, &[])
            },
            Row {
                gauges: "starting 0 0 - 0 0/0/0 0/8",
                ..quiet(
                    RunEvent::CheckpointCut {
                        watermark: 8,
                        completed: false,
                    },
                    &["1 checkpoint-cut 8"],
                )
            },
            Row {
                event: RunEvent::CheckpointCut {
                    watermark: 8,
                    completed: true,
                },
                flight: &["1 checkpoint-cut 8"],
                journal: Some(
                    r#"info checkpoint-cut Some(1) "checkpoint cut complete at watermark 8" [("watermark", "8")]"#,
                ),
                always_stderr: false,
                gauges: "starting 0 0 8 0 0/0/0 0/8",
                dump: None,
            },
            Row {
                journal: Some(
                    r#"info durable-persist Some(1) "persisted watermark 8" [("watermark", "8")]"#,
                ),
                ..quiet(RunEvent::DurablePersist { watermark: 8 }, &[])
            },
            Row {
                journal: Some(
                    r#"warn durable-persist-failed Some(1) "persisting watermark 8 failed (training continues on in-memory checkpoints): disk full" [("watermark", "8")]"#,
                ),
                ..quiet(
                    RunEvent::DurablePersistFailed {
                        watermark: 8,
                        error: &"disk full",
                    },
                    &[],
                )
            },
            // The line `tests/crash_recovery.rs` greps for.
            Row {
                journal: Some(
                    r#"warn durable-skip None "skipping snapshot ck/ckpt-16.snap: bad checksum" [("path", "ck/ckpt-16.snap")]"#,
                ),
                ..quiet(
                    RunEvent::DurableSkip {
                        path: snap,
                        why: "bad checksum",
                    },
                    &[],
                )
            },
            // The line `tests/crash_recovery.rs` reads the resume watermark from.
            Row {
                journal: Some(
                    r#"info durable-resume None "resuming from watermark 16 (ck/ckpt-16.snap)" [("watermark", "16")]"#,
                ),
                always_stderr: true,
                gauges: "starting 0 16 - 0 0/0/0 16/16",
                ..quiet(
                    RunEvent::DurableResume {
                        watermark: 16,
                        path: snap,
                    },
                    &[],
                )
            },
            Row {
                journal: Some(
                    r#"info durable-scratch None "no usable snapshot in ck; starting from scratch" []"#,
                ),
                always_stderr: true,
                ..quiet(
                    RunEvent::DurableScratch {
                        dir: Path::new("ck"),
                    },
                    &[],
                )
            },
            Row {
                event: RunEvent::Restart {
                    incarnation: 2,
                    watermark: 8,
                    error: &"stage 1: worker thread panicked",
                },
                flight: &["0 recovery 1", "1 recovery 1"],
                journal: Some(
                    r#"warn restart Some(1) "restart 2: rolling back to watermark 8 after stage 1: worker thread panicked" [("incarnation", "2"), ("watermark", "8")]"#,
                ),
                always_stderr: false,
                gauges: "starting 0 8 - 2 0/0/0 8/8",
                dump: Some("fault"),
            },
            Row {
                event: RunEvent::WatchdogTrip(&verdict),
                flight: &["1 watchdog-trip 1"],
                journal: Some(
                    r#"warn watchdog-trip Some(1) "watchdog: straggler on stage 1 at 77us (busy 9us vs peer median 1us)" [("verdict", "straggler"), ("detail", "busy 9us vs peer median 1us")]"#,
                ),
                always_stderr: false,
                gauges: "starting 0 0 - 0 0/1/0 0/0",
                dump: Some("watchdog-trip"),
            },
            Row {
                journal: Some(
                    r#"info run-start None "threaded run admitting work: 2 stage(s), 20 subnet(s)" [("stages", "2"), ("subnets", "20")]"#,
                ),
                gauges: "running 20 0 - 0 0/0/0 0/0",
                ..quiet(RunEvent::RunStart { subnets: 20 }, &[])
            },
            Row {
                journal: Some(
                    r#"info run-end None "run complete: 20 subnet(s), 1 restart(s)" [("restarts", "1")]"#,
                ),
                gauges: "done 0 0 - 0 0/0/0 0/0",
                ..quiet(
                    RunEvent::RunEnd {
                        subnets: 20,
                        restarts: Some(1),
                    },
                    &[],
                )
            },
            Row {
                journal: Some(r#"info run-end None "run complete: 24 subnet(s)" []"#),
                gauges: "done 0 0 - 0 0/0/0 0/0",
                ..quiet(
                    RunEvent::RunEnd {
                        subnets: 24,
                        restarts: None,
                    },
                    &[],
                )
            },
            Row {
                event: RunEvent::RunFailed {
                    error: &"stage 1: worker thread panicked",
                },
                flight: &[],
                journal: Some(
                    r#"error run-failed Some(1) "run failed: stage 1: worker thread panicked" []"#,
                ),
                always_stderr: false,
                gauges: "failed 0 0 - 0 0/0/0 0/0",
                dump: Some("fault-escalation"),
            },
        ];

        for (i, row) in rows.iter().enumerate() {
            for sinks in [Sinks::None, Sinks::Flight, Sinks::Journal, Sinks::All] {
                let rig = rig_with(sinks, &format!("row{i}"));
                let what = format!("row {i} with sinks {sinks:?}");
                let stderr = status::tests::capture(|| rig.bus.emit(1, 77, row.event));
                let b = &*rig.bus.inner;

                let ring: Vec<String> = b
                    .flight
                    .iter()
                    .flat_map(|f| f.snapshot().events)
                    .map(|e| {
                        assert_eq!(e.at_us, 77, "{what}");
                        format!("{} {} {}", e.stage, e.kind.name(), e.detail)
                    })
                    .collect();
                let has_ring = matches!(sinks, Sinks::Flight | Sinks::All);
                assert_eq!(
                    ring,
                    if has_ring {
                        row.flight.to_vec()
                    } else {
                        vec![]
                    },
                    "{what}"
                );

                let lines: Vec<String> = b
                    .journal
                    .snapshot()
                    .iter()
                    .map(|e| {
                        assert_eq!(e.at_us, 77, "{what}");
                        format!(
                            "{} {} {:?} {:?} {:?}",
                            e.level.name(),
                            e.kind,
                            e.stage,
                            e.message,
                            e.fields
                        )
                    })
                    .collect();
                assert_eq!(
                    lines,
                    row.journal
                        .map(str::to_string)
                        .into_iter()
                        .collect::<Vec<_>>(),
                    "{what}"
                );

                // Warn and up reach stderr through a mirroring journal:
                // the private one, or a caller's that asked for it.
                let level = b.journal.snapshot().first().map(|e| e.level);
                let mirrored = level >= Some(JournalLevel::Warn) && sinks != Sinks::Journal;
                let expected = match b.journal.snapshot().first() {
                    Some(e) if row.always_stderr || mirrored => format!("naspipe: {}\n", e.message),
                    _ => String::new(),
                };
                assert_eq!(stderr.trim_start_matches(['\r', ' ']), expected, "{what}");

                if let Some(ops) = &rig.ops {
                    assert_eq!(gauges(ops), row.gauges, "{what}");
                    let attached = matches!(row.event, RunEvent::RunStart { .. }) && has_ring;
                    assert_eq!(ops.flight().is_some(), attached, "{what}");
                } else if let Some(hub) = rig.bus.hub() {
                    // The private hub takes the same two gauges.
                    let trips = hub.watchdog_trips().map(|t| t.to_string()).join("/");
                    let mut want = row.gauges.split(' ').skip(4);
                    assert_eq!(
                        Some(hub.incarnation().to_string().as_str()),
                        want.next(),
                        "{what}"
                    );
                    assert_eq!(Some(trips.as_str()), want.next(), "{what}");
                }

                let dumped = std::fs::read_to_string(&rig.dump).ok().map(|text| {
                    let doc = parse_json(&text).expect("dump parses");
                    doc.get("reason")
                        .and_then(JsonValue::as_str)
                        .expect("reason")
                        .to_string()
                });
                let _ = std::fs::remove_file(&rig.dump);
                assert_eq!(dumped.as_deref(), row.dump.filter(|_| has_ring), "{what}");
            }
        }
    }

    #[test]
    fn sample_latches_trips_and_finish_folds_them_into_the_report() {
        let rig = rig_with(Sinks::All, "sample");
        let ops = rig.ops.as_ref().expect("ops attached");
        rig.bus.start(4);
        // Stage 1 is ten times busier than stage 0: a straggler.
        let mut rec = MetricsRecorder::new();
        for (k, busy) in [(0, 50_000), (1, 500_000)] {
            rec.incr(k, Counter::ForwardTask, 1);
            rec.sample(k, Sample::ForwardLatencyUs, busy);
        }
        let snap = MetricsSnapshot::from_recorder(&rec, 1_000, 0);
        let stderr = status::tests::capture(|| {
            rig.bus.sample(&snap, false); // hub only
            assert_eq!(ops.hub().published(), 1);
            assert_eq!(rig.bus.inner.journal.len(), 1, "nothing observed yet");
            rig.bus.observe(1_000, rec.stages()); // watchdog only
            rig.bus.sample(&snap, true); // latched: no second trip
        });
        assert_eq!(ops.hub().published(), 2);
        let trip =
            "watchdog: straggler on stage 1 at 1000us (mean task 500000us vs peer median 50000us)";
        assert_eq!(
            stderr.trim_start_matches(['\r', ' ']),
            format!("naspipe: {trip}\n")
        );
        assert!(
            ops.ready().is_ok(),
            "a straggler does not degrade readiness"
        );

        let report = rig.bus.finish(rec.report(2_000), 4, Some(0));
        assert_eq!(report.watchdog.len(), 1);
        assert_eq!(report.watchdog[0].render(), trip);
        assert_eq!(report.series.len(), 2, "the caller's hub is embedded");
        assert_eq!((report.flight.events, report.flight.capacity), (1, 256));
        let kinds: Vec<String> = ops
            .journal()
            .snapshot()
            .iter()
            .map(|e| format!("{}@{}", e.kind, e.at_us))
            .collect();
        assert_eq!(kinds, ["run-start@0", "watchdog-trip@1000", "run-end@2000"]);
        assert_eq!(gauges(ops), "done 4 0 - 0 0/1/0 0/0");
        let dump = std::fs::read_to_string(&rig.dump).expect("end-of-run dump written");
        assert!(dump.starts_with("{\"reason\":\"end-of-run\""), "{dump}");
        let _ = std::fs::remove_file(&rig.dump);

        // A private hub is neither published to nor embedded.
        let quiet = rig_with(Sinks::Flight, "private");
        let mut report = rec.report(2_000);
        status::tests::capture(|| {
            quiet
                .bus
                .sample(&MetricsSnapshot::from_recorder(&rec, 1_000, 0), true);
            report = quiet.bus.finish(report.clone(), 4, None);
        });
        assert_eq!(quiet.bus.hub().expect("private hub").published(), 0);
        assert!(report.series.is_empty());
        assert_eq!(report.watchdog.len(), 1);
        let _ = std::fs::remove_file(&quiet.dump);
    }
}

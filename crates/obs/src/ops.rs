//! The ops plane: a multi-route HTTP surface over one run's live state.
//!
//! [`OpsServer`] grows the single-endpoint metrics server into a small
//! operational API, still hand-rolled on `std::net` with zero
//! dependencies and the same zero-effect-on-results guarantee:
//!
//! | route      | payload                                                |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus 0.0.4 text (the existing exposition, plus   |
//! |            | journal/flight ring-drop counter families)             |
//! | `/healthz` | liveness: `200 ok` whenever the server thread runs     |
//! | `/readyz`  | readiness: `200` while the pipeline is admitting work, |
//! |            | `503` before start, after end, or once a watchdog      |
//! |            | stage-stall verdict latches                            |
//! | `/status`  | versioned JSON: run metadata, per-stage CSP            |
//! |            | watermarks, checkpoint cuts, recovery/durable          |
//! |            | counters, watchdog trips, progress %                   |
//! | `/flight`  | on-demand flight-recorder dump (without ending the run)|
//! | `/events`  | the structured journal as JSONL (`?since=SEQ` filters) |
//!
//! [`OpsState`] is the shared snapshot the routes read: the run's
//! [`EventBus`](crate::bus) updates it (phase, watermarks, checkpoint
//! cuts) while the [`TelemetryHub`] and [`Journal`] carry the high-rate
//! and event-structured sides. Everything here is read-only with respect to
//! training: scraping any route concurrently never changes a result bit
//! (proven by the `tests/ops_plane.rs` bitwise gates).

use crate::flight::FlightRecorder;
use crate::journal::Journal;
use crate::json::{JsonStr, JsonValue};
use crate::report::RunMeta;
use crate::telemetry::{rate_between, MetricsSnapshot, StageRate, TelemetryHub};
use crate::watchdog::WatchdogVerdictKind;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Version stamped into the `/status` document as `"v"`.
pub(crate) const STATUS_SCHEMA_VERSION: u64 = 1;

/// Sentinel for "no checkpoint cut completed yet".
const NO_CUT: u64 = u64::MAX;

/// Run lifecycle phase, as exposed by `/status` and `/readyz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Created but the pipeline has not started admitting work.
    Starting,
    /// The pipeline is admitting and retiring tasks.
    Running,
    /// The run finished cleanly.
    Done,
    /// The run ended in an error.
    Failed,
}

impl RunPhase {
    /// Stable lowercase name used in `/status`.
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Starting => "starting",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> RunPhase {
        match v {
            1 => RunPhase::Running,
            2 => RunPhase::Done,
            3 => RunPhase::Failed,
            _ => RunPhase::Starting,
        }
    }
}

/// The shared state behind every ops-plane route. A run's event bus
/// holds the `Arc<OpsState>` (plumbed through `DiagnosticsOptions`) and
/// updates the cheap atomics at lifecycle points; the server threads
/// only read.
pub struct OpsState {
    meta: RunMeta,
    hub: Arc<TelemetryHub>,
    journal: Arc<Journal>,
    flight: Mutex<Option<Arc<FlightRecorder>>>,
    phase: AtomicU8,
    total_subnets: AtomicU64,
    resume_watermark: AtomicU64,
    last_cut: AtomicU64,
    /// Per-stage CSP watermarks at checkpoint-cut granularity: stage `k`
    /// has finished every subnet below `stage_watermarks[k]`.
    stage_watermarks: Vec<AtomicU64>,
}

impl std::fmt::Debug for OpsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsState")
            .field("engine", &self.meta.engine)
            .field("stages", &self.meta.stages)
            .field("phase", &self.phase())
            .finish()
    }
}

impl OpsState {
    /// State for one run: `meta` names it, `hub` carries the live
    /// counters, `journal` the structured events.
    pub fn new(meta: RunMeta, hub: Arc<TelemetryHub>, journal: Arc<Journal>) -> Self {
        let stages = meta.stages as usize;
        OpsState {
            meta,
            hub,
            journal,
            flight: Mutex::new(None),
            phase: AtomicU8::new(0),
            total_subnets: AtomicU64::new(0),
            resume_watermark: AtomicU64::new(0),
            last_cut: AtomicU64::new(NO_CUT),
            stage_watermarks: (0..stages).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The run metadata the state was built with.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// The telemetry hub the routes read.
    pub fn hub(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.hub)
    }

    /// The structured journal `/events` serves.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.journal)
    }

    /// Attaches the run's flight recorder so `/flight` can dump it.
    pub(crate) fn attach_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock().expect("ops flight lock poisoned") = Some(flight);
    }

    /// The attached flight recorder, when one is.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.flight
            .lock()
            .expect("ops flight lock poisoned")
            .clone()
    }

    /// Moves the run to `phase`.
    pub fn set_phase(&self, phase: RunPhase) {
        self.phase.store(phase as u8, Ordering::Release);
    }

    /// The current phase.
    pub fn phase(&self) -> RunPhase {
        RunPhase::from_u8(self.phase.load(Ordering::Acquire))
    }

    /// Records how many subnets the run trains in total.
    pub fn set_total_subnets(&self, total: u64) {
        self.total_subnets.store(total, Ordering::Relaxed);
    }

    /// Records the watermark the current incarnation resumed from (also
    /// floors every per-stage watermark).
    pub(crate) fn set_resume_watermark(&self, watermark: u64) {
        self.resume_watermark
            .fetch_max(watermark, Ordering::Relaxed);
        for w in &self.stage_watermarks {
            w.fetch_max(watermark, Ordering::Relaxed);
        }
    }

    /// Advances one stage's CSP watermark (called when the stage
    /// contributes `watermark` to a checkpoint cut).
    pub(crate) fn note_stage_watermark(&self, stage: u32, watermark: u64) {
        if let Some(w) = self.stage_watermarks.get(stage as usize) {
            w.fetch_max(watermark, Ordering::Relaxed);
        }
    }

    /// Records a completed (all-stage) checkpoint cut.
    pub(crate) fn record_cut(&self, watermark: u64) {
        let _ = self
            .last_cut
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == NO_CUT {
                    watermark
                } else {
                    cur.max(watermark)
                })
            });
    }

    /// The newest completed cut, when any completed.
    pub(crate) fn last_cut(&self) -> Option<u64> {
        match self.last_cut.load(Ordering::Relaxed) {
            NO_CUT => None,
            w => Some(w),
        }
    }

    /// Readiness: is the pipeline admitting work? `Err` carries the
    /// reason rendered into the 503 body.
    pub fn ready(&self) -> Result<(), String> {
        match self.phase() {
            RunPhase::Starting => Err("starting: pipeline not admitting work yet".into()),
            RunPhase::Done => Err("done: run completed".into()),
            RunPhase::Failed => Err("failed: run ended in error".into()),
            RunPhase::Running => {
                let trips = self.hub.watchdog_trips();
                let stalls = trips[WatchdogVerdictKind::StageStall as usize];
                if stalls > 0 {
                    Err(format!("watchdog: {stalls} stage-stall verdict(s) latched"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Renders the `/status` document (schema v1).
    pub fn render_status(&self) -> String {
        let (prev, cur) = self.hub.latest_pair();
        let rates = match (&prev, &cur) {
            (Some(p), Some(c)) => rate_between(p, c),
            _ => None,
        };
        let total = self.total_subnets.load(Ordering::Relaxed);
        let stages = self.meta.stages as u64;
        let tasks_done = cur.as_ref().map_or(0, MetricsSnapshot::tasks_done);
        // Forward + backward once per (subnet, stage): the denominator of
        // the progress estimate. Replayed tasks after a recovery can
        // overshoot it, so the percentage is clamped.
        let tasks_expected = total * stages * 2;
        let progress_pct = if tasks_expected > 0 {
            (tasks_done as f64 * 100.0 / tasks_expected as f64).min(100.0)
        } else {
            0.0
        };
        let ready = self.ready();
        let trips = self.hub.watchdog_trips();
        let total_of = |c| cur.as_ref().map_or(0, |s| s.total(c));
        use crate::metrics::Counter;

        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"v\":{STATUS_SCHEMA_VERSION},\"engine\":{},\"stages\":{},",
            JsonStr(&self.meta.engine),
            self.meta.stages
        );
        match self.meta.seed {
            Some(seed) => {
                let _ = write!(out, "\"seed\":{seed},");
            }
            None => out.push_str("\"seed\":null,"),
        }
        let _ = write!(
            out,
            "\"phase\":\"{}\",\"ready\":{},\"ready_reason\":{},",
            self.phase().name(),
            ready.is_ok(),
            JsonStr(ready.as_ref().err().map_or("ok", String::as_str)),
        );
        let _ = write!(
            out,
            "\"incarnation\":{},\"at_us\":{},\"total_subnets\":{total},\
             \"tasks_done\":{tasks_done},\"tasks_expected\":{tasks_expected},\
             \"progress_pct\":{progress_pct:.2},",
            self.hub.incarnation(),
            cur.as_ref().map_or(0, |s| s.at_us),
        );
        let _ = write!(
            out,
            "\"resume_watermark\":{},",
            self.resume_watermark.load(Ordering::Relaxed)
        );
        match self.last_cut() {
            Some(w) => {
                let _ = write!(out, "\"last_cut\":{w},");
            }
            None => out.push_str("\"last_cut\":null,"),
        }
        let _ = write!(
            out,
            "\"recovery\":{{\"retries\":{},\"restarts\":{},\"replayed\":{}}},",
            total_of(Counter::Retry),
            total_of(Counter::Restart),
            total_of(Counter::ReplayedTask),
        );
        let _ = write!(
            out,
            "\"durable\":{{\"persists\":{},\"resumes\":{}}},",
            total_of(Counter::DurablePersist),
            total_of(Counter::DurableResume),
        );
        out.push_str("\"watchdog\":{");
        for (i, kind) in WatchdogVerdictKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", kind.name(), trips[i]);
        }
        out.push_str("},");
        let _ = write!(
            out,
            "\"drops\":{{\"telemetry\":{},\"journal\":{},\"flight\":{}}},",
            self.hub.samples_dropped(),
            self.journal.dropped(),
            self.flight().map_or(0, |f| f.dropped()),
        );
        let _ = write!(
            out,
            "\"journal\":{{\"emitted\":{},\"retained\":{}}},",
            self.journal.emitted(),
            self.journal.len(),
        );
        out.push_str("\"stages_detail\":[");
        for k in 0..self.meta.stages as usize {
            if k > 0 {
                out.push(',');
            }
            let watermark = self
                .stage_watermarks
                .get(k)
                .map_or(0, |w| w.load(Ordering::Relaxed));
            let (fwd, bwd) = cur
                .as_ref()
                .and_then(|s| s.stages.get(k))
                .map_or((0, 0), |s| {
                    (
                        s.counter(Counter::ForwardTask),
                        s.counter(Counter::BackwardTask),
                    )
                });
            let rate = rates
                .as_ref()
                .and_then(|r| r.stages.iter().find(|s| s.stage == k as u32));
            let zero = StageRate {
                stage: k as u32,
                fwd_per_s: 0.0,
                bwd_per_s: 0.0,
                cache_hit_rate: 0.0,
                queue_depth_mean: 0.0,
                stall_frac: 0.0,
                bubble_frac: 0.0,
            };
            let r = rate.unwrap_or(&zero);
            let _ = write!(
                out,
                "{{\"stage\":{k},\"watermark\":{watermark},\"forward\":{fwd},\
                 \"backward\":{bwd},\"tasks_per_s\":{:.3},\"queue_depth\":{:.3},\
                 \"stall_frac\":{:.4},\"bubble_frac\":{:.4},\"cache_hit\":{:.4}}}",
                r.fwd_per_s + r.bwd_per_s,
                r.queue_depth_mean,
                r.stall_frac,
                r.bubble_frac,
                r.cache_hit_rate,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Validates a parsed `/status` document against schema v1. Returns the
/// list of problems (empty = valid). This is the scanner-backed check
/// the CI ops job and `tests/ops_plane.rs` run against a live server.
pub fn validate_status(doc: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    let mut need = |key: &str, ok: bool| {
        if !ok {
            problems.push(format!("missing or mistyped {key:?}"));
        }
    };
    need(
        "v",
        doc.get("v").and_then(JsonValue::as_u64) == Some(STATUS_SCHEMA_VERSION),
    );
    need(
        "engine",
        doc.get("engine").and_then(JsonValue::as_str).is_some(),
    );
    let stages = doc.get("stages").and_then(JsonValue::as_u64);
    need("stages", stages.is_some());
    let phase_ok = matches!(
        doc.get("phase").and_then(JsonValue::as_str),
        Some("starting" | "running" | "done" | "failed")
    );
    need("phase", phase_ok);
    need(
        "ready",
        doc.get("ready").and_then(JsonValue::as_bool).is_some(),
    );
    need(
        "ready_reason",
        doc.get("ready_reason")
            .and_then(JsonValue::as_str)
            .is_some(),
    );
    for key in [
        "incarnation",
        "at_us",
        "total_subnets",
        "tasks_done",
        "tasks_expected",
        "resume_watermark",
    ] {
        need(key, doc.get(key).and_then(JsonValue::as_u64).is_some());
    }
    need(
        "progress_pct",
        doc.get("progress_pct")
            .and_then(JsonValue::as_f64)
            .is_some_and(|p| (0.0..=100.0).contains(&p)),
    );
    need(
        "last_cut",
        doc.get("last_cut")
            .is_some_and(|c| *c == JsonValue::Null || c.as_f64().is_some()),
    );
    for (obj, keys) in [
        ("recovery", &["retries", "restarts", "replayed"][..]),
        ("durable", &["persists", "resumes"][..]),
        ("drops", &["telemetry", "journal", "flight"][..]),
        ("journal", &["emitted", "retained"][..]),
    ] {
        for key in keys {
            need(
                &format!("{obj}.{key}"),
                doc.get(obj)
                    .and_then(|o| o.get(key))
                    .and_then(JsonValue::as_u64)
                    .is_some(),
            );
        }
    }
    for kind in WatchdogVerdictKind::ALL {
        need(
            &format!("watchdog.{}", kind.name()),
            doc.get("watchdog")
                .and_then(|o| o.get(kind.name()))
                .and_then(JsonValue::as_u64)
                .is_some(),
        );
    }
    match doc.get("stages_detail").and_then(JsonValue::as_arr) {
        None => problems.push("missing or mistyped \"stages_detail\"".into()),
        Some(rows) => {
            if let Some(n) = stages {
                if rows.len() as u64 != n {
                    problems.push(format!(
                        "stages_detail has {} rows for {n} stages",
                        rows.len()
                    ));
                }
            }
            for (i, row) in rows.iter().enumerate() {
                for key in ["stage", "watermark", "forward", "backward"] {
                    if row.get(key).and_then(JsonValue::as_u64).is_none() {
                        problems.push(format!("stages_detail[{i}] missing {key:?}"));
                    }
                }
                for key in ["tasks_per_s", "queue_depth", "stall_frac", "bubble_frac"] {
                    if row.get(key).and_then(JsonValue::as_f64).is_none() {
                        problems.push(format!("stages_detail[{i}] missing {key:?}"));
                    }
                }
            }
        }
    }
    problems
}

/// Renders the `naspipe top` frame from a parsed `/status` document and
/// the raw `/metrics` text. Pure, so the live view is unit-testable.
pub fn render_top(doc: &JsonValue, metrics: &str) -> Result<String, String> {
    let problems = validate_status(doc);
    if !problems.is_empty() {
        return Err(format!("invalid /status document: {}", problems.join("; ")));
    }
    let s = |k: &str| doc.get(k).and_then(JsonValue::as_str).unwrap_or("?");
    let n = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let mut out = String::with_capacity(512);
    let seed = doc
        .get("seed")
        .and_then(JsonValue::as_u64)
        .map_or("-".to_string(), |v| v.to_string());
    let ready = if doc.get("ready").and_then(JsonValue::as_bool) == Some(true) {
        "ready".to_string()
    } else {
        format!("not ready: {}", s("ready_reason"))
    };
    let _ = writeln!(
        out,
        "naspipe top — {} engine, {} stage(s), seed {seed} — phase {} ({ready})",
        s("engine"),
        n("stages"),
        s("phase"),
    );
    let progress = doc
        .get("progress_pct")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let last_cut = match doc.get("last_cut").and_then(JsonValue::as_f64) {
        Some(w) => format!("{w:.0}"),
        None => "-".to_string(),
    };
    let _ = writeln!(
        out,
        "tasks {}/{} ({progress:.1}%) — incarnation {} — last cut {last_cut} — uptime {:.1}s",
        n("tasks_done"),
        n("tasks_expected"),
        n("incarnation"),
        n("at_us") as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>7} {:>7} {:>9} {:>7} {:>7} {:>8} {:>7}",
        "stage", "watermark", "fwd", "bwd", "tasks/s", "queue", "stall%", "bubble%", "cache%"
    );
    for row in doc
        .get("stages_detail")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
    {
        let rn = |k: &str| row.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let rf = |k: &str| row.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>7} {:>7} {:>9.2} {:>7.2} {:>7.1} {:>8.1} {:>7.1}",
            rn("stage"),
            rn("watermark"),
            rn("forward"),
            rn("backward"),
            rf("tasks_per_s"),
            rf("queue_depth"),
            rf("stall_frac") * 100.0,
            rf("bubble_frac") * 100.0,
            row.get("cache_hit")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                * 100.0,
        );
    }
    // A scrape that does not parse has no gauge.
    let pool = crate::expo::parse_exposition(metrics)
        .ok()
        .and_then(|expo| {
            let sample = expo
                .samples
                .into_iter()
                .find(|s| s.name == "naspipe_pool_utilization" && s.labels.is_empty());
            sample.map(|s| s.value)
        });
    let wd = |kind: WatchdogVerdictKind| {
        doc.get("watchdog")
            .and_then(|o| o.get(kind.name()))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let trips: u64 = WatchdogVerdictKind::ALL.iter().map(|&k| wd(k)).sum();
    let journal_line = format!(
        "journal {} event(s), {} retained, {} dropped",
        doc.get("journal")
            .and_then(|o| o.get("emitted"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        doc.get("journal")
            .and_then(|o| o.get("retained"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        doc.get("drops")
            .and_then(|o| o.get("journal"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "pool util {} — watchdog trips {trips} — {journal_line}",
        pool.map_or("-".to_string(), |p| format!("{:.0}%", p * 100.0)),
    );
    Ok(out)
}

/// The multi-route HTTP server. Binding spawns one listener thread
/// (`naspipe-ops`); each route renders from the shared [`OpsState`].
/// Dropping the server (or calling [`shutdown`](Self::shutdown)) stops
/// and joins the thread.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. The resolved address is printed once to stderr so
    /// callers — and CI jobs — never race on fixed ports.
    pub fn bind(addr: &str, state: Arc<OpsState>) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        eprintln!(
            "naspipe: ops plane on http://{local} (routes: /metrics /healthz /readyz /status /flight /events)"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("naspipe-ops".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => serve_connection(stream, &state),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn ops server")
        };
        Ok(OpsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The resolved bound address (the ephemeral port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(mut stream: TcpStream, state: &Arc<OpsState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head; cap the total read so a
    // hostile client cannot balloon memory.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let Some(request_line) = head.lines().next() else {
        return;
    };
    let Some(target) = request_line.split_whitespace().nth(1) else {
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let body = crate::expo::render_exposition_ops(
                &state.hub(),
                state.meta(),
                Some(state.journal().dropped()),
                state.flight().map(|f| f.dropped()),
            );
            respond(&mut stream, "200 OK", crate::expo::CONTENT_TYPE, &body);
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/readyz" => match state.ready() {
            Ok(()) => respond(&mut stream, "200 OK", "text/plain", "ready\n"),
            Err(reason) => respond(
                &mut stream,
                "503 Service Unavailable",
                "text/plain",
                &format!("not ready: {reason}\n"),
            ),
        },
        "/status" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &state.render_status(),
        ),
        "/flight" => match state.flight() {
            Some(f) => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &f.snapshot().to_json("on-demand"),
            ),
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain",
                "no flight recorder attached\n",
            ),
        },
        "/events" => {
            let since = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("since="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            let events = state.journal().events_since(since);
            let body: String = events.iter().map(|e| e.to_json() + "\n").collect();
            respond(&mut stream, "200 OK", "application/x-ndjson", &body);
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// A decoded HTTP response from [`http_get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The status code from the response line.
    pub status: u16,
    /// The body.
    pub body: String,
}

/// Minimal HTTP/1.1 GET against an ops-plane route. Returns non-200
/// responses rather than erroring, so callers can assert on `/readyz`
/// 503 semantics.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<HttpResponse> {
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
    })?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: naspipe\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let invalid = |reason: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("malformed HTTP response"))?;
    let body = raw.split_off(split + 4);
    let head = String::from_utf8_lossy(&raw);
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| invalid("missing status code"))?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
    Ok(HttpResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{parse_journal, JournalLevel};
    use crate::json::parse_json;
    use crate::metrics::Counter;

    fn state(stages: u32) -> Arc<OpsState> {
        let hub = Arc::new(TelemetryHub::new(stages as usize, 0));
        let journal = Arc::new(Journal::new(32));
        Arc::new(OpsState::new(
            RunMeta::new("threaded", stages).seed(7),
            hub,
            journal,
        ))
    }

    #[test]
    fn status_document_is_schema_valid_from_empty_to_running() {
        let st = state(3);
        let doc = parse_json(&st.render_status()).expect("status parses");
        assert!(
            validate_status(&doc).is_empty(),
            "{:?}",
            validate_status(&doc)
        );
        assert_eq!(
            doc.get("phase").and_then(JsonValue::as_str),
            Some("starting")
        );

        st.set_phase(RunPhase::Running);
        st.set_total_subnets(8);
        st.set_resume_watermark(2);
        st.note_stage_watermark(1, 4);
        st.record_cut(4);
        let hub = st.hub();
        for k in 0..3 {
            hub.record(k, Counter::ForwardTask, 4);
            hub.record(k, Counter::BackwardTask, 4);
        }
        hub.publish(1_000_000);
        let doc = parse_json(&st.render_status()).expect("status parses");
        assert!(
            validate_status(&doc).is_empty(),
            "{:?}",
            validate_status(&doc)
        );
        assert_eq!(doc.get("ready").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("last_cut").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(doc.get("tasks_done").and_then(JsonValue::as_u64), Some(24));
        let rows = doc
            .get("stages_detail")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(
            rows[1].get("watermark").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            rows[0].get("watermark").and_then(JsonValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn readiness_follows_phase_and_stall_verdicts() {
        let st = state(2);
        assert!(st.ready().is_err(), "starting is not ready");
        st.set_phase(RunPhase::Running);
        assert!(st.ready().is_ok());
        // A straggler verdict degrades nothing; a stage stall does.
        st.hub()
            .record_watchdog_trip(WatchdogVerdictKind::Straggler);
        assert!(st.ready().is_ok());
        st.hub()
            .record_watchdog_trip(WatchdogVerdictKind::StageStall);
        let err = st.ready().unwrap_err();
        assert!(err.contains("stage-stall"), "{err}");
        st.set_phase(RunPhase::Done);
        assert!(st.ready().is_err(), "done is not admitting work");
    }

    #[test]
    fn server_serves_every_route_with_correct_semantics() {
        let st = state(2);
        st.set_phase(RunPhase::Running);
        st.journal()
            .emit(JournalLevel::Info, "run-start", None, 5, "go", vec![]);
        st.journal().emit(
            JournalLevel::Warn,
            "watchdog-trip",
            Some(1),
            10,
            "watchdog: straggler on stage 1",
            vec![("verdict".into(), "straggler".into())],
        );
        st.hub().publish(100);
        let mut server = OpsServer::bind("127.0.0.1:0", Arc::clone(&st)).expect("bind");
        let addr = server.local_addr().to_string();

        let health = http_get(&addr, "/healthz").unwrap();
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

        let ready = http_get(&addr, "/readyz").unwrap();
        assert_eq!(ready.status, 200);

        let metrics = http_get(&addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        crate::expo::validate_exposition(&metrics.body).expect(&metrics.body);
        assert!(metrics.body.contains("naspipe_journal_dropped_total 0"));
        assert!(
            !metrics.body.contains("naspipe_flight_dropped_total"),
            "no flight attached, no flight family"
        );

        let status = http_get(&addr, "/status").unwrap();
        let doc = parse_json(&status.body).expect("status parses");
        assert!(
            validate_status(&doc).is_empty(),
            "{:?}",
            validate_status(&doc)
        );

        let events = http_get(&addr, "/events").unwrap();
        assert_eq!(events.status, 200);
        let parsed = parse_journal(&events.body).expect("events parse");
        assert_eq!(parsed, st.journal().snapshot(), "/events replays the ring");

        let flight = http_get(&addr, "/flight").unwrap();
        assert_eq!(flight.status, 404);
        st.attach_flight(Arc::new(FlightRecorder::new(2, 8)));
        st.flight()
            .unwrap()
            .record(0, 1, crate::flight::FlightEventKind::Admission, 0);
        let flight = http_get(&addr, "/flight").unwrap();
        assert_eq!(flight.status, 200);
        assert!(flight.body.starts_with("{\"reason\":\"on-demand\""));
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.body.contains("naspipe_flight_dropped_total 0"));

        let missing = http_get(&addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);

        // Latch a stall verdict: /readyz must flip to 503.
        st.hub()
            .record_watchdog_trip(WatchdogVerdictKind::StageStall);
        let ready = http_get(&addr, "/readyz").unwrap();
        assert_eq!(ready.status, 503);
        assert!(ready.body.contains("stage-stall"), "{}", ready.body);
        server.shutdown();
        assert!(
            http_get(&addr, "/healthz").is_err(),
            "a stopped server stops answering"
        );
    }

    #[test]
    fn events_since_query_filters_the_stream() {
        let st = state(1);
        for i in 0..4u64 {
            st.journal().emit(
                JournalLevel::Info,
                "checkpoint-cut",
                Some(0),
                i,
                format!("w{i}"),
                vec![],
            );
        }
        let server = OpsServer::bind("127.0.0.1:0", Arc::clone(&st)).expect("bind");
        let addr = server.local_addr().to_string();
        let tail = http_get(&addr, "/events?since=2").unwrap();
        let parsed = parse_journal(&tail.body).expect("parses");
        assert_eq!(parsed.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn events_are_one_body_with_a_length() {
        let st = state(1);
        for i in 0..3u64 {
            st.journal()
                .emit(JournalLevel::Info, "run-start", None, i, "é", vec![]);
        }
        let server = OpsServer::bind("127.0.0.1:0", Arc::clone(&st)).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"GET /events HTTP/1.1\r\nHost: naspipe\r\n\r\n")
            .expect("request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("head and body");
        assert!(!head.contains("Transfer-Encoding"), "{head}");
        let want: String = st
            .journal()
            .snapshot()
            .iter()
            .map(|e| e.to_json() + "\n")
            .collect();
        assert_eq!(body, want);
        let length = format!("Content-Length: {}", body.len());
        assert!(head.lines().any(|l| l == length), "{head}");
    }

    #[test]
    fn top_renders_per_stage_lines_from_status_and_metrics() {
        let st = state(2);
        st.set_phase(RunPhase::Running);
        st.set_total_subnets(4);
        let hub = st.hub();
        for k in 0..2 {
            hub.record(k, Counter::ForwardTask, 3);
            hub.record(k, Counter::BackwardTask, 2);
        }
        hub.publish(500_000);
        let doc = parse_json(&st.render_status()).unwrap();
        let frame = render_top(&doc, "naspipe_pool_utilization 0.75\n").expect("renders");
        assert!(frame.contains("naspipe top"), "{frame}");
        assert!(frame.contains("phase running (ready)"), "{frame}");
        assert!(frame.contains("pool util 75%"), "{frame}");
        // One line per stage plus the header row.
        assert!(
            frame.lines().any(|l| l.trim_start().starts_with("0 ")),
            "{frame}"
        );
        assert!(
            frame.lines().any(|l| l.trim_start().starts_with("1 ")),
            "{frame}"
        );
        // A broken document is rejected, not mis-rendered.
        assert!(render_top(&parse_json("{}").unwrap(), "").is_err());
    }

    /// `http_get` against a server that answers one request with
    /// `response`, whatever was asked, and closes.
    fn get_canned(response: &[u8]) -> std::io::Result<HttpResponse> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut head = Vec::new();
                let mut chunk = [0u8; 256];
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(n) if n > 0 => head.extend_from_slice(&chunk[..n]),
                        _ => break,
                    }
                }
                let _ = stream.write_all(response);
            });
            http_get(&addr, "/events")
        })
    }

    #[test]
    fn a_body_that_is_not_text_is_an_error() {
        let binary = get_canned(b"HTTP/1.1 200 OK\r\n\r\n\xff\xfe").expect_err("not text");
        assert_eq!(binary.kind(), std::io::ErrorKind::InvalidData);
    }
}

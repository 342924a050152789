//! Ops-plane self-test: the threaded runtime with the full multi-route
//! HTTP surface and structured journal attached, scraped concurrently
//! mid-run, with hard verdicts on the zero-effect guarantee.
//!
//! Two runs train the same subnet stream: one bare (no telemetry, no
//! ops plane), one with everything on — journal sinking to a JSONL
//! file, an [`OpsServer`] answering `/metrics`, `/healthz`, `/readyz`,
//! `/status`, `/flight`, and `/events`, and a scraper thread hammering
//! every route while the stages train. Verdicts:
//!
//! 1. **Bitwise zero-effect** — final parameter hash, loss digest, and
//!    task count of the fully-instrumented run equal the bare run's.
//! 2. **Routes live** — every mid-run scrape of every route answers
//!    200, `/metrics` passes [`validate_exposition`], and `/status`
//!    passes [`validate_status`] under the hand-rolled JSON scanner.
//! 3. **Events ≡ sink** — after the run, `/events` replays exactly the
//!    lines `--journal`'s file sink wrote, in order, schema-valid.
//! 4. **Readiness degrades** — `/readyz` answers 200 on a healthy
//!    running state and flips to 503 once a stage-stall watchdog
//!    verdict latches (checked on a synthetic state, so the verdict
//!    does not depend on provoking a real stall).

use crate::experiments::subnet_stream;
use naspipe_core::config::DiagnosticsOptions;
use naspipe_core::replay_gate::loss_digest;
use naspipe_core::runtime::{RunSpec, SupervisedRun};
use naspipe_core::train::TrainConfig;
use naspipe_obs::{
    http_get, parse_json, validate_exposition, validate_journal, validate_status, Journal,
    OpsServer, OpsState, RunMeta, RunPhase, TelemetryHub, TelemetryOptions, WatchdogVerdictKind,
};
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::sync::Arc;
use std::time::Duration;

/// Result of the ops-plane self-test.
#[derive(Debug, Clone)]
pub struct OpsPlaneRun {
    /// Address the ops plane served on.
    pub addr: String,
    /// Full route sweeps completed while the run was in flight.
    pub mid_sweeps: usize,
    /// Final parameter hash (both runs, when verdict 1 holds).
    pub final_hash: u64,
    /// Journal events the sink file retained.
    pub journal_lines: usize,
    /// Bitwise divergences between the instrumented and bare runs.
    pub bitwise_errors: Vec<String>,
    /// Route/validation failures across all mid-run sweeps.
    pub route_errors: Vec<String>,
    /// `/events`-vs-sink divergences (order, content, schema).
    pub events_errors: Vec<String>,
    /// Readiness-degradation failures.
    pub readyz_errors: Vec<String>,
}

impl OpsPlaneRun {
    /// Whether every hard verdict holds.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.bitwise_errors.is_empty()
            && self.route_errors.is_empty()
            && self.events_errors.is_empty()
            && self.readyz_errors.is_empty()
    }
}

fn train(
    space: &SearchSpace,
    n: u64,
    gpus: u32,
    telemetry: Option<TelemetryOptions>,
    diagnostics: DiagnosticsOptions,
) -> SupervisedRun {
    let cfg = TrainConfig {
        dim: 96,
        rows: 48,
        seed: crate::SEED,
        ..TrainConfig::default()
    };
    RunSpec {
        telemetry,
        diagnostics,
        ..RunSpec::new(space, subnet_stream(space, n), cfg, gpus)
    }
    .run()
    .expect("ops-plane training run")
}

/// Checks that `/readyz` flips 200 -> 503 when a stage-stall watchdog
/// verdict latches, on a synthetic state behind a real server.
fn readyz_flip_errors(gpus: u32) -> Vec<String> {
    let mut errors = Vec::new();
    let hub = Arc::new(TelemetryHub::new(gpus as usize, 0));
    let state = Arc::new(OpsState::new(
        RunMeta::new("threaded", gpus).seed(crate::SEED),
        Arc::clone(&hub),
        Arc::new(Journal::new(0)),
    ));
    state.set_phase(RunPhase::Running);
    let mut server = OpsServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind readyz probe");
    let addr = server.local_addr().to_string();
    match http_get(&addr, "/readyz") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => errors.push(format!("healthy /readyz answered {} not 200", r.status)),
        Err(e) => errors.push(format!("healthy /readyz scrape failed: {e}")),
    }
    hub.record_watchdog_trip(WatchdogVerdictKind::StageStall);
    match http_get(&addr, "/readyz") {
        Ok(r) if r.status == 503 => {
            if !r.body.contains("stage-stall") {
                errors.push(format!("503 body does not name the verdict: {:?}", r.body));
            }
        }
        Ok(r) => errors.push(format!(
            "/readyz after stage-stall trip answered {} not 503",
            r.status
        )),
        Err(e) => errors.push(format!("tripped /readyz scrape failed: {e}")),
    }
    server.shutdown();
    errors
}

/// Runs `n` subnets of `space_id` on `gpus` threaded stages twice —
/// bare, then fully instrumented and concurrently scraped — and
/// assembles the four verdicts.
///
/// # Panics
///
/// Panics if a server cannot bind, the journal sink cannot be written,
/// or a training run itself errors — harness failures, not verdicts.
#[must_use]
pub fn run(space_id: SpaceId, gpus: u32, n: u64) -> OpsPlaneRun {
    let space = SearchSpace::from_id(space_id);

    // Bare reference run: no telemetry, no ops plane.
    let bare = train(&space, n, gpus, None, DiagnosticsOptions::default());

    // Instrumented run: journal (file sink), hub, multi-route server.
    let sink = std::env::temp_dir().join(format!(
        "naspipe-ops-plane-{}-{}.journal.jsonl",
        std::process::id(),
        n
    ));
    let hub = Arc::new(TelemetryHub::new(gpus as usize, 0));
    let journal = Arc::new(
        Journal::new(0)
            .with_sink(&sink)
            .expect("journal sink in temp dir"),
    );
    let state = Arc::new(OpsState::new(
        RunMeta::new("threaded", gpus).seed(crate::SEED),
        Arc::clone(&hub),
        journal,
    ));
    let mut server = OpsServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind ops plane");
    let addr = server.local_addr().to_string();
    let opts = TelemetryOptions::new(Arc::clone(&hub)).with_interval_us(2_000);
    let diag = DiagnosticsOptions::default().with_ops(Arc::clone(&state));

    let worker = {
        let space = space.clone();
        let opts = opts.clone();
        let diag = diag.clone();
        std::thread::spawn(move || train(&space, n, gpus, Some(opts), diag))
    };

    // Sweep every route until the run finishes (bounded: the run is
    // seconds long; 2000 polls x 5 ms = 10 s of slack). The sweep is
    // phase-aware: until the runtime flips the state to running,
    // `/flight` has no ring attached (404 by design) and `/readyz`
    // reports not-ready; once running, `/flight` must serve and
    // `/readyz` may degrade only on a latched watchdog verdict (whose
    // flip semantics verdict 4 checks exactly) or the run completing
    // between the phase read and the probe.
    let mut route_errors = Vec::new();
    let mut mid_sweeps = 0usize;
    let mut running_sweeps = 0usize;
    for _ in 0..2000 {
        if worker.is_finished() {
            break;
        }
        let mut phase = String::new();
        match http_get(&addr, "/status") {
            Ok(r) if r.status == 200 => match parse_json(&r.body) {
                Ok(doc) => {
                    phase = doc
                        .get("phase")
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string();
                    route_errors.extend(
                        validate_status(&doc)
                            .into_iter()
                            .map(|p| format!("sweep {mid_sweeps} /status: {p}")),
                    );
                }
                Err(e) => {
                    route_errors.push(format!("sweep {mid_sweeps} /status not JSON: {e}"));
                }
            },
            Ok(r) => route_errors.push(format!(
                "sweep {mid_sweeps} /status answered {} not 200",
                r.status
            )),
            Err(e) => route_errors.push(format!("sweep {mid_sweeps} /status: {e}")),
        }
        let running = phase == "running";
        running_sweeps += usize::from(running);
        for route in ["/metrics", "/healthz", "/events"] {
            match http_get(&addr, route) {
                Ok(r) if r.status == 200 => {
                    if route == "/metrics" {
                        if let Err(e) = validate_exposition(&r.body) {
                            route_errors.push(format!("sweep {mid_sweeps} /metrics: {e}"));
                        }
                    }
                }
                Ok(r) => route_errors.push(format!(
                    "sweep {mid_sweeps} {route} answered {} not 200",
                    r.status
                )),
                Err(e) => route_errors.push(format!("sweep {mid_sweeps} {route}: {e}")),
            }
        }
        match http_get(&addr, "/flight") {
            Ok(r) if r.status == 200 => {}
            Ok(r) if r.status == 404 && !running => {}
            Ok(r) => route_errors.push(format!(
                "sweep {mid_sweeps} /flight answered {} (phase {phase})",
                r.status
            )),
            Err(e) => route_errors.push(format!("sweep {mid_sweeps} /flight: {e}")),
        }
        match http_get(&addr, "/readyz") {
            Ok(r) if r.status == 200 => {}
            Ok(r) if r.status == 503 && !running => {}
            Ok(r)
                if r.status == 503 && (r.body.contains("watchdog") || r.body.contains("done")) => {}
            Ok(r) => route_errors.push(format!(
                "sweep {mid_sweeps} /readyz answered {} (phase {phase}): {}",
                r.status,
                r.body.trim()
            )),
            Err(e) => route_errors.push(format!("sweep {mid_sweeps} /readyz: {e}")),
        }
        mid_sweeps += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    let instrumented = worker.join().expect("instrumented run thread");
    if running_sweeps == 0 {
        route_errors.push(format!(
            "no sweep of {mid_sweeps} ever observed phase=running — run too fast for a mid-run verdict"
        ));
    }

    // Verdict 3: /events replays exactly what the sink file recorded.
    let mut events_errors = Vec::new();
    let sink_text = std::fs::read_to_string(&sink).unwrap_or_default();
    match http_get(&addr, "/events") {
        Ok(r) if r.status == 200 => {
            events_errors.extend(
                validate_journal(&r.body)
                    .into_iter()
                    .map(|p| format!("/events schema: {p}")),
            );
            let served: Vec<&str> = r.body.lines().filter(|l| !l.is_empty()).collect();
            let sunk: Vec<&str> = sink_text.lines().filter(|l| !l.is_empty()).collect();
            if served != sunk {
                events_errors.push(format!(
                    "/events served {} line(s), sink wrote {} — streams diverge",
                    served.len(),
                    sunk.len()
                ));
            }
        }
        Ok(r) => events_errors.push(format!("/events answered {} not 200", r.status)),
        Err(e) => events_errors.push(format!("/events scrape failed: {e}")),
    }
    let journal_lines = sink_text.lines().filter(|l| !l.is_empty()).count();
    if journal_lines == 0 {
        events_errors.push("journal sink is empty (expected run-start at minimum)".to_string());
    }
    server.shutdown();
    let _ = std::fs::remove_file(&sink);

    // Verdict 1: the full ops plane changed nothing the run computes.
    let mut bitwise_errors = Vec::new();
    if instrumented.result.final_hash != bare.result.final_hash {
        bitwise_errors.push(format!(
            "final hash diverged: {:016x} (ops on) vs {:016x} (bare)",
            instrumented.result.final_hash, bare.result.final_hash
        ));
    }
    let (di, db) = (
        loss_digest(&instrumented.result.losses),
        loss_digest(&bare.result.losses),
    );
    if di != db {
        bitwise_errors.push(format!(
            "loss digest diverged: {di:016x} (ops on) vs {db:016x} (bare)"
        ));
    }
    // Wall-clock start/end stamps in `TaskRecord` legitimately differ
    // run to run; the schedule-invariant content is the multiset of
    // (stage, kind, subnet, blocks) the run executed.
    let task_multiset = |run: &SupervisedRun| -> Vec<String> {
        let mut v: Vec<String> = run
            .tasks
            .iter()
            .map(|t| format!("{:?} {:?} {:?} {:?}", t.stage, t.kind, t.subnet, t.blocks))
            .collect();
        v.sort();
        v
    };
    if task_multiset(&instrumented) != task_multiset(&bare) {
        bitwise_errors.push(format!(
            "task stream diverged: {} task(s) (ops on) vs {} (bare)",
            instrumented.tasks.len(),
            bare.tasks.len()
        ));
    }

    OpsPlaneRun {
        addr,
        mid_sweeps,
        final_hash: bare.result.final_hash,
        journal_lines,
        bitwise_errors,
        route_errors,
        events_errors,
        readyz_errors: readyz_flip_errors(gpus),
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders the verdict table (and any errors, on failure).
#[must_use]
pub fn render(r: &OpsPlaneRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} mid-run route sweep(s) on {}; journal sink kept {} line(s)",
        r.mid_sweeps, r.addr, r.journal_lines
    );
    let _ = writeln!(
        out,
        "bitwise-identical results vs bare run:       {} (hash {:016x})",
        verdict(r.bitwise_errors.is_empty()),
        r.final_hash
    );
    let _ = writeln!(
        out,
        "all routes live and schema-valid mid-run:    {}",
        verdict(r.route_errors.is_empty())
    );
    let _ = writeln!(
        out,
        "/events replays the journal sink exactly:    {}",
        verdict(r.events_errors.is_empty())
    );
    let _ = writeln!(
        out,
        "/readyz flips 503 on stage-stall verdict:    {}",
        verdict(r.readyz_errors.is_empty())
    );
    for e in r
        .bitwise_errors
        .iter()
        .chain(&r.route_errors)
        .chain(&r.events_errors)
        .chain(&r.readyz_errors)
    {
        let _ = writeln!(out, "  error: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_plane_self_test_passes_end_to_end() {
        // Small but real: two threaded runs + live multi-route scrapes.
        let r = run(SpaceId::NlpC2, 2, 8);
        assert!(r.all_ok(), "verdicts failed:\n{}", render(&r));
        assert!(r.journal_lines >= 2, "run-start and run-end at minimum");
    }
}

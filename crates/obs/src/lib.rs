//! Observability and correctness tooling for the NASPipe runtimes.
//!
//! The crate has these layers, mirroring the needs of the simulator
//! (`naspipe-core::pipeline`) and the threaded runtime
//! (`naspipe-core::runtime`):
//!
//! 1. **Metrics** ([`metrics`]): a lightweight [`Recorder`] trait with
//!    per-stage counters and histograms — queue depth, backward-first
//!    preemptions, stall/bubble time, context-cache hits/misses/evictions,
//!    and forward/backward task latency. [`MetricsRecorder`] is the
//!    DES event loop's in-memory implementation; the threaded runtime
//!    writes the same counters into a [`TelemetryHub`] (layer 5).
//! 2. **Invariants** ([`invariant`]): [`CspChecker`] validates the causal
//!    synchronous parallelism contract on every task admission — no
//!    unfinished earlier subnet may still own a layer the admitted task
//!    touches — including the `min(K, s_w)` layer-mirroring refinement,
//!    and cross-checks the observed read/write interleaving per shared
//!    layer against sequential exploration order. Violations name the
//!    subnet pair and the shared layer.
//! 3. **Reports** ([`report`]): [`ObsReport`] renders the recorded
//!    metrics as a human-readable per-stage table or as JSON, for the
//!    `crates/bench` experiment drivers.
//! 4. **Tracing** ([`trace`]): the [`Tracer`] trait emits per-task
//!    [`Span`]s — forward/backward, fetch/prefetch/evict, checkpoint,
//!    restart — each carrying a causal edge naming why it started
//!    when it did (activation arrival, CSP shared-layer writer
//!    completion, fetch completion, recovery replay). Consumers:
//!    [`chrome`] exports Chrome trace-event JSON loadable in Perfetto
//!    (with flow events drawing the causal edges), and [`critical_path`](mod@critical_path)
//!    walks the span DAG to attribute the end-to-end makespan to
//!    compute, fetch, causal stall, and pipeline bubble.
//! 5. **Live telemetry** ([`telemetry`] + [`expo`]): a [`TelemetryHub`]
//!    of lock-light per-stage atomic cells, readable while the run is in
//!    flight — the threaded runtime's one counter ledger, which its
//!    stages write directly. The engine publishes [`MetricsSnapshot`]s
//!    onto a fixed-capacity ring, rates are derived between snapshots,
//!    and [`expo`] renders the whole thing as Prometheus 0.0.4 text
//!    (served by the ops plane's `/metrics` route) — plus the parser /
//!    validator the `repro telemetry` hard verdicts are built on.
//! 6. **Diagnosis** ([`flight`] + [`watchdog`] + [`doctor`]): an
//!    always-on bounded [`FlightRecorder`] of compact per-stage events
//!    (dumped to `.flight.json` on faults, watchdog trips, or request),
//!    a [`Watchdog`] running stall / straggler / CSP-convoy detectors
//!    over the sampled per-stage metrics (the DES's recorder read in
//!    place, the threaded hub's snapshots; deterministic in the DES,
//!    advisory under wall clock), and [`doctor::diagnose`] which diffs
//!    two runs' critical paths into ranked attribution deltas and a
//!    kernel-vs-scheduling verdict.
//! 7. **Ops plane** ([`ops`] + [`journal`]): a multi-route HTTP surface
//!    (`/metrics`, `/healthz`, `/readyz`, `/status`, `/flight`,
//!    `/events`) over one run's live state, and the unified structured
//!    [`Journal`] — one bounded JSONL event log replacing the scattered
//!    stderr side channels, consumed by `/events`, `--journal PATH`,
//!    and `naspipe doctor`. [`OpsServer`] and [`http_get`] are the
//!    workspace's only HTTP server and client; still `std::net` only,
//!    still bitwise zero-effect on results.
//! 8. **Event bus** ([`bus`]): the one fan-out. Layers 5-7 are the
//!    sinks every stage of a run shares — flight ring, journal, hub
//!    gauges, [`OpsState`], watchdog, flight dump, stderr. An engine
//!    reaches them only by handing a typed [`RunEvent`] to its run's
//!    [`EventBus`]; one `match` there decides which sink gets what. The
//!    per-worker [`SpanTracer`] of layer 4 stays with its worker. Stderr
//!    is written through the private `status` helper, so mirrored
//!    warnings and the progress line never splice into each other.
//! 9. **JSON** ([`json`]): the one codec. JSON text is read and escaped
//!    only there — [`parse_json`] / [`JsonValue`] behind every reader
//!    (chrome traces, journal, `/status`, flight dumps, `BENCH_*.json`),
//!    `JsonStr` / `JsonNum` inside every emitter's `write!`
//!    template. No module keeps a private parser, escaper or scanner.
//!
//! The crate deliberately has no dependency on `naspipe-core`: the
//! runtimes resolve their own partition/stage types into plain
//! `(LayerRef, stage)` pairs before talking to the checker, so the
//! tooling stays reusable across the event-driven simulator and the real
//! threaded runtime.

pub mod bus;
pub mod chrome;
pub mod critical_path;
pub mod doctor;
pub mod expo;
pub mod flight;
pub mod invariant;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod report;
mod status;
pub mod telemetry;
pub mod trace;
pub mod watchdog;

pub use bus::{DiagnosticsOptions, EventBus, RunEvent};
pub use chrome::{export_chrome, parse_chrome};
pub use critical_path::{critical_path, AttrClass, CriticalPath};
pub use doctor::{
    bench_deltas, diagnose, explain_bench_check, flight_kind_counts, journal_summary, BenchDelta,
    Diagnosis,
};
pub use expo::{counter_values, monotonicity_violations, render_exposition, validate_exposition};
pub use flight::{FlightEventKind, FlightRecorder};
pub use invariant::{CspChecker, Violation};
pub use journal::{parse_event, parse_journal, validate_journal, Journal, JournalLevel};
pub use json::{parse_json, JsonValue};
pub use metrics::{Counter, MetricsRecorder, Recorder, Sample};
pub use ops::{http_get, render_top, validate_status, OpsServer, OpsState, RunPhase};
pub use report::{ObsReport, PoolWorkerObs, RunMeta};
pub use telemetry::{MetricsSnapshot, TeeRecorder, TelemetryHub, TelemetryOptions};
pub use trace::{
    CausalEdge, CauseKind, NullTracer, Span, SpanDraft, SpanId, SpanKind, SpanTrace, SpanTracer,
    Tracer,
};
pub use watchdog::{Watchdog, WatchdogVerdictKind};

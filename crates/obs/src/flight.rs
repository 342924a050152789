//! Always-on flight recorder: bounded per-stage rings of compact events.
//!
//! Both engines feed a [`FlightRecorder`] from their hot paths. Each
//! stage owns a fixed-capacity ring, so a misbehaving run can never grow
//! memory without bound — when a ring is full the oldest event is
//! dropped (and counted). Recording takes `&self` with one uncontended
//! per-stage mutex (each stage has a single writer; the only cross-stage
//! contention is a dump reading all rings at once), and recording has
//! the same zero-effect-on-results guarantee as `obs::telemetry`: the
//! bitwise-equal run tests in `core` prove enabling it changes nothing.
//!
//! The log is dumped to a `.flight.json` artifact on panic escalation,
//! fault recovery, watchdog trip, or explicit request (`--flight-dump`),
//! so the last `capacity` events per stage survive for `naspipe doctor`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Ring capacity per stage when the configuration leaves it 0.
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What happened. The `detail` payload of a [`FlightEvent`] is
/// kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlightEventKind {
    /// A forward task was admitted by the scheduler. `detail` = subnet
    /// sequence id.
    Admission,
    /// The stage had forward work queued but the CSP rule admitted none
    /// of it. `detail` = number of queued-but-inadmissible candidates.
    CspStall,
    /// A task blocked on a synchronous parameter fetch. `detail` =
    /// missing bytes.
    FetchWait,
    /// A CSP-watermark checkpoint cut completed. `detail` = watermark.
    CheckpointCut,
    /// An injected fault fired. `detail` = subnet.
    Fault,
    /// A pipeline restart, one mark per stage. `detail` = the
    /// incarnation that ends.
    Recovery,
    /// A watchdog detector latched. `detail` = verdict-kind index.
    WatchdogTrip,
}

impl FlightEventKind {
    /// Stable kebab-case name used in the dump JSON.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Admission => "admission",
            FlightEventKind::CspStall => "csp-stall",
            FlightEventKind::FetchWait => "fetch-wait",
            FlightEventKind::CheckpointCut => "checkpoint-cut",
            FlightEventKind::Fault => "fault",
            FlightEventKind::Recovery => "recovery",
            FlightEventKind::WatchdogTrip => "watchdog-trip",
        }
    }
}

/// One compact recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since run start (simulated or wall-clock).
    pub at_us: u64,
    /// Stage the event happened on.
    pub stage: u32,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific payload (see [`FlightEventKind`]).
    pub detail: u64,
}

struct Ring {
    buf: VecDeque<FlightEvent>,
    dropped: u64,
}

/// Lock-light bounded event recorder, one ring per stage.
///
/// Out-of-range stages are silently dropped, mirroring
/// [`TelemetryHub`](crate::TelemetryHub)'s contract.
pub struct FlightRecorder {
    rings: Vec<Mutex<Ring>>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("stages", &self.rings.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder for `num_stages` stages with `capacity` events per
    /// stage (0 means `DEFAULT_FLIGHT_CAPACITY`).
    pub fn new(num_stages: usize, capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_FLIGHT_CAPACITY
        } else {
            capacity
        };
        FlightRecorder {
            rings: (0..num_stages)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(capacity.min(4096)),
                        dropped: 0,
                    })
                })
                .collect(),
            capacity,
        }
    }

    /// Per-stage ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stage capacity the recorder was built with.
    pub fn num_stages(&self) -> usize {
        self.rings.len()
    }

    /// Records one event (hot path; one uncontended per-stage lock).
    pub fn record(&self, stage: u32, at_us: u64, kind: FlightEventKind, detail: u64) {
        let Some(ring) = self.rings.get(stage as usize) else {
            return;
        };
        let mut ring = ring.lock().expect("flight ring poisoned");
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(FlightEvent {
            at_us,
            stage,
            kind,
            detail,
        });
    }

    /// Total events evicted across all rings — the saturation signal the
    /// `naspipe_flight_dropped_total` family exports without paying for a
    /// full [`snapshot`](Self::snapshot) on every scrape.
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.lock().expect("flight ring poisoned").dropped)
            .sum()
    }

    /// Copies every ring into an immutable, time-ordered log.
    pub fn snapshot(&self) -> FlightLog {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in &self.rings {
            let ring = ring.lock().expect("flight ring poisoned");
            events.extend(ring.buf.iter().copied());
            dropped += ring.dropped;
        }
        // Stable sort: per-stage insertion order is preserved for ties.
        events.sort_by_key(|e| (e.at_us, e.stage));
        FlightLog {
            capacity: self.capacity as u64,
            events,
            dropped,
        }
    }
}

/// A point-in-time copy of the recorder, merged and time-ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Per-stage ring capacity the events were captured under.
    pub capacity: u64,
    /// Events in `(at_us, stage)` order.
    pub events: Vec<FlightEvent>,
    /// Events evicted across all rings because they were full.
    pub dropped: u64,
}

impl FlightLog {
    /// The compact totals embedded in the ObsReport JSON.
    pub fn summary(&self) -> FlightSummary {
        FlightSummary {
            events: self.events.len() as u64,
            dropped: self.dropped,
            capacity: self.capacity,
        }
    }

    /// Renders the dump artifact (`reason` names what triggered it:
    /// `"panic"`, `"fault"`, `"watchdog-trip"`, `"end-of-run"`).
    pub fn to_json(&self, reason: &str) -> String {
        let mut out = String::with_capacity(64 + 64 * self.events.len());
        let _ = write!(
            out,
            "{{\"reason\":{},\"capacity\":{},\"dropped\":{},\"events\":[",
            crate::json::JsonStr(reason),
            self.capacity,
            self.dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_us\":{},\"stage\":{},\"kind\":\"{}\",\"detail\":{}}}",
                e.at_us,
                e.stage,
                e.kind.name(),
                e.detail
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes the dump artifact to `path` (creating parent directories).
    pub(crate) fn write_dump(&self, path: &str, reason: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json(reason))
    }
}

/// Totals-only view of a [`FlightLog`] for the ObsReport (schema 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightSummary {
    /// Events retained across all rings at snapshot time.
    pub events: u64,
    /// Events evicted because rings were full.
    pub dropped: u64,
    /// Per-stage ring capacity (0 only in the empty default).
    pub capacity: u64,
}

impl FlightSummary {
    /// Whether nothing was recorded (the schema-4-compatible state).
    pub fn is_empty(&self) -> bool {
        self.events == 0 && self.dropped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(2, 3);
        for i in 0..5 {
            rec.record(0, i * 10, FlightEventKind::Admission, i);
        }
        let log = rec.snapshot();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 2);
        // Oldest evicted first: 20, 30, 40 survive.
        assert_eq!(
            log.events.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![20, 30, 40]
        );
    }

    #[test]
    fn snapshot_merges_stages_in_time_order() {
        let rec = FlightRecorder::new(3, 8);
        rec.record(2, 50, FlightEventKind::CspStall, 1);
        rec.record(0, 10, FlightEventKind::Admission, 7);
        rec.record(1, 10, FlightEventKind::FetchWait, 4096);
        rec.record(0, 90, FlightEventKind::CheckpointCut, 8);
        let log = rec.snapshot();
        let order: Vec<(u64, u32)> = log.events.iter().map(|e| (e.at_us, e.stage)).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (50, 2), (90, 0)]);
    }

    #[test]
    fn out_of_range_stage_is_dropped_silently() {
        let rec = FlightRecorder::new(1, 4);
        rec.record(9, 1, FlightEventKind::Fault, 0);
        assert!(rec.snapshot().events.is_empty());
    }

    #[test]
    fn zero_capacity_uses_default() {
        let rec = FlightRecorder::new(1, 0);
        assert_eq!(rec.capacity(), DEFAULT_FLIGHT_CAPACITY);
    }

    #[test]
    fn json_dump_names_kind_and_reason() {
        let rec = FlightRecorder::new(1, 4);
        rec.record(0, 12, FlightEventKind::WatchdogTrip, 1);
        let json = rec.snapshot().to_json("watchdog-trip");
        assert!(json.starts_with("{\"reason\":\"watchdog-trip\","));
        assert!(json.contains("\"kind\":\"watchdog-trip\""));
        assert!(json.contains("\"at_us\":12"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn summary_tracks_counts() {
        let rec = FlightRecorder::new(2, 2);
        rec.record(0, 1, FlightEventKind::Admission, 0);
        rec.record(0, 2, FlightEventKind::Admission, 1);
        rec.record(0, 3, FlightEventKind::Admission, 2);
        assert_eq!(rec.dropped(), 1, "cheap accessor agrees with snapshot");
        let s = rec.snapshot().summary();
        assert_eq!(s.events, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.capacity, 2);
        assert!(!s.is_empty());
        assert!(FlightSummary::default().is_empty());
    }
}

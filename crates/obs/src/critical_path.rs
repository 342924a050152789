//! Offline critical-path analysis over a [`SpanTrace`].
//!
//! Walks backward from the last compute span to time zero, at each step
//! following the *binding* predecessor — whichever of (a) the span's
//! recorded causal edge and (b) the previous compute span on the same
//! stage (the resource edge, derived here rather than recorded) ends
//! latest, i.e. actually gated the start. The walk is contiguous in
//! time: every microsecond of `[0, makespan]` lands in exactly one
//! segment, so the attribution totals sum to the makespan *by
//! construction* — the invariant CI checks against each run.
//!
//! Gap segments (where the critical stage sat idle) are classified by
//! the waiting span's causal edge: a CSP shared-layer writer gate is a
//! **causal stall** (the price of sequential equivalence, Fig. 1 of the
//! paper), an activation/gradient arrival is a pipeline **bubble**, and
//! a parameter-fetch gate is **fetch** wait. These are per-stage
//! comparable with the [`Recorder`](crate::Recorder)'s `StallUs` /
//! `BubbleUs` counters: the critical path visits only idle intervals,
//! so its per-stage idle can never exceed what the recorder measured.

use crate::trace::{CauseKind, Span, SpanId, SpanTrace};
use std::fmt::Write as _;

/// Which bucket a critical-path segment's time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrClass {
    /// A compute span (forward/backward/update/recompute) executing.
    Compute,
    /// Waiting on (or inside) a parameter fetch/prefetch.
    Fetch,
    /// Idle because CSP ordered this task after a shared-layer writer.
    CausalStall,
    /// Idle waiting on pipeline dataflow (activation/gradient arrival,
    /// injection, or nothing to run at all).
    Bubble,
}

impl AttrClass {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AttrClass::Compute => "compute",
            AttrClass::Fetch => "fetch",
            AttrClass::CausalStall => "causal-stall",
            AttrClass::Bubble => "bubble",
        }
    }
}

/// One contiguous segment of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// The span executing, or — for gap segments — the span that was
    /// waiting to start.
    pub span: SpanId,
    /// Stage the segment is charged to.
    pub stage: u32,
    /// Bucket the time lands in.
    pub class: AttrClass,
    /// Segment start (inclusive), microseconds.
    pub start_us: u64,
    /// Segment end (exclusive), microseconds.
    pub end_us: u64,
    /// Human description, e.g. `SN3.forward@P1` or
    /// `wait csp-writer-completion(SN2) for SN3.forward@P1`.
    pub label: String,
}

impl PathSegment {
    /// Segment length in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Result of [`critical_path`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Path segments in chronological order, covering `[0, total_us]`
    /// with no gaps or overlaps.
    pub segments: Vec<PathSegment>,
    /// Total path length — equals the trace makespan by construction.
    pub total_us: u64,
    /// Time in compute segments.
    pub compute_us: u64,
    /// Time in fetch segments (fetch spans + fetch-gated waits).
    pub fetch_us: u64,
    /// Time stalled on CSP shared-layer ordering.
    pub causal_stall_us: u64,
    /// Time in pipeline bubbles.
    pub bubble_us: u64,
    /// Idle (causal-stall + bubble + fetch-wait) charged per stage,
    /// indexed by stage — comparable against the recorder's per-stage
    /// `stall_us + bubble_us` (path idle is a lower bound).
    pub stage_idle_us: Vec<u64>,
}

impl CriticalPath {
    /// `compute + fetch + causal_stall + bubble` — always `total_us`.
    pub fn attributed_us(&self) -> u64 {
        self.compute_us + self.fetch_us + self.causal_stall_us + self.bubble_us
    }

    /// Renders a short text report (totals plus the longest segments).
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        let pct = |part: u64| {
            if self.total_us == 0 {
                0.0
            } else {
                100.0 * part as f64 / self.total_us as f64
            }
        };
        let _ = writeln!(out, "critical path: {} us", self.total_us);
        let _ = writeln!(
            out,
            "  compute      {:>10} us ({:5.1}%)",
            self.compute_us,
            pct(self.compute_us)
        );
        let _ = writeln!(
            out,
            "  fetch        {:>10} us ({:5.1}%)",
            self.fetch_us,
            pct(self.fetch_us)
        );
        let _ = writeln!(
            out,
            "  causal stall {:>10} us ({:5.1}%)",
            self.causal_stall_us,
            pct(self.causal_stall_us)
        );
        let _ = writeln!(
            out,
            "  bubble       {:>10} us ({:5.1}%)",
            self.bubble_us,
            pct(self.bubble_us)
        );
        let mut ranked: Vec<&PathSegment> = self.segments.iter().collect();
        ranked.sort_by_key(|s| std::cmp::Reverse(s.dur_us()));
        for seg in ranked.into_iter().take(top) {
            let _ = writeln!(
                out,
                "  [{:>8}..{:>8}] {:<12} {}",
                seg.start_us,
                seg.end_us,
                seg.class.name(),
                seg.label
            );
        }
        out
    }
}

fn classify_span(span: &Span) -> AttrClass {
    if span.kind.is_compute() {
        AttrClass::Compute
    } else {
        AttrClass::Fetch
    }
}

fn classify_gap(waiter: &Span) -> AttrClass {
    match waiter.cause.map(|c| c.kind) {
        Some(CauseKind::CspWriterCompletion { .. }) => AttrClass::CausalStall,
        Some(CauseKind::FetchCompletion) => AttrClass::Fetch,
        // Arrival waits, injection latency, recovery gaps, and
        // causeless idling are all dataflow bubbles.
        _ => AttrClass::Bubble,
    }
}

/// Computes the critical path through `trace`. Empty traces yield an
/// empty path with `total_us == 0`.
pub fn critical_path(trace: &SpanTrace) -> CriticalPath {
    let mut cp = CriticalPath {
        stage_idle_us: vec![0; trace.num_stages() as usize],
        ..CriticalPath::default()
    };

    // Per-stage compute spans in time order, for resource edges.
    let mut stage_compute: Vec<Vec<&Span>> = vec![Vec::new(); trace.num_stages() as usize];
    for span in trace.spans() {
        if span.kind.is_compute() {
            stage_compute[span.stage as usize].push(span);
        }
    }
    // Per stage, the length of the prefix of that list that can still
    // end at or before the cursor. The cursor only moves down, so a span
    // dropped from the prefix never returns and the walk passes each
    // compute span once.
    let mut reachable: Vec<usize> = stage_compute.iter().map(Vec::len).collect();

    // The walk seed: the compute span with the latest end (ties broken
    // toward the later start, then larger id, for determinism).
    let Some(last) = trace
        .spans()
        .iter()
        .filter(|s| s.kind.is_compute())
        .max_by_key(|s| (s.end_us, s.start_us, s.id))
    else {
        return cp;
    };
    cp.total_us = last.end_us;

    let mut segments_rev: Vec<PathSegment> = Vec::new();
    let mut cursor = last.end_us;
    let mut current = last;
    let mut steps = 0usize;
    let max_steps = 2 * trace.len() + 4;

    loop {
        steps += 1;
        debug_assert!(steps <= max_steps, "critical-path walk failed to converge");
        if steps > max_steps {
            break;
        }

        // Span segment: the portion of `current` below the cursor.
        if cursor > current.start_us {
            segments_rev.push(PathSegment {
                span: current.id,
                stage: current.stage,
                class: classify_span(current),
                start_us: current.start_us,
                end_us: cursor,
                label: current.label(),
            });
            cursor = current.start_us;
        }
        if cursor == 0 {
            break;
        }

        // Candidate predecessors, binding = latest end.
        let causal = current
            .cause
            .and_then(|c| trace.get(c.src))
            .filter(|s| s.end_us <= cursor && s.start_us < cursor);
        let lane = &stage_compute[current.stage as usize];
        let prefix = &mut reachable[current.stage as usize];
        while *prefix > 0 && lane[*prefix - 1].end_us > cursor {
            *prefix -= 1;
        }
        let resource = lane[..*prefix]
            .iter()
            .rev()
            .find(|s| s.end_us <= cursor && s.id != current.id)
            .copied();
        let pred = match (causal, resource) {
            (Some(a), Some(b)) => Some(if a.end_us >= b.end_us { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };

        let pred_end = pred.map(|p| p.end_us).unwrap_or(0);
        if pred_end < cursor {
            // Gap: the critical stage sat idle waiting for `current` to
            // become runnable. Classified by why `current` was waiting.
            let class = classify_gap(current);
            cp.stage_idle_us[current.stage as usize] += cursor - pred_end;
            segments_rev.push(PathSegment {
                span: current.id,
                stage: current.stage,
                class,
                start_us: pred_end,
                end_us: cursor,
                label: match current.cause {
                    Some(edge) => format!("wait {} for {}", edge.kind, current.label()),
                    None => format!("idle before {}", current.label()),
                },
            });
            cursor = pred_end;
        }
        match pred {
            Some(p) if cursor > 0 => current = p,
            _ => break,
        }
    }

    segments_rev.reverse();
    for seg in &segments_rev {
        let dur = seg.dur_us();
        match seg.class {
            AttrClass::Compute => cp.compute_us += dur,
            AttrClass::Fetch => cp.fetch_us += dur,
            AttrClass::CausalStall => cp.causal_stall_us += dur,
            AttrClass::Bubble => cp.bubble_us += dur,
        }
    }
    cp.segments = segments_rev;
    debug_assert_eq!(cp.attributed_us(), cp.total_us);
    debug_assert!(
        cp.segments.windows(2).all(|w| w[0].end_us == w[1].start_us),
        "path segments must be contiguous"
    );
    cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanDraft, SpanId, SpanKind, SpanTracer, Tracer};

    /// Hand-built 2-stage / 3-subnet schedule with a known answer.
    ///
    /// Stage 0 (us): F0 [0,10]  F1 [10,20]  F2 [25,35]   (F2 gated by a
    ///   CSP writer: B0@P0 finishing at 25)
    /// Stage 0 bwd:  B0 [15,25] is on stage 0? — keep it simple: the
    ///   writer is modelled as B0 on stage 0, [15,25].
    /// Stage 1: fetch [10,12], F0' [12,22] (fetch-gated), F1' [22,32],
    ///   F2' [37,47] (activation of F2 arrives at 35 + 2 transfer = 37).
    ///
    /// Expected critical path (walking back from F2'@P1 end=47):
    ///   F2' [37,47] compute ->
    ///   gap [35,37] bubble (activation arrival) ->
    ///   F2  [25,35] compute ->
    ///   gap? none: writer B0 ends exactly 25 ->
    ///   B0  [15,25] compute ->
    ///   F1  [10,20]? no — B0's resource/causal pred: F1 ends 20 > 15?
    ///   B0 cause: gradient arrival from F0'@P1 ending 22 > 15 — not
    ///   admissible (ends after B0 starts), so model B0 causeless;
    ///   resource pred on stage 0 with end <= 15 is F0 [0,10] -> gap
    ///   [10,15] bubble -> F0 [0,10] compute -> done.
    /// Totals: compute 10+10+10+10 = 40, bubble 2+5 = 7, total 47.
    fn known_schedule() -> (SpanTrace, Vec<SpanId>) {
        let mut t = SpanTracer::new();
        let f0 = t.emit(
            SpanDraft::new(0, SpanKind::Forward, 0, 10)
                .subnet(0)
                .caused_by(SpanId::EXTERNAL, CauseKind::Injection),
        );
        let f1 = t.emit(
            SpanDraft::new(0, SpanKind::Forward, 10, 20)
                .subnet(1)
                .caused_by(SpanId::EXTERNAL, CauseKind::Injection),
        );
        let b0 = t.emit(SpanDraft::new(0, SpanKind::Backward, 15, 25).subnet(0));
        let f2 = t.emit(
            SpanDraft::new(0, SpanKind::Forward, 25, 35)
                .subnet(2)
                .caused_by(b0, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        let fetch = t.emit(SpanDraft::new(1, SpanKind::Fetch, 10, 12).subnet(0));
        let f0p = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 12, 22)
                .subnet(0)
                .caused_by(fetch, CauseKind::FetchCompletion),
        );
        let f1p = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 22, 32)
                .subnet(1)
                .caused_by(f1, CauseKind::ActivationArrival),
        );
        let f2p = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 37, 47)
                .subnet(2)
                .caused_by(f2, CauseKind::ActivationArrival),
        );
        (t.take(), vec![f0, f1, b0, f2, fetch, f0p, f1p, f2p])
    }

    #[test]
    fn hand_built_schedule_has_known_answer() {
        let (trace, ids) = known_schedule();
        let cp = critical_path(&trace);
        assert_eq!(cp.total_us, 47);
        assert_eq!(cp.total_us, trace.makespan_us());
        assert_eq!(cp.attributed_us(), cp.total_us);
        assert_eq!(cp.compute_us, 40);
        assert_eq!(cp.bubble_us, 7);
        assert_eq!(cp.causal_stall_us, 0);
        assert_eq!(cp.fetch_us, 0);
        let path: Vec<SpanId> = cp.segments.iter().map(|s| s.span).collect();
        let (f0, b0, f2, f2p) = (ids[0], ids[2], ids[3], ids[7]);
        // f0, gap-before-b0, b0, f2, gap-before-f2p, f2p
        assert_eq!(path, vec![f0, b0, b0, f2, f2p, f2p]);
        // Idle charged where the waiting happened: 5us on P0, 2us on P1.
        assert_eq!(cp.stage_idle_us, vec![5, 2]);
    }

    #[test]
    fn csp_writer_gate_counts_as_causal_stall() {
        // One stage: F0 [0,10], then B0 [12,20] gated by F0's writer
        // completion with a 2us gap.
        let mut t = SpanTracer::new();
        let f0 = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 10).subnet(0));
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 12, 20)
                .subnet(1)
                .caused_by(f0, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        let cp = critical_path(&t.take());
        assert_eq!(cp.total_us, 20);
        assert_eq!(cp.compute_us, 18);
        assert_eq!(cp.causal_stall_us, 2);
        assert_eq!(cp.stage_idle_us, vec![2]);
    }

    #[test]
    fn fetch_gate_attributes_fetch_time() {
        // Fetch [0,6] then forward [6,16] gated on it; path enters the
        // fetch span itself (resource lane empty before).
        let mut t = SpanTracer::new();
        let fetch = t.emit(SpanDraft::new(0, SpanKind::Fetch, 0, 6).subnet(0));
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 6, 16)
                .subnet(0)
                .caused_by(fetch, CauseKind::FetchCompletion),
        );
        let cp = critical_path(&t.take());
        assert_eq!(cp.total_us, 16);
        assert_eq!(cp.compute_us, 10);
        assert_eq!(cp.fetch_us, 6);
        assert_eq!(cp.bubble_us, 0);
    }

    #[test]
    fn empty_trace_is_empty_path() {
        let cp = critical_path(&SpanTrace::default());
        assert_eq!(cp.total_us, 0);
        assert!(cp.segments.is_empty());
    }

    #[test]
    fn late_start_attributes_leading_bubble() {
        let mut t = SpanTracer::new();
        t.emit(SpanDraft::new(0, SpanKind::Forward, 5, 15).subnet(0));
        let cp = critical_path(&t.take());
        assert_eq!(cp.total_us, 15);
        assert_eq!(cp.compute_us, 10);
        assert_eq!(cp.bubble_us, 5);
        assert_eq!(cp.segments[0].start_us, 0);
        assert!(cp.segments[0].label.starts_with("idle before"));
    }

    #[test]
    fn render_text_mentions_all_classes() {
        let (trace, _) = known_schedule();
        let text = critical_path(&trace).render_text(3);
        assert!(text.contains("critical path: 47 us"));
        assert!(text.contains("compute"));
        assert!(text.contains("bubble"));
    }
}

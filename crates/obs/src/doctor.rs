//! Automated regression diagnosis over two runs' artifacts.
//!
//! [`diagnose`] takes a baseline and a candidate [`SpanTrace`], runs
//! [`critical_path`] over both, and ranks where the makespan delta went:
//! per-class and per-stage attribution deltas (compute / fetch /
//! causal-stall / bubble), the top-k spans whose durations shifted the
//! most, and a per-stage compute-time straggler ranking. Because the
//! critical path attributes every microsecond of each run by
//! construction, the four class deltas sum to the measured makespan
//! delta *exactly* — the invariant `repro doctor` asserts.
//!
//! The `explain_*` helpers turn existing gate failures into the same
//! vocabulary: [`explain_bench_check`] renders a kernel-vs-scheduling
//! verdict from `bench-check` rows, and [`explain_replay`] summarizes a
//! replay-gate divergence report. Both are invoked automatically by the
//! CLI's `--explain` flags.

use crate::critical_path::{critical_path, AttrClass};
use crate::json::{parse_json, JsonValue};
use crate::trace::{CauseKind, SpanKind, SpanTrace};
use std::collections::HashMap;
use std::fmt::Write as _;

/// All four attribution classes in the fixed report order.
const CLASSES: [AttrClass; 4] = [
    AttrClass::Compute,
    AttrClass::Fetch,
    AttrClass::CausalStall,
    AttrClass::Bubble,
];

/// One class's attributed time in each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassDelta {
    /// Which attribution bucket.
    pub class: AttrClass,
    /// Microseconds attributed in the baseline run.
    pub base_us: u64,
    /// Microseconds attributed in the candidate run.
    pub cand_us: u64,
}

impl ClassDelta {
    /// Candidate minus baseline, signed.
    pub fn delta_us(&self) -> i64 {
        self.cand_us as i64 - self.base_us as i64
    }
}

/// One stage's signed per-class attribution deltas (candidate − base).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageDelta {
    /// Stage index.
    pub stage: u32,
    /// Compute delta, us.
    pub compute_us: i64,
    /// Fetch delta, us.
    pub fetch_us: i64,
    /// Causal-stall delta, us.
    pub causal_stall_us: i64,
    /// Bubble delta, us.
    pub bubble_us: i64,
}

impl StageDelta {
    /// Sum of this stage's class deltas.
    pub fn total_us(&self) -> i64 {
        self.compute_us + self.fetch_us + self.causal_stall_us + self.bubble_us
    }
}

/// A span (matched between runs by stage, kind, subnet, and occurrence
/// index) whose duration shifted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanShift {
    /// Stage the span ran on.
    pub stage: u32,
    /// Span kind name (`forward`, `backward`, ...).
    pub kind: &'static str,
    /// Subnet, if the span had one.
    pub subnet: Option<u64>,
    /// Occurrence index of this (stage, kind, subnet) key, 0-based.
    pub occurrence: usize,
    /// Baseline duration, us.
    pub base_us: u64,
    /// Candidate duration, us.
    pub cand_us: u64,
}

impl SpanShift {
    /// Candidate minus baseline, signed.
    pub fn delta_us(&self) -> i64 {
        self.cand_us as i64 - self.base_us as i64
    }

    fn label(&self) -> String {
        match self.subnet {
            Some(s) => format!("SN{s}.{}@P{}", self.kind, self.stage),
            None => format!("{}@P{}", self.kind, self.stage),
        }
    }
}

/// Per-stage cumulative compute-duration delta, for straggler ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerRank {
    /// Stage index.
    pub stage: u32,
    /// Total compute-span duration delta (candidate − base), us.
    pub compute_delta_us: i64,
}

/// Per-stage *exported stall*: idle time the rest of the schedule spent
/// waiting on work bound to this stage, summed over the whole trace.
///
/// For every compute span that started after an idle gap on its own
/// stage, the gap is credited to the stage of the causal edge that
/// released it — an activation, gradient, or CSP-writer completion.
/// Unlike the critical-path class deltas, this sees *all* induced
/// waiting: a slowed stage keeps itself busy (its own path segments
/// classify as compute) while exporting stall to every stage waiting on
/// its outputs, and that export is what this ranking surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallExport {
    /// Stage the waiting was bound to (the cause's source stage).
    pub stage: u32,
    /// Microseconds of waiting it induced in the baseline run.
    pub base_us: u64,
    /// Microseconds of waiting it induced in the candidate run.
    pub cand_us: u64,
}

impl StallExport {
    /// Candidate minus baseline, signed.
    pub fn delta_us(&self) -> i64 {
        self.cand_us as i64 - self.base_us as i64
    }
}

/// The ranked diagnosis [`diagnose`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// Baseline makespan (critical-path total), us.
    pub base_total_us: u64,
    /// Candidate makespan, us.
    pub cand_total_us: u64,
    /// The four attribution classes, fixed order. Their signed deltas
    /// sum to `cand_total_us - base_total_us` exactly.
    pub classes: Vec<ClassDelta>,
    /// Per-stage signed class deltas, stage order.
    pub stages: Vec<StageDelta>,
    /// Top-k spans by absolute duration shift, largest first.
    pub shifts: Vec<SpanShift>,
    /// Stages ranked by compute-duration growth, largest first.
    pub stragglers: Vec<StragglerRank>,
    /// Stages ranked by exported-stall growth (trace-wide idle time
    /// their causal edges induced in waiters), largest first.
    pub exporters: Vec<StallExport>,
    /// The class with the largest absolute delta.
    pub dominant: AttrClass,
    /// `"kernel"` when the dominant delta is compute, else
    /// `"scheduling"`.
    pub verdict: &'static str,
}

impl Diagnosis {
    /// Candidate minus baseline makespan, signed.
    pub fn makespan_delta_us(&self) -> i64 {
        self.cand_total_us as i64 - self.base_total_us as i64
    }

    /// Sum of the four class deltas — equals
    /// [`makespan_delta_us`](Self::makespan_delta_us) by construction.
    pub fn class_delta_sum_us(&self) -> i64 {
        self.classes.iter().map(|c| c.delta_us()).sum()
    }

    /// Human-readable ranked report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "doctor: makespan {} -> {} us ({}{} us)",
            self.base_total_us,
            self.cand_total_us,
            if self.makespan_delta_us() >= 0 {
                "+"
            } else {
                ""
            },
            self.makespan_delta_us()
        );
        let _ = writeln!(
            out,
            "verdict: {} (dominant delta: {})",
            self.verdict,
            self.dominant.name()
        );
        let _ = writeln!(out, "attribution deltas (candidate - baseline):");
        for c in &self.classes {
            let _ = writeln!(
                out,
                "  {:<12} {:>10} -> {:>10} us  ({}{} us)",
                c.class.name(),
                c.base_us,
                c.cand_us,
                if c.delta_us() >= 0 { "+" } else { "" },
                c.delta_us()
            );
        }
        if !self.stragglers.is_empty() {
            let _ = writeln!(out, "straggler ranking (compute-time growth):");
            for s in &self.stragglers {
                let _ = writeln!(
                    out,
                    "  stage {:<3} {}{} us",
                    s.stage,
                    if s.compute_delta_us >= 0 { "+" } else { "" },
                    s.compute_delta_us
                );
            }
        }
        if !self.exporters.is_empty() {
            let _ = writeln!(
                out,
                "exported-stall ranking (idle time induced in waiters):"
            );
            for e in &self.exporters {
                let _ = writeln!(
                    out,
                    "  stage {:<3} {:>10} -> {:>10} us  ({}{} us)",
                    e.stage,
                    e.base_us,
                    e.cand_us,
                    if e.delta_us() >= 0 { "+" } else { "" },
                    e.delta_us()
                );
            }
        }
        if !self.shifts.is_empty() {
            let _ = writeln!(out, "top shifted spans:");
            for s in &self.shifts {
                let _ = writeln!(
                    out,
                    "  {:<24} #{:<3} {:>8} -> {:>8} us  ({}{} us)",
                    s.label(),
                    s.occurrence,
                    s.base_us,
                    s.cand_us,
                    if s.delta_us() >= 0 { "+" } else { "" },
                    s.delta_us()
                );
            }
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"base_total_us\":{},\"cand_total_us\":{},\"makespan_delta_us\":{},\
             \"verdict\":\"{}\",\"dominant\":\"{}\",\"classes\":[",
            self.base_total_us,
            self.cand_total_us,
            self.makespan_delta_us(),
            self.verdict,
            self.dominant.name()
        );
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"base_us\":{},\"cand_us\":{},\"delta_us\":{}}}",
                c.class.name(),
                c.base_us,
                c.cand_us,
                c.delta_us()
            );
        }
        out.push_str("],\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"compute_us\":{},\"fetch_us\":{},\"causal_stall_us\":{},\
                 \"bubble_us\":{}}}",
                s.stage, s.compute_us, s.fetch_us, s.causal_stall_us, s.bubble_us
            );
        }
        out.push_str("],\"stragglers\":[");
        for (i, s) in self.stragglers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"compute_delta_us\":{}}}",
                s.stage, s.compute_delta_us
            );
        }
        out.push_str("],\"exporters\":[");
        for (i, e) in self.exporters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"base_us\":{},\"cand_us\":{},\"delta_us\":{}}}",
                e.stage,
                e.base_us,
                e.cand_us,
                e.delta_us()
            );
        }
        out.push_str("],\"shifts\":[");
        for (i, s) in self.shifts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"kind\":\"{}\",\"subnet\":{},\"occurrence\":{},\
                 \"base_us\":{},\"cand_us\":{},\"delta_us\":{}}}",
                s.stage,
                s.kind,
                s.subnet
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into()),
                s.occurrence,
                s.base_us,
                s.cand_us,
                s.delta_us()
            );
        }
        out.push_str("]}");
        out
    }
}

/// Span durations grouped by identity key, in time order (the trace is
/// already `(start, end, id)`-sorted, so occurrence indices line up
/// between two runs of the same schedule).
fn span_durations(trace: &SpanTrace) -> HashMap<(u32, SpanKind, Option<u64>), Vec<u64>> {
    let mut map: HashMap<(u32, SpanKind, Option<u64>), Vec<u64>> = HashMap::new();
    for span in trace.spans() {
        map.entry((span.stage, span.kind, span.subnet))
            .or_default()
            .push(span.end_us - span.start_us);
    }
    map
}

/// Trace-wide exported stall per stage: for each compute span that sat
/// idle on its stage before starting, the idle gap is credited to the
/// stage of the causal edge that released it. Pipeline-fill gaps appear
/// in both runs and cancel in the delta.
fn exported_stall(trace: &SpanTrace, num_stages: usize) -> Vec<u64> {
    let mut credit = vec![0u64; num_stages];
    let mut last_end = vec![0u64; num_stages];
    for span in trace.spans().iter().filter(|s| s.kind.is_compute()) {
        let stage = span.stage as usize;
        let gap = span.start_us.saturating_sub(last_end[stage]);
        if gap > 0 {
            if let Some(edge) = span.cause {
                let dependency = matches!(
                    edge.kind,
                    CauseKind::ActivationArrival
                        | CauseKind::GradientArrival
                        | CauseKind::CspWriterCompletion { .. }
                );
                if dependency {
                    if let Some(src) = trace.get(edge.src) {
                        credit[src.stage as usize] += gap;
                    }
                }
            }
        }
        last_end[stage] = last_end[stage].max(span.end_us);
    }
    credit
}

/// Diagnoses where the makespan delta between `base` and `cand` went.
/// `top` bounds the shifted-span ranking length.
pub fn diagnose(base: &SpanTrace, cand: &SpanTrace, top: usize) -> Diagnosis {
    let bp = critical_path(base);
    let cp = critical_path(cand);

    let pick = |p: &crate::critical_path::CriticalPath, class: AttrClass| match class {
        AttrClass::Compute => p.compute_us,
        AttrClass::Fetch => p.fetch_us,
        AttrClass::CausalStall => p.causal_stall_us,
        AttrClass::Bubble => p.bubble_us,
    };
    let classes: Vec<ClassDelta> = CLASSES
        .iter()
        .map(|&class| ClassDelta {
            class,
            base_us: pick(&bp, class),
            cand_us: pick(&cp, class),
        })
        .collect();

    // Per-stage class deltas from the path segments themselves.
    let num_stages = base.num_stages().max(cand.num_stages()) as usize;
    let mut stages: Vec<StageDelta> = (0..num_stages)
        .map(|k| StageDelta {
            stage: k as u32,
            ..StageDelta::default()
        })
        .collect();
    let mut add = |segments: &[crate::critical_path::PathSegment], sign: i64| {
        for seg in segments {
            let s = &mut stages[seg.stage as usize];
            let dur = sign * seg.dur_us() as i64;
            match seg.class {
                AttrClass::Compute => s.compute_us += dur,
                AttrClass::Fetch => s.fetch_us += dur,
                AttrClass::CausalStall => s.causal_stall_us += dur,
                AttrClass::Bubble => s.bubble_us += dur,
            }
        }
    };
    add(&bp.segments, -1);
    add(&cp.segments, 1);

    // Top-k shifted spans, matched by (stage, kind, subnet, occurrence).
    let base_durs = span_durations(base);
    let cand_durs = span_durations(cand);
    let mut shifts: Vec<SpanShift> = Vec::new();
    for ((stage, kind, subnet), bd) in &base_durs {
        let empty = Vec::new();
        let cd = cand_durs.get(&(*stage, *kind, *subnet)).unwrap_or(&empty);
        for (occurrence, (&b, &c)) in bd.iter().zip(cd.iter()).enumerate() {
            if b != c {
                shifts.push(SpanShift {
                    stage: *stage,
                    kind: kind.name(),
                    subnet: *subnet,
                    occurrence,
                    base_us: b,
                    cand_us: c,
                });
            }
        }
    }
    shifts.sort_by_key(|s| {
        (
            std::cmp::Reverse(s.delta_us().unsigned_abs()),
            s.stage,
            s.subnet,
            s.occurrence,
        )
    });
    shifts.truncate(top);

    // Straggler ranking: per-stage total compute-span duration delta.
    let mut compute_delta = vec![0i64; num_stages];
    for span in base.spans().iter().filter(|s| s.kind.is_compute()) {
        compute_delta[span.stage as usize] -= (span.end_us - span.start_us) as i64;
    }
    for span in cand.spans().iter().filter(|s| s.kind.is_compute()) {
        compute_delta[span.stage as usize] += (span.end_us - span.start_us) as i64;
    }
    let mut stragglers: Vec<StragglerRank> = compute_delta
        .iter()
        .enumerate()
        .map(|(k, &d)| StragglerRank {
            stage: k as u32,
            compute_delta_us: d,
        })
        .collect();
    stragglers.sort_by_key(|s| (std::cmp::Reverse(s.compute_delta_us), s.stage));

    // Exported-stall ranking: trace-wide induced waiting per stage.
    let base_export = exported_stall(base, num_stages);
    let cand_export = exported_stall(cand, num_stages);
    let mut exporters: Vec<StallExport> = (0..num_stages)
        .map(|k| StallExport {
            stage: k as u32,
            base_us: base_export[k],
            cand_us: cand_export[k],
        })
        .collect();
    exporters.sort_by_key(|e| (std::cmp::Reverse(e.delta_us()), e.stage));

    // Dominant class: largest absolute delta, first-in-order on ties.
    let dominant = classes
        .iter()
        .max_by_key(|c| c.delta_us().unsigned_abs())
        .map(|c| c.class)
        .unwrap_or(AttrClass::Compute);
    let verdict = if dominant == AttrClass::Compute {
        "kernel"
    } else {
        "scheduling"
    };

    Diagnosis {
        base_total_us: bp.total_us,
        cand_total_us: cp.total_us,
        classes,
        stages,
        shifts,
        stragglers,
        exporters,
        dominant,
        verdict,
    }
}

/// One compared metric from a bench-check run, decoupled from
/// `crates/bench` so the CLI can feed check rows straight in.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Metric name (e.g. `matmul 256x256x256 tiled gflops`).
    pub metric: String,
    /// Baseline value from the tracked artifact.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// The metric improves downward (a makespan, a latency).
    pub lower_is_better: bool,
    /// Allowed fractional movement in the metric's bad direction.
    pub band: f64,
}

impl BenchDelta {
    /// `fresh / baseline`.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }

    /// Whether `fresh` moved past `band` in the metric's bad direction:
    /// the one definition of a regression, which the `bench-check` gate
    /// fails on and the explainer lists. Moving the good way never
    /// regresses; neither does a non-positive baseline.
    pub fn regressed(&self) -> bool {
        self.baseline > 0.0
            && if self.lower_is_better {
                self.ratio() > 1.0 + self.band
            } else {
                self.ratio() < 1.0 - self.band
            }
    }
}

/// Explains a failed bench-check: which metrics regressed and whether
/// the regression is a kernel (compute) or a scheduling problem. A
/// throughput ("gflops" / "GF/s") metric regressing past its band is
/// direct kernel evidence — scheduling changes cannot slow an isolated
/// kernel benchmark — so any such row makes `compute` the dominant
/// delta; otherwise only schedule-level metrics (e.g.
/// `replay_subnets_per_s`, threaded makespan) moved and the verdict is
/// `scheduling`.
pub fn explain_bench_check(rows: &[BenchDelta]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "doctor: bench-check failure analysis");
    let mut kernel = false;
    let mut any = false;
    for row in rows.iter().filter(|r| r.regressed()) {
        any = true;
        let lower = row.metric.to_ascii_lowercase();
        let is_kernel = lower.contains("gflops") || lower.contains("gf/s");
        kernel |= is_kernel;
        let _ = writeln!(
            out,
            "  {:<40} {:>10.2} -> {:>10.2} ({:.0}% of baseline, {})",
            row.metric,
            row.baseline,
            row.fresh,
            100.0 * row.ratio(),
            if is_kernel {
                "kernel metric"
            } else {
                "schedule metric"
            }
        );
    }
    if !any {
        let _ = writeln!(out, "  no metric regressed past its band");
    }
    let dominant = if kernel { "compute" } else { "scheduling" };
    let _ = writeln!(out, "dominant delta: {dominant}");
    if kernel {
        let _ = writeln!(
            out,
            "hint: an isolated kernel benchmark slowed down - profile the compute \
             backend (pool sizing, NASPIPE_THREADS, host load) before blaming the schedule"
        );
    } else if any {
        let _ = writeln!(
            out,
            "hint: kernels held steady but end-to-end throughput fell - capture traces \
             from both builds and run `naspipe doctor --base A --cand B`"
        );
    }
    out
}

/// Explains a failed replay-check: summarizes the gate's divergence
/// report and points at the doctor workflow for the trace-level diff.
pub fn explain_replay(report_text: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "doctor: replay-check failure analysis");
    let mut lines = 0;
    for line in report_text.lines() {
        let l = line.trim();
        if l.contains("FAIL") || l.contains("diverg") || l.contains("mismatch") {
            let _ = writeln!(out, "  {l}");
            lines += 1;
        }
    }
    if lines == 0 {
        let _ = writeln!(out, "  (no divergence lines found in the gate report)");
    }
    let _ = writeln!(
        out,
        "dominant delta: determinism (behavioral divergence, not throughput)"
    );
    let _ = writeln!(
        out,
        "hint: the first divergent task above names stage/subnet/kind - re-record with \
         `naspipe replay-check --bless` only if the behavior change is intended"
    );
    out
}

/// Visits every object member of `value`, depth first in document
/// order (the order a reader of the text meets the keys in).
fn for_each_member<'a>(value: &'a JsonValue, visit: &mut impl FnMut(&'a str, &'a JsonValue)) {
    match value {
        JsonValue::Obj(pairs) => {
            for (key, member) in pairs {
                visit(key, member);
                for_each_member(member, visit);
            }
        }
        JsonValue::Arr(items) => items.iter().for_each(|item| for_each_member(item, visit)),
        _ => {}
    }
}

/// Counts `keys` in first-seen order.
fn tally(keys: impl IntoIterator<Item = String>) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = Vec::new();
    let mut row_of: HashMap<String, usize> = HashMap::new();
    for key in keys {
        match row_of.get(&key) {
            Some(&row) => rows[row].1 += 1,
            None => {
                row_of.insert(key.clone(), rows.len());
                rows.push((key, 1));
            }
        }
    }
    rows
}

/// Every numeric object member of a JSON artifact (e.g.
/// `BENCH_compute.json`), in document order. Repeated keys get `#2`,
/// `#3`, ... suffixes so two structurally identical artifacts pair up
/// by position. A document that does not parse has no fields.
pub fn scan_numeric_fields(json: &str) -> Vec<(String, f64)> {
    let Ok(doc) = parse_json(json) else {
        return Vec::new();
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for_each_member(&doc, &mut |key, member| {
        if let Some(v) = member.as_f64() {
            let n = counts.entry(key).or_insert(0);
            *n += 1;
            let name = if *n == 1 {
                key.to_string()
            } else {
                format!("{key}#{n}")
            };
            out.push((name, v));
        }
    });
    out
}

/// Pairs two artifacts' numeric fields into [`BenchDelta`] rows judged
/// under `band` (only keys present in both survive). A time (`*_us`,
/// `*_ms`, `*_ns`, `*_s`, but not a `*_per_s` rate) or a makespan is
/// lower-is-better; every other field higher-is-better.
pub fn bench_deltas(baseline_json: &str, fresh_json: &str, band: f64) -> Vec<BenchDelta> {
    let base = scan_numeric_fields(baseline_json);
    let fresh: HashMap<String, f64> = scan_numeric_fields(fresh_json).into_iter().collect();
    base.into_iter()
        .filter_map(|(metric, baseline)| {
            let key = metric.split('#').next().unwrap_or_default();
            let time = ["_us", "_ms", "_ns", "_s"].iter().any(|u| key.ends_with(u));
            let lower_is_better = key.contains("makespan") || (time && !key.ends_with("_per_s"));
            fresh.get(&metric).map(|&f| BenchDelta {
                metric,
                baseline,
                fresh: f,
                lower_is_better,
                band,
            })
        })
        .collect()
}

/// Counts the string-valued `"kind"` members of a flight dump, in
/// first-seen order — the coarse event mix `doctor` reports per flight
/// artifact. A dump that does not parse has no events.
pub fn flight_kind_counts(json: &str) -> Vec<(String, u64)> {
    let Ok(doc) = parse_json(json) else {
        return Vec::new();
    };
    let mut kinds = Vec::new();
    for_each_member(&doc, &mut |key, member| {
        if let ("kind", Some(kind)) = (key, member.as_str()) {
            kinds.push(kind.to_string());
        }
    });
    tally(kinds)
}

/// Summarizes a structured journal (`--journal PATH` / `/events`
/// output) for `naspipe doctor`: per-(level, kind) event counts in
/// first-seen order, plus any schema violations found by the strict
/// parser. Unparseable lines surface as problems, not a hard error —
/// diagnosis works on whatever survived.
pub fn journal_summary(text: &str) -> (Vec<(String, u64)>, Vec<String>) {
    let problems = crate::journal::validate_journal(text);
    let events = crate::journal::parse_journal(text).unwrap_or_default();
    let rows = tally(
        events
            .iter()
            .map(|e| format!("{} {}", e.level.name(), e.kind)),
    );
    (rows, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CauseKind, SpanDraft, SpanTracer, Tracer};

    /// Two-stage baseline: F0 [0,10]@P0, F0' [10,20]@P1.
    fn base_trace() -> SpanTrace {
        let mut t = SpanTracer::new();
        let f0 = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 10).subnet(0));
        t.emit(
            SpanDraft::new(1, SpanKind::Forward, 10, 20)
                .subnet(0)
                .caused_by(f0, CauseKind::ActivationArrival),
        );
        t.take()
    }

    /// Candidate: stage-0 compute doubled, downstream shifted.
    fn slow_kernel_trace() -> SpanTrace {
        let mut t = SpanTracer::new();
        let f0 = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 20).subnet(0));
        t.emit(
            SpanDraft::new(1, SpanKind::Forward, 20, 30)
                .subnet(0)
                .caused_by(f0, CauseKind::ActivationArrival),
        );
        t.take()
    }

    #[test]
    fn class_deltas_sum_to_makespan_delta_exactly() {
        let d = diagnose(&base_trace(), &slow_kernel_trace(), 5);
        assert_eq!(d.base_total_us, 20);
        assert_eq!(d.cand_total_us, 30);
        assert_eq!(d.makespan_delta_us(), 10);
        assert_eq!(d.class_delta_sum_us(), d.makespan_delta_us());
    }

    #[test]
    fn slow_kernel_is_attributed_to_compute() {
        let d = diagnose(&base_trace(), &slow_kernel_trace(), 5);
        assert_eq!(d.dominant, AttrClass::Compute);
        assert_eq!(d.verdict, "kernel");
        assert_eq!(d.stragglers[0].stage, 0);
        assert_eq!(d.stragglers[0].compute_delta_us, 10);
        // The shifted span is F0@P0, occurrence 0, 10 -> 20.
        assert_eq!(d.shifts.len(), 1);
        assert_eq!(d.shifts[0].stage, 0);
        assert_eq!(d.shifts[0].base_us, 10);
        assert_eq!(d.shifts[0].cand_us, 20);
    }

    #[test]
    fn grown_csp_gap_is_attributed_to_causal_stall() {
        // Baseline: writer ends 10, waiter starts 10 (no gap).
        let mut t = SpanTracer::new();
        let w = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 10).subnet(0));
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 10, 20)
                .subnet(1)
                .caused_by(w, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        let base = t.take();
        // Candidate: same compute, 8us admission gap.
        let mut t = SpanTracer::new();
        let w = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 10).subnet(0));
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 18, 28)
                .subnet(1)
                .caused_by(w, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        let cand = t.take();
        let d = diagnose(&base, &cand, 5);
        assert_eq!(d.makespan_delta_us(), 8);
        assert_eq!(d.class_delta_sum_us(), 8);
        assert_eq!(d.dominant, AttrClass::CausalStall);
        assert_eq!(d.verdict, "scheduling");
        assert_eq!(d.stages[0].causal_stall_us, 8);
    }

    #[test]
    fn json_rendering_carries_verdict_and_sums() {
        let d = diagnose(&base_trace(), &slow_kernel_trace(), 5);
        let json = d.to_json();
        assert!(json.starts_with("{\"base_total_us\":20,"));
        assert!(json.contains("\"verdict\":\"kernel\""));
        assert!(json.contains("\"dominant\":\"compute\""));
        assert!(json.contains("\"class\":\"causal-stall\""));
        let text = d.render_text();
        assert!(text.contains("dominant delta: compute"));
        assert!(text.contains("straggler ranking"));
    }

    /// A gate row: `metric` moved `baseline -> fresh` under `band`.
    fn row(
        metric: &str,
        baseline: f64,
        fresh: f64,
        lower_is_better: bool,
        band: f64,
    ) -> BenchDelta {
        BenchDelta {
            metric: metric.into(),
            baseline,
            fresh,
            lower_is_better,
            band,
        }
    }

    #[test]
    fn explain_bench_check_flags_gflops_regression_as_compute() {
        let rows = vec![
            row("matmul 256x256x256 tiled_gflops", 47.0, 12.0, false, 0.15),
            row("replay_subnets_per_s", 100.0, 90.0, false, 0.35),
        ];
        let text = explain_bench_check(&rows);
        assert!(text.contains("dominant delta: compute"), "{text}");
        assert!(text.contains("kernel metric"));
    }

    #[test]
    fn explain_bench_check_without_kernel_rows_is_scheduling() {
        let rows = vec![row("replay_subnets_per_s", 100.0, 50.0, false, 0.35)];
        let text = explain_bench_check(&rows);
        assert!(text.contains("dominant delta: scheduling"), "{text}");
    }

    #[test]
    fn explain_bench_check_lists_exactly_the_rows_the_gate_fails() {
        // Each row under its own band and direction, as `bench-check`
        // judges it: a makespan that fell is a gain, one that rose past
        // its band is the regression, and a rate that fell 20 % is inside
        // a 35 % band.
        let rows = vec![
            row("threaded makespan us @1t", 100_000.0, 80_000.0, true, 0.35),
            row("threaded makespan us @4t", 100_000.0, 150_000.0, true, 0.35),
            row("replay subnets/s @1t", 100.0, 80.0, false, 0.35),
            row("matmul 64x64x64 tiled GF/s @1t", 40.0, 36.0, false, 0.15),
        ];
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed())
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(regressed, ["threaded makespan us @4t"]);
        let text = explain_bench_check(&rows);
        let listed: Vec<&str> = text
            .lines()
            .filter(|l| l.ends_with("metric)"))
            .map(|l| l.split("  ").nth(1).unwrap_or_default().trim())
            .collect();
        assert_eq!(listed, regressed, "{text}");
        assert!(text.contains("150% of baseline, schedule metric"), "{text}");
        // The same direction reaches `doctor --base-bench/--cand-bench`.
        let deltas = bench_deltas(
            "{\"makespan_us\":100,\"subnets_per_s\":10,\"wall_s\":2}",
            "{\"makespan_us\":80,\"subnets_per_s\":9,\"wall_s\":3}",
            0.15,
        );
        let regressed: Vec<&str> = deltas
            .iter()
            .filter(|d| d.regressed())
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(regressed, ["wall_s"]);
    }

    #[test]
    fn scan_numeric_fields_suffixes_repeats_and_pairs() {
        let a = "{\"x\":{\"gflops\":47.0},\"y\":{\"gflops\":30.0},\"n\":3}";
        let b = "{\"x\":{\"gflops\":40.0},\"y\":{\"gflops\":31.0},\"n\":3}";
        let fields = scan_numeric_fields(a);
        assert_eq!(
            fields,
            vec![
                ("gflops".to_string(), 47.0),
                ("gflops#2".to_string(), 30.0),
                ("n".to_string(), 3.0)
            ]
        );
        let deltas = bench_deltas(a, b, 0.15);
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0].fresh, 40.0);
        assert_eq!(deltas[1].metric, "gflops#2");
    }

    #[test]
    fn flight_kind_counts_tallies_in_first_seen_order() {
        let json = "{\"events\":[{\"kind\":\"admission\"},{\"kind\":\"csp-stall\"},\
                    {\"kind\":\"admission\"}]}";
        assert_eq!(
            flight_kind_counts(json),
            vec![("admission".to_string(), 2), ("csp-stall".to_string(), 1)]
        );
    }

    #[test]
    fn explain_replay_surfaces_divergence_lines() {
        let text = explain_replay("case a: FAIL first divergence at task 7\ncase b: ok");
        assert!(text.contains("FAIL first divergence at task 7"));
        assert!(text.contains("dominant delta: determinism"));
    }
}

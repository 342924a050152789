//! Prometheus text exposition (format 0.0.4) for the live telemetry.
//!
//! Three pieces, all dependency-free:
//!
//! * [`render_exposition`] turns the latest [`TelemetryHub`] snapshot
//!   pair into exposition text — monotonic counters straight from the
//!   snapshot, rate/utilisation gauges derived from the last interval,
//!   and the log2 histograms re-expressed as cumulative `le` buckets.
//! * [`validate_exposition`] / [`counter_values`] parse the text back:
//!   the `repro telemetry` experiment and CI scrape a live endpoint and
//!   hard-verify well-formedness and counter monotonicity with these.
//! * Serving is the ops plane's job: [`OpsServer`](crate::ops::OpsServer)
//!   answers `GET /metrics` with this text (next to `/healthz`,
//!   `/readyz`, `/status`, `/flight` and `/events`), and
//!   [`http_get`](crate::ops::http_get) is the one client.

use crate::report::RunMeta;
use crate::telemetry::{rate_between, MetricsSnapshot, TelemetryHub};
use crate::{Counter, Sample};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The `Content-Type` of the text exposition format this module emits.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Histogram family names (everything else is classified by suffix).
const HISTOGRAM_FAMILIES: [&str; 2] = ["naspipe_queue_depth", "naspipe_task_latency_microseconds"];

/// Upper bucket bounds used when re-expressing the log2 histograms as
/// cumulative `le` buckets: `2^j - 1` covers log2 buckets `0..=j`.
const LE_EXPONENTS: [u32; 8] = [1, 3, 6, 9, 12, 15, 18, 21];

/// Classifies a metric family name the way the renderer types it:
/// `_total` suffix ⇒ counter, known histogram families ⇒ histogram,
/// everything else ⇒ gauge.
pub fn classify(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else if HISTOGRAM_FAMILIES.contains(&name) {
        "histogram"
    } else {
        "gauge"
    }
}

/// Escapes a label value per the 0.0.4 format: backslash, double quote
/// and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and newline.
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One family's worth of output: `# HELP`, `# TYPE`, then samples.
fn family(out: &mut String, name: &str, help: &str, samples: &[(String, f64)]) {
    if samples.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {}", classify(name));
    for (labels, value) in samples {
        let v = if value.is_finite() {
            format_value(*value)
        } else {
            "0".to_string()
        };
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {v}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {v}");
        }
    }
}

/// Formats a sample value: integers without a fraction, everything else
/// in shortest-roundtrip `f64` form.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the full exposition from the hub's latest snapshot pair.
///
/// Counters come from the latest snapshot (cumulative since run start),
/// rate gauges from the delta between the last two snapshots, so a
/// scrape never blocks or touches the stage workers.
pub fn render_exposition(hub: &TelemetryHub, meta: &RunMeta) -> String {
    render_exposition_ops(hub, meta, None, None)
}

/// [`render_exposition`] plus the ops-plane ring-saturation families:
/// `naspipe_journal_dropped_total` when a journal is attached and
/// `naspipe_flight_dropped_total` when a flight recorder is, so ring
/// overflow is visible on a scrape long before anyone reads a dump.
pub fn render_exposition_ops(
    hub: &TelemetryHub,
    meta: &RunMeta,
    journal_dropped: Option<u64>,
    flight_dropped: Option<u64>,
) -> String {
    let (prev, latest) = hub.latest_pair();
    let mut out = String::with_capacity(4096);
    family(
        &mut out,
        "naspipe_run_info",
        "Identity of the run serving this endpoint.",
        &[(
            format!(
                "engine=\"{}\",seed=\"{}\"",
                escape_label_value(&meta.engine),
                meta.seed
                    .map_or_else(|| "none".to_string(), |s| s.to_string()),
            ),
            1.0,
        )],
    );
    family(
        &mut out,
        "naspipe_snapshots_total",
        "Telemetry snapshots published since run start.",
        &[(String::new(), hub.published() as f64)],
    );
    family(
        &mut out,
        "naspipe_telemetry_dropped_total",
        "Snapshots evicted from the telemetry ring buffer.",
        &[(String::new(), hub.samples_dropped() as f64)],
    );
    if let Some(dropped) = journal_dropped {
        family(
            &mut out,
            "naspipe_journal_dropped_total",
            "Events evicted from the structured journal ring.",
            &[(String::new(), dropped as f64)],
        );
    }
    if let Some(dropped) = flight_dropped {
        family(
            &mut out,
            "naspipe_flight_dropped_total",
            "Events evicted from the flight-recorder rings.",
            &[(String::new(), dropped as f64)],
        );
    }
    let Some(snap) = latest else {
        return out;
    };
    family(
        &mut out,
        "naspipe_incarnation",
        "Supervisor incarnation of the run (0 before any stage restart).",
        &[(String::new(), f64::from(snap.incarnation))],
    );
    family(
        &mut out,
        "naspipe_run_time_seconds",
        "Run time at the latest snapshot (wall-clock for the threaded \
         engine, simulated for the DES engine).",
        &[(String::new(), snap.at_us as f64 / 1e6)],
    );

    let stage_counter = |c: Counter| -> Vec<(String, f64)> {
        snap.stages
            .iter()
            .enumerate()
            .map(|(k, s)| (format!("stage=\"{k}\""), s.counter(c) as f64))
            .collect()
    };
    let labeled = |pairs: &[(Counter, &str, &str)]| -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        for (k, s) in snap.stages.iter().enumerate() {
            for (c, key, val) in pairs {
                rows.push((
                    format!("stage=\"{k}\",{key}=\"{val}\""),
                    s.counter(*c) as f64,
                ));
            }
        }
        rows
    };

    family(
        &mut out,
        "naspipe_tasks_total",
        "Pipeline tasks completed per stage and direction.",
        &labeled(&[
            (Counter::ForwardTask, "kind", "forward"),
            (Counter::BackwardTask, "kind", "backward"),
        ]),
    );
    family(
        &mut out,
        "naspipe_backward_preemptions_total",
        "Backward tasks dispatched ahead of a ready forward task.",
        &stage_counter(Counter::BackwardPreemption),
    );
    family(
        &mut out,
        "naspipe_cache_events_total",
        "Context-cache events per stage.",
        &labeled(&[
            (Counter::CacheHit, "event", "hit"),
            (Counter::CacheMiss, "event", "miss"),
            (Counter::CacheEviction, "event", "eviction"),
            (Counter::CachePrefetch, "event", "prefetch"),
        ]),
    );
    family(
        &mut out,
        "naspipe_cache_bytes_total",
        "Context-cache bytes moved per stage and direction.",
        &labeled(&[
            (Counter::CacheBytesFetched, "dir", "fetched"),
            (Counter::CacheBytesEvicted, "dir", "evicted"),
        ]),
    );
    family(
        &mut out,
        "naspipe_idle_microseconds_total",
        "Idle time per stage, split into causal stalls and pipeline bubbles.",
        &labeled(&[
            (Counter::StallUs, "kind", "stall"),
            (Counter::BubbleUs, "kind", "bubble"),
        ]),
    );
    family(
        &mut out,
        "naspipe_recovery_events_total",
        "Fault-tolerance events per stage.",
        &labeled(&[
            (Counter::Retry, "event", "retry"),
            (Counter::Restart, "event", "restart"),
            (Counter::ReplayedTask, "event", "replayed_task"),
        ]),
    );
    family(
        &mut out,
        "naspipe_durable_events_total",
        "Durable checkpoint events per stage.",
        &labeled(&[
            (Counter::DurablePersist, "event", "persist"),
            (Counter::DurableResume, "event", "resume"),
        ]),
    );
    family(
        &mut out,
        "naspipe_stage_pool_jobs_total",
        "Compute-pool jobs fanned out by each stage's kernels.",
        &stage_counter(Counter::PoolJob),
    );
    family(
        &mut out,
        "naspipe_stage_pool_chunks_total",
        "Compute-pool chunks executed for each stage's jobs.",
        &stage_counter(Counter::PoolChunk),
    );
    family(
        &mut out,
        "naspipe_stage_pool_busy_microseconds_total",
        "Compute-pool busy time attributed to each stage's jobs.",
        &stage_counter(Counter::PoolBusyUs),
    );
    family(
        &mut out,
        "naspipe_pool_jobs_total",
        "Compute-pool jobs submitted (whole run).",
        &[(String::new(), snap.pool.jobs as f64)],
    );
    family(
        &mut out,
        "naspipe_pool_chunks_total",
        "Compute-pool chunks executed (whole run).",
        &[(String::new(), snap.pool.chunks as f64)],
    );
    family(
        &mut out,
        "naspipe_pool_busy_microseconds_total",
        "Compute-pool busy time summed over workers (whole run).",
        &[(String::new(), snap.pool.busy_us as f64)],
    );
    let trips = hub.watchdog_trips();
    if trips.iter().any(|&t| t > 0) {
        let samples: Vec<(String, f64)> = crate::watchdog::WatchdogVerdictKind::ALL
            .iter()
            .zip(trips.iter())
            .filter(|(_, &t)| t > 0)
            .map(|(kind, &t)| (format!("kind=\"{}\"", kind.name()), t as f64))
            .collect();
        family(
            &mut out,
            "naspipe_watchdog_trips_total",
            "Watchdog detector trips by kind (latched; at most one per stage per kind).",
            &samples,
        );
    }

    render_histograms(&mut out, &snap);
    render_rates(&mut out, prev.as_ref(), &snap);
    out
}

/// Emits the cumulative-`le` form of the per-stage log2 histograms.
fn render_histograms(out: &mut String, snap: &MetricsSnapshot) {
    let mut emit = |name: &str, help: &str, rows: &[(String, Sample)]| {
        if snap.stages.iter().all(|s| {
            rows.iter()
                .all(|(_, sample)| s.histogram(*sample).count == 0)
        }) {
            return;
        }
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(out, "# TYPE {name} {}", classify(name));
        for (k, s) in snap.stages.iter().enumerate() {
            for (extra, sample) in rows {
                let h = s.histogram(*sample);
                let labels = if extra.is_empty() {
                    format!("stage=\"{k}\"")
                } else {
                    format!("stage=\"{k}\",{extra}")
                };
                let mut cum = 0u64;
                let mut upto = 0usize;
                for j in LE_EXPONENTS {
                    while upto <= j as usize {
                        cum += h.buckets[upto];
                        upto += 1;
                    }
                    let le = (1u64 << j) - 1;
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
                }
                let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
            }
        }
    };
    emit(
        "naspipe_queue_depth",
        "Stage queue depth observed at dispatch decisions.",
        &[(String::new(), Sample::QueueDepth)],
    );
    emit(
        "naspipe_task_latency_microseconds",
        "Task execution latency per stage and direction.",
        &[
            ("kind=\"forward\"".to_string(), Sample::ForwardLatencyUs),
            ("kind=\"backward\"".to_string(), Sample::BackwardLatencyUs),
        ],
    );
}

/// Emits the interval-rate gauges derived from the latest snapshot pair.
fn render_rates(out: &mut String, prev: Option<&MetricsSnapshot>, snap: &MetricsSnapshot) {
    let Some(rate) = prev.and_then(|p| rate_between(p, snap)) else {
        return;
    };
    let per_stage = |f: &dyn Fn(&crate::telemetry::StageRate) -> f64| -> Vec<(String, f64)> {
        rate.stages
            .iter()
            .map(|s| (format!("stage=\"{}\"", s.stage), f(s)))
            .collect()
    };
    family(
        out,
        "naspipe_tasks_per_second",
        "Tasks completed per second over the last sample interval.",
        &per_stage(&|s| s.fwd_per_s + s.bwd_per_s),
    );
    family(
        out,
        "naspipe_cache_hit_ratio",
        "Cache hit ratio over the last sample interval.",
        &per_stage(&|s| s.cache_hit_rate),
    );
    family(
        out,
        "naspipe_stall_fraction",
        "Fraction of the last interval spent causally stalled.",
        &per_stage(&|s| s.stall_frac),
    );
    family(
        out,
        "naspipe_bubble_fraction",
        "Fraction of the last interval spent in pipeline bubbles.",
        &per_stage(&|s| s.bubble_frac),
    );
    family(
        out,
        "naspipe_queue_depth_mean",
        "Mean queue depth over the last interval's dispatch decisions.",
        &per_stage(&|s| s.queue_depth_mean),
    );
    family(
        out,
        "naspipe_pipeline_tasks_per_second",
        "Whole-pipeline tasks per second over the last sample interval.",
        &[(String::new(), rate.tasks_per_s)],
    );
    family(
        out,
        "naspipe_pool_utilization",
        "Compute-pool busy worker-seconds per second over the last interval.",
        &[(String::new(), rate.pool_busy_frac)],
    );
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name as written (histogram samples keep their suffix).
    pub name: String,
    /// Labels in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl ParsedSample {
    /// Canonical series key: name plus sorted labels.
    pub fn series_key(&self) -> String {
        let mut labels = self.labels.clone();
        labels.sort();
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }

    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: family types plus every sample.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `# TYPE` declarations, family name → type.
    pub types: BTreeMap<String, String>,
    /// `# HELP` declarations, family name → help text.
    pub helps: BTreeMap<String, String>,
    /// Every sample line in source order.
    pub samples: Vec<ParsedSample>,
}

impl Exposition {
    /// The family a sample belongs to: its own name, or the base name
    /// for `_bucket`/`_sum`/`_count` samples of a declared histogram.
    pub fn family_of(&self, sample_name: &str) -> Option<&str> {
        if self.types.contains_key(sample_name) {
            return self
                .types
                .get_key_value(sample_name)
                .map(|(k, _)| k.as_str());
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                if self.types.get(base).map(String::as_str) == Some("histogram") {
                    return self.types.get_key_value(base).map(|(k, _)| k.as_str());
                }
            }
        }
        None
    }

    /// Values of every counter series, keyed by canonical series key.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.samples
            .iter()
            .filter(|s| {
                self.family_of(&s.name)
                    .and_then(|f| self.types.get(f))
                    .map(String::as_str)
                    == Some("counter")
            })
            .map(|s| (s.series_key(), s.value))
            .collect()
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value not quoted: {after:?}"));
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label value")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {after:?}"))?;
        labels.push((key.to_string(), value));
        rest = &after[1 + end + 1..];
    }
}

/// Parses one non-comment, non-empty line as a sample.
fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let (name_and_labels, value_part) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unbalanced braces: {line:?}"))?;
            if close < open {
                return Err(format!("unbalanced braces: {line:?}"));
            }
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].trim(),
            )
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| format!("sample without value: {line:?}"))?;
            ((&line[..sp], None), line[sp + 1..].trim())
        }
    };
    let (name, label_body) = name_and_labels;
    let name = name.trim();
    if !valid_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let labels = match label_body {
        Some(body) => parse_labels(body)?,
        None => Vec::new(),
    };
    let mut fields = value_part.split_whitespace();
    let raw = fields
        .next()
        .ok_or_else(|| format!("sample without value: {line:?}"))?;
    let value = match raw {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        raw => raw
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {raw:?} in {line:?}"))?,
    };
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?} in {line:?}"))?;
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage in {line:?}"));
    }
    Ok(ParsedSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses a full exposition without judging it; syntax errors only.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut expo = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default().to_string();
            let ty = parts.next().unwrap_or_default().to_string();
            if !valid_name(&name) {
                return Err(format!("line {n}: bad TYPE name {name:?}"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty.as_str()) {
                return Err(format!("line {n}: bad TYPE {ty:?} for {name}"));
            }
            if expo.types.insert(name.clone(), ty).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default().to_string();
            let help = parts.next().unwrap_or_default().to_string();
            if !valid_name(&name) {
                return Err(format!("line {n}: bad HELP name {name:?}"));
            }
            if expo.helps.insert(name.clone(), help).is_some() {
                return Err(format!("line {n}: duplicate HELP for {name}"));
            }
        } else if line.starts_with('#') {
            continue; // other comments are ignored per the format spec
        } else {
            let sample = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
            expo.samples.push(sample);
        }
    }
    Ok(expo)
}

/// Hard-verifies an exposition: syntax, every sample covered by exactly
/// one `TYPE` declared *before* it, `HELP` before `TYPE`, no duplicate
/// series, counters finite and non-negative, histogram `le` buckets
/// cumulative with a `+Inf` bucket equal to `_count`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let expo = parse_exposition(text)?;

    // Declaration order: HELP before TYPE before first sample.
    let mut seen_types: BTreeSet<String> = BTreeSet::new();
    let mut family_done: BTreeSet<String> = BTreeSet::new();
    let mut last_family: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap_or_default().to_string();
            if !expo.helps.contains_key(&name) {
                return Err(format!("TYPE {name} has no HELP"));
            }
            seen_types.insert(name);
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            if seen_types.contains(name) {
                return Err(format!("HELP {name} after its TYPE"));
            }
        } else if !line.is_empty() && !line.starts_with('#') {
            let sample = parse_sample(line)?;
            let family = expo
                .family_of(&sample.name)
                .ok_or_else(|| format!("sample {} has no TYPE", sample.name))?
                .to_string();
            if !seen_types.contains(&family) {
                return Err(format!("sample {} before TYPE {family}", sample.name));
            }
            // Families must be contiguous blocks (the renderer's shape;
            // scattering samples of one family is a rendering bug).
            if last_family.as_deref() != Some(family.as_str()) {
                if family_done.contains(&family) {
                    return Err(format!("family {family} split into multiple blocks"));
                }
                if let Some(prev) = last_family.take() {
                    family_done.insert(prev);
                }
                last_family = Some(family);
            }
        }
    }

    // No duplicate series.
    let mut seen_series = BTreeSet::new();
    for s in &expo.samples {
        if !seen_series.insert(s.series_key()) {
            return Err(format!("duplicate series {}", s.series_key()));
        }
    }

    // Counter values are finite and non-negative.
    for (key, v) in expo.counters() {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("counter {key} has bad value {v}"));
        }
    }

    // Histogram buckets are cumulative and capped by +Inf == _count.
    for (name, ty) in &expo.types {
        if ty != "histogram" {
            continue;
        }
        let mut per_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        for s in &expo.samples {
            let base_labels = {
                let mut l: Vec<(String, String)> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                l.sort();
                format!("{l:?}")
            };
            if s.name == format!("{name}_bucket") {
                let le = match s.label("le") {
                    Some("+Inf") => f64::INFINITY,
                    // `"NaN".parse()` succeeds; no bucket can be bounded by it.
                    Some(le) => le
                        .parse::<f64>()
                        .ok()
                        .filter(|v| !v.is_nan())
                        .ok_or_else(|| format!("bad le {le:?} on {name}"))?,
                    None => return Err(format!("{name}_bucket without le label")),
                };
                per_series
                    .entry(base_labels)
                    .or_default()
                    .push((le, s.value));
            } else if s.name == format!("{name}_count") {
                counts.insert(base_labels, s.value);
            }
        }
        for (labels, mut buckets) in per_series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = -1.0;
            for (_, v) in &buckets {
                if *v < prev {
                    return Err(format!("{name}{labels} buckets not cumulative"));
                }
                prev = *v;
            }
            let last = buckets.last().expect("non-empty bucket list");
            if !last.0.is_infinite() {
                return Err(format!("{name}{labels} missing +Inf bucket"));
            }
            match counts.get(&labels) {
                Some(c) if *c == last.1 => {}
                Some(c) => {
                    return Err(format!(
                        "{name}{labels} +Inf bucket {} != count {c}",
                        last.1
                    ))
                }
                None => return Err(format!("{name}{labels} missing _count")),
            }
        }
    }
    Ok(())
}

/// Parses the exposition and returns every counter series value, keyed
/// by canonical series key — the monotonicity check between scrapes.
pub fn counter_values(text: &str) -> Result<BTreeMap<String, f64>, String> {
    Ok(parse_exposition(text)?.counters())
}

/// Asserts every counter present in both scrapes is non-decreasing;
/// returns the violations (empty = monotone).
pub fn monotonicity_violations(earlier: &str, later: &str) -> Result<Vec<String>, String> {
    let a = counter_values(earlier)?;
    let b = counter_values(later)?;
    Ok(a.iter()
        .filter_map(|(key, &va)| match b.get(key) {
            Some(&vb) if vb < va => Some(format!("{key}: {va} -> {vb}")),
            _ => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn busy_hub() -> Arc<TelemetryHub> {
        let hub = Arc::new(TelemetryHub::new(2, 64));
        for i in 0..20u64 {
            hub.record(0, Counter::ForwardTask, 1);
            hub.record(0, Counter::CacheHit, 2);
            hub.record(1, Counter::BackwardTask, 1);
            hub.record(1, Counter::CacheMiss, 1);
            hub.observe(0, Sample::QueueDepth, i % 5);
            hub.observe(1, Sample::ForwardLatencyUs, 100 + i);
            hub.observe(1, Sample::BackwardLatencyUs, 300 + i);
        }
        hub.record(0, Counter::StallUs, 30_000);
        hub.set_pool(8, 64, 120_000);
        hub.publish(100_000);
        hub.record(0, Counter::ForwardTask, 7);
        hub.publish(200_000);
        hub
    }

    #[test]
    fn watchdog_trips_family_appears_only_after_a_trip() {
        let hub = busy_hub();
        let meta = RunMeta::new("threaded", 2).seed(7);
        let clean = render_exposition(&hub, &meta);
        assert!(!clean.contains("naspipe_watchdog_trips_total"));
        hub.record_watchdog_trip(crate::watchdog::WatchdogVerdictKind::Straggler);
        hub.record_watchdog_trip(crate::watchdog::WatchdogVerdictKind::Straggler);
        hub.record_watchdog_trip(crate::watchdog::WatchdogVerdictKind::CspConvoy);
        let tripped = render_exposition(&hub, &meta);
        validate_exposition(&tripped).expect(&tripped);
        assert!(tripped.contains("naspipe_watchdog_trips_total{kind=\"straggler\"} 2"));
        assert!(tripped.contains("naspipe_watchdog_trips_total{kind=\"csp-convoy\"} 1"));
        assert!(!tripped.contains("kind=\"stage-stall\""));
    }

    #[test]
    fn exposition_is_valid_and_carries_per_stage_series() {
        let hub = busy_hub();
        let meta = RunMeta::new("threaded", 2).seed(7);
        let text = render_exposition(&hub, &meta);
        validate_exposition(&text).expect(&text);
        for needle in [
            "naspipe_tasks_total{stage=\"0\",kind=\"forward\"} 27",
            "naspipe_cache_events_total{stage=\"1\",event=\"miss\"} 20",
            "naspipe_queue_depth_bucket{stage=\"0\",le=\"+Inf\"} 20",
            "naspipe_pool_busy_microseconds_total 120000",
            "naspipe_run_info{engine=\"threaded\",seed=\"7\"} 1",
            "naspipe_snapshots_total 2",
            "naspipe_tasks_per_second{stage=\"0\"} 70",
            "naspipe_incarnation 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Round-trip through the parser.
        let tricky = "we\\ird \"quoted\"\nvalue";
        let line = format!(
            "naspipe_run_info{{engine=\"{}\"}} 1",
            escape_label_value(tricky)
        );
        let sample = parse_sample(&line).unwrap();
        assert_eq!(sample.labels[0].1, tricky);
        // And the full render survives a hostile engine name.
        let hub = TelemetryHub::new(1, 8);
        hub.publish(1000);
        let text = render_exposition(&hub, &RunMeta::new(tricky, 1));
        validate_exposition(&text).expect(&text);
    }

    #[test]
    fn help_comes_before_type_and_types_match_suffix_classes() {
        let hub = busy_hub();
        let text = render_exposition(&hub, &RunMeta::new("des", 2));
        let expo = parse_exposition(&text).unwrap();
        for (name, ty) in &expo.types {
            assert_eq!(ty, classify(name), "family {name}");
            if name.ends_with("_total") {
                assert_eq!(ty, "counter", "family {name}");
            } else {
                assert_ne!(ty, "counter", "family {name}");
            }
            assert!(expo.helps.contains_key(name), "HELP missing for {name}");
            let help_pos = text.find(&format!("# HELP {name} ")).unwrap();
            let type_pos = text.find(&format!("# TYPE {name} ")).unwrap();
            assert!(help_pos < type_pos, "HELP after TYPE for {name}");
        }
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // No TYPE at all.
        assert!(validate_exposition("naspipe_x_total 1\n").is_err());
        // Sample before its TYPE.
        let bad = "# HELP naspipe_x_total h\nnaspipe_x_total 1\n# TYPE naspipe_x_total counter\n";
        assert!(validate_exposition(bad).is_err());
        // Unquoted label value.
        assert!(parse_sample("m{stage=0} 1").is_err());
        // Unterminated label value.
        assert!(parse_sample("m{stage=\"0} 1").is_err());
        // Negative counter.
        let neg = "# HELP naspipe_x_total h\n# TYPE naspipe_x_total counter\nnaspipe_x_total -1\n";
        assert!(validate_exposition(neg).unwrap_err().contains("bad value"));
        // Duplicate series.
        let dup = "# HELP naspipe_g h\n# TYPE naspipe_g gauge\nnaspipe_g 1\nnaspipe_g 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // Histogram whose +Inf disagrees with _count.
        let hist = "# HELP naspipe_queue_depth h\n# TYPE naspipe_queue_depth histogram\n\
                    naspipe_queue_depth_bucket{le=\"1\"} 1\n\
                    naspipe_queue_depth_bucket{le=\"+Inf\"} 3\n\
                    naspipe_queue_depth_sum 9\nnaspipe_queue_depth_count 4\n";
        assert!(validate_exposition(hist).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn a_nan_bucket_bound_is_an_error_not_a_panic() {
        // `"NaN".parse::<f64>()` succeeds, and sorting the bounds once
        // panicked on the incomparable value.
        let hist = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n";
        assert!(validate_exposition(hist).unwrap_err().contains("bad le"));
    }

    #[test]
    fn scraped_counters_stay_monotone_under_concurrent_writes() {
        // Satellite: 100 snapshots while writer threads hammer the hub;
        // every counter in every consecutive scrape pair must be
        // non-decreasing.
        let hub = Arc::new(TelemetryHub::new(2, 128));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u32)
            .map(|stage| {
                let hub = hub.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        hub.record(stage, Counter::ForwardTask, 1);
                        hub.record(stage, Counter::CacheHit, 3);
                        hub.record(stage, Counter::StallUs, 17);
                        hub.observe(stage, Sample::QueueDepth, i % 7);
                        i += 1;
                    }
                })
            })
            .collect();
        let meta = RunMeta::new("threaded", 2);
        let mut prev: Option<String> = None;
        for t in 0..100u64 {
            hub.publish(t * 1000 + 1);
            let text = render_exposition(&hub, &meta);
            validate_exposition(&text).expect(&text);
            if let Some(p) = &prev {
                let violations = monotonicity_violations(p, &text).unwrap();
                assert!(violations.is_empty(), "{violations:?}");
            }
            prev = Some(text);
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(hub.published(), 100);
    }

    #[test]
    fn empty_hub_renders_minimal_but_valid_text() {
        let hub = TelemetryHub::new(0, 8);
        let text = render_exposition(&hub, &RunMeta::new("des", 0));
        validate_exposition(&text).expect(&text);
        assert!(text.contains("naspipe_snapshots_total 0"));
        assert!(!text.contains("naspipe_tasks_total"));
    }
}

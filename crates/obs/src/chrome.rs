//! Chrome trace-event export for [`SpanTrace`]s.
//!
//! Emits the JSON Object Format of the Trace Event spec — loadable in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: one `"X"`
//! complete event per span (`ts`/`dur` in microseconds, `tid` = stage)
//! and an `"s"`/`"f"` flow-event pair per causal edge, so Perfetto draws
//! an arrow from the releasing span to the released one.
//!
//! Every `"X"` event's `args` carries the exact span fields (`span_id`,
//! `subnet`, `evicted` when non-zero, `cause_src`, `cause_kind`, ...), so
//! [`parse_chrome`] reconstructs the original trace losslessly — the
//! round-trip is the in-repo proof the output is well-formed JSON a
//! viewer will accept.
//! Reading and string escaping go through [`crate::json`].

use crate::json::{parse_json, JsonStr, JsonValue};
use crate::report::RunMeta;
use crate::trace::{CausalEdge, CauseKind, Span, SpanId, SpanKind, SpanTrace};
use std::fmt::Write as _;

/// Serializes `trace` to Chrome trace-event JSON (object format).
pub fn export_chrome(trace: &SpanTrace, meta: &RunMeta) -> String {
    let mut out = String::with_capacity(256 + trace.len() * 192);
    out.push_str("{\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    };

    // Thread-name metadata: one lane per stage, named P{k}.
    for stage in 0..trace.num_stages() {
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{stage},\
                 \"args\":{{\"name\":\"P{stage}\"}}}}"
            ),
        );
    }

    let mut flows: Vec<(u64, &Span, &Span)> = Vec::new();
    for span in trace.spans() {
        let mut ev = String::with_capacity(192);
        let _ = write!(
            ev,
            "{{\"name\":{name},\"cat\":\"{kind}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"span_id\":{id},\"kind\":\"{kind}\",\"stage\":{tid}",
            name = JsonStr(&span.label()),
            kind = span.kind.name(),
            ts = span.start_us,
            dur = span.dur_us(),
            tid = span.stage,
            id = span.id.0,
        );
        if let Some(subnet) = span.subnet {
            let _ = write!(ev, ",\"subnet\":{subnet}");
        }
        if span.evicted > 0 {
            let _ = write!(ev, ",\"evicted\":{}", span.evicted);
        }
        if let Some(cause) = &span.cause {
            let _ = write!(
                ev,
                ",\"cause_src\":{},\"cause_kind\":\"{}\"",
                cause.src.0,
                cause.kind.name()
            );
            match cause.kind {
                CauseKind::CspWriterCompletion { writer } => {
                    let _ = write!(ev, ",\"cause_writer\":{writer}");
                }
                CauseKind::RecoveryReplay { incarnation } => {
                    let _ = write!(ev, ",\"cause_incarnation\":{incarnation}");
                }
                _ => {}
            }
            if let Some(src) = trace.get(cause.src) {
                flows.push((span.id.0, src, span));
            }
        }
        ev.push_str("}}");
        push_event(&mut out, &ev);
    }

    // Flow events: arrow from the releasing span's end to the released
    // span's start. bp:"e" binds the start point to the enclosing slice.
    for (flow_id, src, dst) in flows {
        let kind = dst.cause.as_ref().expect("flow implies cause").kind;
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{flow_id},\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                name = kind.name(),
                ts = src.end_us,
                tid = src.stage,
            ),
        );
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{flow_id},\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                name = kind.name(),
                ts = dst.start_us,
                tid = dst.stage,
            ),
        );
    }

    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    let _ = write!(
        out,
        "\"schema\": 2, \"engine\": {}, \"stages\": {}",
        JsonStr(&meta.engine),
        meta.stages
    );
    if let Some(seed) = meta.seed {
        let _ = write!(out, ", \"seed\": {seed}");
    }
    out.push_str("}\n}\n");
    out
}

/// Why [`parse_chrome`] rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeParseError {
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ChromeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chrome trace parse error: {}", self.message)
    }
}

impl std::error::Error for ChromeParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ChromeParseError> {
    Err(ChromeParseError {
        message: message.into(),
    })
}

fn cause_from_args(args: &JsonValue) -> Result<Option<CausalEdge>, ChromeParseError> {
    let Some(src) = args.get("cause_src").and_then(JsonValue::as_u64) else {
        return Ok(None);
    };
    let kind_name = args
        .get("cause_kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ChromeParseError {
            message: "cause_src without cause_kind".into(),
        })?;
    let kind = match kind_name {
        "injection" => CauseKind::Injection,
        "activation-arrival" => CauseKind::ActivationArrival,
        "gradient-arrival" => CauseKind::GradientArrival,
        "fetch-completion" => CauseKind::FetchCompletion,
        "csp-writer-completion" => CauseKind::CspWriterCompletion {
            writer: args
                .get("cause_writer")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ChromeParseError {
                    message: "csp-writer-completion without cause_writer".into(),
                })?,
        },
        "recovery-replay" => CauseKind::RecoveryReplay {
            incarnation: args
                .get("cause_incarnation")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ChromeParseError {
                    message: "recovery-replay without cause_incarnation".into(),
                })? as u32,
        },
        other => return err(format!("unknown cause_kind {other:?}")),
    };
    Ok(Some(CausalEdge {
        src: SpanId(src),
        kind,
    }))
}

/// Parses a file produced by [`export_chrome`] back into a
/// [`SpanTrace`] (plus the embedded [`RunMeta`]). Only `"X"` events
/// with a `span_id` arg become spans; metadata and flow events are
/// structural and skipped.
pub fn parse_chrome(input: &str) -> Result<(SpanTrace, RunMeta), ChromeParseError> {
    let root = parse_json(input).map_err(|message| ChromeParseError { message })?;
    let Some(events) = root.get("traceEvents").and_then(JsonValue::as_arr) else {
        return err("missing traceEvents array");
    };
    let mut spans = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let args = ev.get("args").ok_or_else(|| ChromeParseError {
            message: "X event without args".into(),
        })?;
        let Some(id) = args.get("span_id").and_then(JsonValue::as_u64) else {
            continue;
        };
        let kind_name = args
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without kind"),
            })?;
        let kind = SpanKind::from_name(kind_name).ok_or_else(|| ChromeParseError {
            message: format!("span {id} has unknown kind {kind_name:?}"),
        })?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without ts"),
            })?;
        let dur = ev
            .get("dur")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without dur"),
            })?;
        let stage = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without tid"),
            })? as u32;
        // Spans that evicted nothing, and every span of an older trace
        // file, carry no such arg.
        let evicted = args.get("evicted").and_then(JsonValue::as_u64).unwrap_or(0);
        spans.push(Span {
            id: SpanId(id),
            stage,
            kind,
            subnet: args.get("subnet").and_then(JsonValue::as_u64),
            start_us: ts,
            end_us: ts.checked_add(dur).ok_or_else(|| ChromeParseError {
                message: format!("span {id}: ts + dur overflows"),
            })?,
            cause: cause_from_args(args)?,
            evicted: u16::try_from(evicted).map_err(|_| ChromeParseError {
                message: format!("span {id}: evicted {evicted} out of range"),
            })?,
        });
    }
    let other = root.get("otherData");
    let meta = RunMeta {
        engine: other
            .and_then(|o| o.get("engine"))
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string(),
        stages: other
            .and_then(|o| o.get("stages"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as u32,
        seed: other
            .and_then(|o| o.get("seed"))
            .and_then(JsonValue::as_u64),
    };
    Ok((SpanTrace::from_spans(spans), meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanDraft, SpanTracer, Tracer};

    fn sample_trace() -> SpanTrace {
        let mut t = SpanTracer::with_namespace(3);
        let f0 = t.emit(
            SpanDraft::new(0, SpanKind::Forward, 0, 10)
                .subnet(0)
                .caused_by(SpanId::EXTERNAL, CauseKind::Injection),
        );
        let fetch = t.emit(
            SpanDraft::new(1, SpanKind::Fetch, 10, 14)
                .subnet(0)
                .evicted(2),
        );
        let f1 = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 14, 24)
                .subnet(0)
                .caused_by(fetch, CauseKind::FetchCompletion),
        );
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 12, 22)
                .subnet(1)
                .caused_by(f0, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        t.emit(
            SpanDraft::new(1, SpanKind::Backward, 24, 30)
                .subnet(0)
                .caused_by(f1, CauseKind::GradientArrival),
        );
        t.emit(SpanDraft::new(1, SpanKind::Checkpoint, 30, 30));
        t.take()
    }

    #[test]
    fn round_trip_preserves_every_span() {
        let trace = sample_trace();
        let meta = RunMeta::new("des", 2).seed(7);
        let json = export_chrome(&trace, &meta);
        let (parsed, parsed_meta) = parse_chrome(&json).expect("parse back");
        assert_eq!(parsed, trace);
        assert_eq!(parsed_meta, meta);
    }

    #[test]
    fn export_contains_flow_pair_per_internal_edge() {
        let trace = sample_trace();
        let json = export_chrome(&trace, &RunMeta::new("des", 2));
        // 4 causal edges, one of which (Injection) points outside the
        // trace -> 3 flow pairs.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 3);
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn parser_rejects_garbage_and_truncation() {
        assert!(parse_chrome("not json").is_err());
        assert!(parse_chrome("{}").is_err());
        let good = export_chrome(&sample_trace(), &RunMeta::new("des", 2));
        let truncated = &good[..good.len() / 2];
        assert!(parse_chrome(truncated).is_err());
    }

    #[test]
    fn seed_round_trips_beyond_f64_precision() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let meta = RunMeta::new("des", 2).seed((1 << 53) + 1);
        let json = export_chrome(&sample_trace(), &meta);
        assert_eq!(parse_chrome(&json).expect("parse back").1, meta);
        let meta = meta.seed(u64::MAX);
        let json = export_chrome(&sample_trace(), &meta);
        assert_eq!(parse_chrome(&json).expect("parse back").1, meta);
    }

    #[test]
    fn hostile_documents_are_errors_not_aborts() {
        // Both used to overflow the stack (exit 134).
        assert!(parse_chrome(&"[".repeat(200_000)).is_err());
        assert!(parse_chrome(&"{\"a\":".repeat(200_000)).is_err());
        let overflow = r#"{"traceEvents": [{"ph":"X","ts":18446744073709551615,"dur":1,
            "tid":0,"args":{"span_id":9,"kind":"forward"}}]}"#;
        assert!(parse_chrome(overflow).is_err());
        let evicted = r#"{"traceEvents": [{"ph":"X","ts":0,"dur":1,
            "tid":0,"args":{"span_id":9,"kind":"fetch","evicted":65536}}]}"#;
        assert!(parse_chrome(evicted).is_err());
    }
}

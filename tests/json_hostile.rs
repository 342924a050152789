//! Hostile-input sweep over everything that reads JSON through
//! `obs::json`: arbitrary token soups, every truncation and single-byte
//! corruptions of the documents the workspace itself emits. The
//! property is only "returns": no consumer may panic, overflow the stack
//! or recurse past the parser's depth bound on any input. (The
//! 200 000-deep documents are pinned as plain unit tests next to
//! `parse_json` and `parse_chrome`.)

use naspipe::obs::{
    bench_deltas, export_chrome, flight_kind_counts, parse_chrome, parse_event, parse_journal,
    parse_json, render_top, validate_journal, validate_status, CauseKind, FlightEventKind,
    FlightRecorder, Journal, JournalLevel, OpsState, RunMeta, RunPhase, SpanDraft, SpanId,
    SpanKind, SpanTracer, TelemetryHub, Tracer,
};
use naspipe_bench::experiments::compute::{
    check_against, render_json, BatchedBench, ComputeMatrix, ComputeRun, MatmulBench,
    TransposedBench,
};
use proptest::prelude::*;
use std::sync::Arc;

fn matrix() -> ComputeMatrix {
    ComputeMatrix {
        host_parallelism: 2,
        runs: vec![ComputeRun {
            threads: 1,
            matmul: vec![MatmulBench {
                m: 64,
                k: 64,
                n: 64,
                naive_gflops: 1.0,
                tiled_gflops: 40.0,
                speedup: 40.0,
                bitwise_equal: true,
                out_hash: u64::MAX,
            }],
            transposed: vec![TransposedBench {
                op: "matmul_t",
                gflops: 8.0,
                explicit_gflops: 4.0,
                bitwise_equal: true,
                out_hash: 1,
            }],
            batched: BatchedBench {
                count: 16,
                m: 64,
                k: 128,
                n: 128,
                batched_gflops: 12.0,
                looped_gflops: 9.0,
                bitwise_equal: true,
            },
            replay_subnets: 24,
            replay_subnets_per_s: 50.0,
            replay_dim: 128,
            replay_final_hash: 7,
            threaded_makespan_us: 1234,
            threaded_final_hash: 7,
        }],
    }
}

/// Feeds one input to every consumer of the shared parser.
fn consume(input: &str) {
    if let Ok(doc) = parse_json(input) {
        let _ = validate_status(&doc);
        let _ = render_top(&doc, "naspipe_pool_utilization 0.5\n");
    }
    let _ = parse_chrome(input);
    let _ = parse_event(input);
    let _ = parse_journal(input);
    let _ = validate_journal(input);
    let _ = bench_deltas(input, input, 0.15);
    let _ = flight_kind_counts(input);
    let _ = check_against(input, &matrix(), 0.15, 0.35);
}

/// One of each document the workspace emits and later reads back.
fn valid_documents() -> Vec<String> {
    let mut tracer = SpanTracer::new();
    let f0 = tracer.emit(
        SpanDraft::new(0, SpanKind::Forward, 0, 10)
            .subnet(0)
            .caused_by(SpanId::EXTERNAL, CauseKind::Injection),
    );
    tracer.emit(
        SpanDraft::new(1, SpanKind::Forward, 12, 22)
            .subnet(1)
            .caused_by(f0, CauseKind::CspWriterCompletion { writer: 0 }),
    );
    let chrome = export_chrome(&tracer.take(), &RunMeta::new("d\"e\\s", 2).seed(u64::MAX));

    let journal = Arc::new(Journal::new(8));
    journal.emit(
        JournalLevel::Warn,
        "watchdog-trip",
        Some(1),
        10,
        "straggler \"x\"\n\u{1}é😀",
        vec![("verdict".into(), "straggler".into())],
    );
    let line = journal.snapshot()[0].to_json();

    let hub = Arc::new(TelemetryHub::new(2, 0));
    hub.publish(100);
    let state = OpsState::new(RunMeta::new("threaded", 2).seed(7), hub, journal);
    state.set_phase(RunPhase::Running);
    state.set_total_subnets(4);

    let flight = FlightRecorder::new(2, 8);
    flight.record(0, 1, FlightEventKind::Admission, 0);
    flight.record(1, 2, FlightEventKind::Admission, 3);

    vec![
        chrome,
        format!("{line}\n{line}\n"),
        state.render_status(),
        flight.snapshot().to_json("on \"demand\""),
        render_json(&matrix()),
    ]
}

#[test]
fn valid_documents_are_valid() {
    // The sweep below is only meaningful if its seeds are accepted.
    let docs = valid_documents();
    for i in [0, 2, 3, 4] {
        parse_json(&docs[i]).expect(&docs[i]);
    }
    assert_eq!(parse_chrome(&docs[0]).unwrap().1.seed, Some(u64::MAX));
    assert_eq!(parse_journal(&docs[1]).unwrap().len(), 2);
    assert!(validate_status(&parse_json(&docs[2]).unwrap()).is_empty());
    assert_eq!(
        flight_kind_counts(&docs[3]),
        vec![("admission".to_string(), 2)]
    );
    assert_eq!(
        check_against(&docs[4], &matrix(), 0.15, 0.35)
            .unwrap()
            .rows
            .len(),
        5
    );
}

#[test]
fn every_truncation_of_a_valid_document_returns() {
    for doc in valid_documents() {
        for (cut, _) in doc.char_indices() {
            consume(&doc[..cut]);
        }
    }
}

/// Fragments that steer a token soup into the parser's corners.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "-",
    "+",
    ".",
    "e",
    "0",
    "9",
    "1e999",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "nul",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "00e9",
    "é",
    "😀",
    "\u{1}",
    "\"traceEvents\"",
    "\"ph\":\"X\"",
    "\"args\"",
    "\"span_id\"",
    "\"kind\"",
    "\"ts\"",
    "\"dur\"",
    "\"tid\"",
    "\"v\":1",
    "\"seq\"",
    "\"fields\"",
    "\"runs\"",
    "\"threads\"",
    "\"matmul\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_token_soups_return(picks in proptest::collection::vec(0..TOKENS.len(), 0..48)) {
        let soup: String = picks.into_iter().map(|i| TOKENS[i]).collect();
        consume(&soup);
    }

    #[test]
    fn single_byte_corruptions_of_valid_documents_return(
        which in 0usize..5,
        at in 0usize..1 << 16,
        byte in 0u16..256,
    ) {
        let mut bytes = valid_documents().swap_remove(which).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        consume(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn deep_nesting_is_an_error_at_any_depth(depth in 129usize..4096, open in 0usize..2) {
        let unit = ["[", "{\"a\":"][open];
        prop_assert!(parse_json(&unit.repeat(depth)).is_err());
        prop_assert!(parse_chrome(&unit.repeat(depth)).is_err());
    }
}

//! Hostile-input sweep over the workspace's line-based decoders:
//! `Transcript::read` (schedule transcripts, the input a replayed cost
//! model reads), `replay_gate::parse_golden` (the golden-trace corpus)
//! and `expo::parse_exposition` with the checks built on it. Arbitrary
//! token soups, every truncation and single-byte corruptions of the
//! documents the workspace itself emits. The property is only
//! "returns": no decoder may panic on any input. (The one input found
//! that did, a `NaN` histogram bound, is pinned next to
//! `validate_exposition`.)

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::SimSpec;
use naspipe::core::replay_gate::parse_golden;
use naspipe::core::transcript::Transcript;
use naspipe::obs::expo::parse_exposition;
use naspipe::obs::{
    counter_values, monotonicity_violations, render_exposition, validate_exposition, Counter,
    RunMeta, Sample, TelemetryHub,
};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::space::SearchSpace;
use proptest::prelude::*;

/// One decoder under test, fed raw bytes.
type Decoder = fn(&[u8]);

fn read_transcript(input: &[u8]) {
    let _ = Transcript::read(&mut &input[..]);
}

fn read_golden(input: &[u8]) {
    let _ = parse_golden(&String::from_utf8_lossy(input));
}

fn read_exposition(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    let _ = parse_exposition(&text);
    let _ = validate_exposition(&text);
}

/// Feeds one input to every decoder and check; the transcript reader
/// gets the raw bytes, the string decoders their lossy text.
fn consume(input: &[u8]) {
    read_transcript(input);
    read_golden(input);
    read_exposition(input);
    let text = String::from_utf8_lossy(input);
    let _ = monotonicity_violations(&text, &text);
}

/// One of each document the workspace writes and later reads back, with
/// the decoder that reads its kind.
fn valid_documents() -> Vec<(String, Decoder)> {
    let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
    let cfg = PipelineConfig::naspipe(2, 4).with_batch(8).with_seed(3);
    let out = SimSpec::new(&space, &cfg).run().unwrap();
    let transcript = Transcript::from_outcome(&out).to_text();

    let hub = TelemetryHub::new(1, 4);
    for i in 0..6 {
        hub.record(0, Counter::ForwardTask, 1);
        hub.observe(0, Sample::ForwardLatencyUs, 100 + i);
    }
    hub.publish(1_000);
    let exposition = render_exposition(&hub, &RunMeta::new("des", 1).seed(3));

    let golden = |text: &str| (text.to_string(), read_golden as Decoder);
    vec![
        (transcript, read_transcript),
        golden(include_str!("../traces/golden/des_nlp8x4_g2_s3.golden")),
        golden(include_str!("../traces/golden/thr_recover_g3_s5.golden")),
        (exposition, read_exposition),
    ]
}

#[test]
fn valid_documents_are_valid() {
    // The sweep below is only meaningful if its seeds are accepted.
    let docs: Vec<String> = valid_documents().into_iter().map(|(d, _)| d).collect();
    let t = Transcript::read(&mut docs[0].as_bytes()).unwrap();
    assert_eq!(t.tasks.len(), 4 * 2 * 2);
    assert!(parse_golden(&docs[1]).is_ok());
    let recover = parse_golden(&docs[2]).unwrap();
    assert!(recover.spec.faults.is_some() && recover.expect.schedule.is_some());
    validate_exposition(&docs[3]).expect(&docs[3]);
    assert!(docs[3].contains("_bucket{"), "a histogram to corrupt");
    assert!(!counter_values(&docs[3]).unwrap().is_empty());
}

#[test]
fn every_truncation_of_a_valid_document_returns() {
    for (doc, _) in valid_documents() {
        for (cut, _) in doc.char_indices() {
            consume(&doc.as_bytes()[..cut]);
        }
    }
}

#[test]
fn every_position_corrupted_returns() {
    // Every byte of every document is overwritten once, by the classes
    // in rotation; each breaks the line formats differently: a line
    // split, a token split, a sign, a digit, a skip marker, a list
    // separator, invalid UTF-8. Each document goes to its own decoder.
    const CLASSES: [u8; 7] = [b'\n', b' ', b'-', b'9', b'~', b',', 0xff];
    for (doc, decode) in valid_documents() {
        let mut bytes = doc.into_bytes();
        for at in 0..bytes.len() {
            let original = std::mem::replace(&mut bytes[at], CLASSES[at % CLASSES.len()]);
            decode(&bytes);
            bytes[at] = original;
        }
    }
}

/// Fragments that steer a token soup into the decoders' corners.
const TOKENS: &[&str] = &[
    " ",
    "\n",
    "\r\n",
    ",",
    "~",
    "-",
    "+",
    "0",
    "7",
    "18446744073709551616",
    "4294967299",
    "ff",
    "é",
    "\u{1}",
    "naspipe-transcript v1\n",
    "subnet 0 1,2\n",
    "task 0 5 F 0 0 0 1\n",
    "task ",
    "F",
    "B",
    "naspipe-golden v1\n",
    "case ",
    "engine des\n",
    "engine threaded\n",
    "space nlp 4 3\n",
    "gpus ",
    "faults ",
    "expect ",
    "critical-path ",
    "schedule 1 8,16 2\n",
    "transcript\n",
    "# HELP h x\n",
    "# TYPE h histogram\n",
    "# TYPE c counter\n",
    "h_bucket{le=\"",
    "NaN",
    "+Inf",
    "\"} ",
    "h_count ",
    "c_total{",
    "k=\"v\\",
    "}",
    "{",
    "\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_token_soups_return(picks in proptest::collection::vec(0..TOKENS.len(), 0..48)) {
        let soup: String = picks.into_iter().map(|i| TOKENS[i]).collect();
        consume(soup.as_bytes());
    }

    #[test]
    fn single_byte_corruptions_of_valid_documents_return(
        which in 0usize..4,
        at in 0usize..1 << 16,
        byte in 0u16..256,
    ) {
        let mut bytes = valid_documents().swap_remove(which).0.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        consume(&bytes);
    }
}

//! Hostile-input sweep over the workspace's line-based decoders:
//! `Transcript::read` (schedule transcripts, the input a replayed cost
//! model reads), `replay_gate::parse_golden` (the golden-trace corpus)
//! and `expo::parse_exposition` with the checks built on it. Arbitrary
//! token soups, every truncation and single-byte corruptions of the
//! documents the workspace itself emits. The property is only
//! "returns": no decoder may panic on any input, and neither may the
//! replay of a transcript that parses, numeric or (for a threaded run's,
//! with its `taken` records) on the stage workers. (The one input found
//! that did, a `NaN` histogram bound, is pinned next to
//! `validate_exposition`.)

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::SimSpec;
use naspipe::core::replay_gate::{parse_golden, run_case};
use naspipe::core::runtime::RunSpec;
use naspipe::core::train::{ReplayError, TrainConfig};
use naspipe::core::transcript::{replay_transcript, Transcript};
use naspipe::obs::expo::parse_exposition;
use naspipe::obs::{
    counter_values, monotonicity_violations, render_exposition, validate_exposition, Counter,
    RunMeta, Sample, TelemetryHub,
};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;
use naspipe::supernet::subnet::Subnet;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One decoder under test, fed raw bytes.
type Decoder = fn(&[u8]);

/// Reads a transcript and replays whatever parses on the space the
/// valid one was recorded on: a transcript that parses but does not fit
/// is a [`ReplayError`], never a panic.
fn read_transcript(input: &[u8]) {
    if let Ok(t) = Transcript::read(&mut &input[..]) {
        let _ = replay_transcript(&recorded_space(), &t, &TrainConfig::default());
    }
}

/// The space the valid transcript below is recorded on.
fn recorded_space() -> SearchSpace {
    SearchSpace::uniform(Domain::Nlp, 4, 3)
}

/// The threaded run the valid threaded transcript below records: its
/// spec (on `space`), whose subnets a replay compares the transcript's
/// with.
fn threaded_spec(space: &SearchSpace) -> RunSpec<'_> {
    let subnets: Vec<Subnet> = UniformSampler::new(space, 5).take_subnets(3);
    RunSpec::new(space, subnets, TrainConfig::default(), 2)
}

/// [`read_transcript`], then the stage workers' replay of it on the
/// threaded run it was recorded from: a divergence, never a panic.
fn read_threaded_transcript(input: &[u8]) {
    if let Ok(t) = Transcript::read(&mut &input[..]) {
        let space = recorded_space();
        let _ = replay_transcript(&space, &t, &TrainConfig::default());
        let _ = threaded_spec(&space).replay(&t);
    }
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
    read_threaded_transcript(input);
    read_golden(input);
    read_exposition(input);
    let text = String::from_utf8_lossy(input);
    let _ = monotonicity_violations(&text, &text);
}

/// One of each document the workspace writes and later reads back, with
/// the decoder that reads its kind; made once per test binary.
fn valid_documents() -> &'static [(String, Decoder)] {
    static DOCS: OnceLock<Vec<(String, Decoder)>> = OnceLock::new();
    DOCS.get_or_init(documents)
}

fn documents() -> Vec<(String, Decoder)> {
    let space = recorded_space();
    let cfg = PipelineConfig::naspipe(2, 4).with_batch(8).with_seed(3);
    let out = SimSpec::new(&space, &cfg).run().unwrap();
    let transcript = Transcript::from_outcome(&out).to_text();
    let run = threaded_spec(&space).run().unwrap();
    let threaded = Transcript {
        subnets: run.subnets,
        tasks: run.tasks,
        taken: run.taken,
    }
    .to_text();

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
        (threaded, read_threaded_transcript),
    ]
}

#[test]
fn valid_documents_are_valid() {
    // The sweep below is only meaningful if its seeds are accepted.
    let docs: Vec<String> = valid_documents().iter().map(|(d, _)| d.clone()).collect();
    let t = Transcript::read(&mut docs[0].as_bytes()).unwrap();
    assert_eq!(t.tasks.len(), 4 * 2 * 2);
    let cfg = TrainConfig::default();
    assert!(replay_transcript(&recorded_space(), &t, &cfg).is_ok());
    let wider = SearchSpace::uniform(Domain::Nlp, 5, 3);
    assert_eq!(
        replay_transcript(&wider, &t, &cfg).unwrap_err(),
        ReplayError::InvalidSubnet(0)
    );
    assert!(parse_golden(&docs[1]).is_ok());
    let recover = parse_golden(&docs[2]).unwrap();
    assert!(recover.spec.faults.is_some() && recover.expect.schedule.is_some());
    validate_exposition(&docs[3]).expect(&docs[3]);
    assert!(docs[3].contains("_bucket{"), "a histogram to corrupt");
    assert!(!counter_values(&docs[3]).unwrap().is_empty());
    let threaded = Transcript::read(&mut docs[4].as_bytes()).unwrap();
    assert_eq!(threaded.taken.len(), threaded.tasks.len());
    let space = recorded_space();
    let replayed = threaded_spec(&space).replay(&threaded).unwrap();
    assert_eq!(replayed.tasks.len(), 3 * 2 * 2);
}

#[test]
fn a_golden_field_too_wide_for_its_type_is_rejected_naming_its_line() {
    // Each edit is 2^32 above a value that fits: narrowed unchecked, it
    // would read as the original.
    let des = include_str!("../traces/golden/des_nlp8x4_g2_s3.golden");
    let thr = include_str!("../traces/golden/thr_recover_g3_s5.golden");
    for (golden, line, wide) in [
        (des, "gpus 2", "gpus 4294967298"),
        (des, "space nlp 8 4", "space nlp 4294967304 4"),
        (des, "space nlp 8 4", "space nlp 8 4294967300"),
        (des, "batch 16", "batch 4294967312"),
        (thr, "faults 5 1 1", "faults 5 4294967297 1"),
        (thr, "faults 5 1 1", "faults 5 1 4294967297"),
        (
            thr,
            "expect schedule 1 0 2",
            "expect schedule 4294967297 0 2",
        ),
    ] {
        let at = golden.lines().position(|l| l == line).expect(line) + 1;
        let edited = golden.replacen(&format!("\n{line}\n"), &format!("\n{wide}\n"), 1);
        let err = parse_golden(&edited).expect_err(wide);
        let value = wide
            .split(' ')
            .find(|t| t.len() == 10)
            .expect("a wide value");
        assert!(
            err.starts_with(&format!("line {at}: ")) && err.contains(value),
            "{wide}: {err}"
        );
    }
}

#[test]
fn a_golden_that_does_not_fit_its_space_is_rejected_naming_its_line() {
    // Each edit parses as a transcript, but names a block or a choice the
    // case's `space nlp 8 4` does not have; the gate would index past a
    // subnet's choices with it.
    let des = include_str!("../traces/golden/des_nlp8x4_g2_s3.golden");
    // The first task line, whatever its timestamps, ending at block 9.
    let task = des
        .lines()
        .find(|l| l.starts_with("task "))
        .expect("a task");
    let past_the_end = format!("{} 9", &task[..task.rfind(' ').expect("fields")]);
    for (line, hostile) in [
        (task, past_the_end.as_str()),
        ("subnet 2 1,0,2,2,3,0,0,3", "subnet 2 1,0,2,2,3,0,0,4"),
        ("subnet 2 1,0,2,2,3,0,0,3", "subnet 2 1,0,2,2,3,0,0"),
        ("subnet 2 1,0,2,2,3,0,0,3", "subnet 2 1,0,2,2,3,0,0,3,1"),
    ] {
        let at = des.lines().position(|l| l == line).expect(line) + 1;
        let edited = des.replacen(&format!("\n{line}\n"), &format!("\n{hostile}\n"), 1);
        let err = match parse_golden(&edited) {
            // What parses is gated, and the gate must not panic either.
            Ok(case) => panic!("{hostile}: parsed; {:?}", run_case(&case).divergences),
            Err(err) => err,
        };
        assert!(err.starts_with(&format!("line {at}: ")), "{hostile}: {err}");
    }
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
        let mut bytes = doc.clone().into_bytes();
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
    "taken 1 0\n",
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
        which in 0usize..5,
        at in 0usize..1 << 16,
        byte in 0u16..256,
    ) {
        let mut bytes = valid_documents()[which].0.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        consume(&bytes);
    }
}

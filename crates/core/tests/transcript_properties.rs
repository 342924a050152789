//! Property tests of the transcript file format: `write` → `read` is
//! the identity over generated pipeline outcomes, and the golden-trace
//! file format round-trips the cases built on top of it.

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::replay_gate::{parse_golden, regenerate, render_golden, CaseEngine, CaseSpec};
use naspipe_core::transcript::Transcript;
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any schedulable outcome's transcript survives a write → read
    /// round trip bit-for-bit, including skip choices and block ranges.
    #[test]
    fn transcript_write_read_is_identity(
        seed in 0u64..10_000,
        gpus in 2u32..6,
        n in 2u64..10,
        blocks in 4u32..12,
        choices in 3u32..6,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        let subnets = UniformSampler::new(&space, seed).take_subnets(n as usize);
        let cfg = PipelineConfig::naspipe(gpus, n).with_batch(16).with_seed(seed);
        let mut spec = SimSpec::new(&space, &cfg);
        spec.subnets = Some(subnets);
        let outcome = spec.run()
            .expect("fixed-batch schedule runs");
        let transcript = Transcript::from_outcome(&outcome);
        let text = transcript.to_text();
        let parsed = Transcript::read(&mut text.as_bytes()).expect("own output parses");
        prop_assert_eq!(&parsed, &transcript);
        // And the rendering itself is stable: read → write reproduces
        // the exact bytes (the property the bitwise gate relies on).
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// A regenerated golden case survives render → parse with its spec,
    /// expectations, and embedded transcript intact.
    #[test]
    fn golden_case_render_parse_is_identity(
        seed in 0u64..1_000,
        gpus in 2u32..5,
        n in 4u64..9,
    ) {
        let spec = CaseSpec {
            name: format!("prop_g{gpus}_s{seed}"),
            engine: CaseEngine::Des,
            domain: Domain::Nlp,
            blocks: 6,
            choices: 4,
            gpus,
            subnets: n,
            seed,
            batch: 16,
            window: 0,
            checkpoint_interval: 0,
            faults: None,
        };
        let case = regenerate(&spec).expect("spec regenerates");
        let parsed = parse_golden(&render_golden(&case)).expect("own golden parses");
        prop_assert_eq!(parsed.spec, case.spec);
        prop_assert_eq!(parsed.expect, case.expect);
        prop_assert_eq!(parsed.transcript, case.transcript);
        prop_assert_eq!(parsed.transcript_text, case.transcript_text);
        prop_assert_eq!(parsed.transcript_line, case.transcript_line);
    }
}

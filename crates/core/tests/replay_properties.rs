//! Property tests of the training replay's compute-pool invariance:
//! whatever the schedule, seed, or pool size, `replay_training` (and
//! the sequential reference it must match) produces the same bits.

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, sequential_training, TrainConfig};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use proptest::prelude::*;

proptest! {
    // Each case schedules and replays real floating-point training four
    // times, so keep the case count low; shapes stay above the kernels'
    // parallel thresholds via dim 128.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `replay_training` is bitwise invariant across compute-pool sizes
    /// {1, 2, 4, 8} and always equals sequential training.
    #[test]
    fn replay_hash_is_pool_size_invariant(
        seed in 0u64..1_000,
        gpus in 2u32..5,
        n in 3u64..7,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
        let subnets = UniformSampler::new(&space, seed).take_subnets(n as usize);
        let pcfg = PipelineConfig::naspipe(gpus, n).with_batch(16).with_seed(seed);
        let mut spec = SimSpec::new(&space, &pcfg);
        spec.subnets = Some(subnets.clone());
        let outcome = spec.run()
            .expect("fixed-batch schedule runs");
        let cfg = TrainConfig {
            dim: 128,
            rows: 64,
            seed,
            ..TrainConfig::default()
        };
        let reference = sequential_training(&space, &subnets, &cfg.with_threads(1));
        for threads in [1usize, 2, 4, 8] {
            let replay = replay_training(&space, &outcome, &cfg.with_threads(threads));
            prop_assert_eq!(
                replay.final_hash,
                reference.final_hash,
                "replay diverged from sequential at {} pool workers",
                threads
            );
        }
    }
}

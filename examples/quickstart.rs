//! Quickstart: train a small supernet with NASPipe's CSP pipeline and
//! verify the headline property — bitwise-reproducible results on any
//! number of GPUs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, sequential_training, TrainConfig};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

fn main() {
    // 1. Define a search space: NLP.c3 from the paper — 48 choice blocks,
    //    24 candidate layers each (24^48 candidate architectures).
    let space = SearchSpace::nlp_c3();
    println!(
        "search space: {} blocks x {} choices, supernet = {:.1} GB of parameters",
        space.num_blocks(),
        space.block(0).num_choices(),
        space.supernet_param_bytes() as f64 / 1e9,
    );

    // 2. Sample an exploration stream (SPOS uniform sampling). The order
    //    of this stream defines the causal dependencies every schedule
    //    must preserve.
    let mut sampler = UniformSampler::new(&space, 42);
    let subnets = sampler.take_subnets(48);

    // 3. Train sequentially — the reference semantics.
    let train_cfg = TrainConfig {
        residual_scale: 0.15,
        ..TrainConfig::default()
    };
    let reference = sequential_training(&space, &subnets, &train_cfg);
    println!(
        "sequential reference: final loss {:.4}, parameter hash {:016x}",
        reference.converged_loss(),
        reference.final_hash,
    );

    // 4. Train the same stream through the CSP pipeline on 2, 4 and 8
    //    simulated GPUs; replay each schedule numerically.
    for gpus in [2u32, 4, 8] {
        let cfg = PipelineConfig::naspipe(gpus, subnets.len() as u64).with_batch(32);
        let outcome = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .expect("pipeline runs");
        let result = replay_training(&space, &outcome, &train_cfg);
        let same = result.final_hash == reference.final_hash;
        println!(
            "{gpus} GPUs: bubble {:.2}, cache hit {:.1}%, parameter hash {:016x} -> {}",
            outcome.report.bubble_ratio,
            outcome.report.cache_hit_rate.unwrap_or(0.0) * 100.0,
            result.final_hash,
            if same {
                "BITWISE EQUAL to sequential"
            } else {
                "DIVERGED (bug!)"
            },
        );
        assert!(same, "CSP must reproduce the sequential result");
    }
    println!("\nreproducibility holds: same weights on every GPU count.");
}

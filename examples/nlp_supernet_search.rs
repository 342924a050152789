//! End-to-end NLP neural-architecture search: train an Evolved-
//! Transformer-style supernet (NLP.c2) with the CSP pipeline, then search
//! it with regularised evolution — the paper's full workflow, including
//! the post-hoc "deterministic training replay" a researcher uses to
//! debug an outstanding trial (§2.1).
//!
//! ```text
//! cargo run --release --example nlp_supernet_search
//! ```

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::repro::verify_csp_order;
use naspipe_core::train::{replay_training, search_best_subnet, TrainConfig};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

fn main() {
    let space = SearchSpace::nlp_c2();
    let steps = 160u64;
    let mut sampler = UniformSampler::new(&space, 7);
    let subnets = sampler.take_subnets(steps as usize);

    // Phase 1: supernet training on 8 pipelined GPUs under CSP.
    println!("phase 1: training {steps} subnets on NLP.c2 over 8 simulated GPUs...");
    let cfg = PipelineConfig::naspipe(8, steps).with_seed(7);
    let outcome = SimSpec {
        subnets: Some(subnets),
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .expect("NLP.c2 fits with swapping");
    println!(
        "  throughput {:.0} samples/s, bubble {:.2}, cache hit {:.1}%, {:.0} subnets/h",
        outcome.report.throughput_samples_per_sec(),
        outcome.report.bubble_ratio,
        outcome.report.cache_hit_rate.unwrap_or(0.0) * 100.0,
        outcome.report.subnets_per_hour(),
    );

    // Every layer's access order must equal sequential execution.
    verify_csp_order(&outcome)
        .unwrap_or_else(|(layer, order)| panic!("CSP violation at {layer}: {}", order.notation()));
    println!("  causal-dependency check: every shared layer accessed in sequence order");

    // Phase 2: numeric replay of the schedule = the actual training.
    let train_cfg = TrainConfig {
        seed: 7,
        residual_scale: 0.15,
        ..TrainConfig::default()
    };
    let trained = replay_training(&space, &outcome, &train_cfg);
    println!(
        "phase 2: replayed training, converged loss {:.4} (hash {:016x})",
        trained.converged_loss(),
        trained.final_hash,
    );

    // Phase 3: evolution search over the trained supernet.
    let (best_loss, best) = search_best_subnet(&space, &trained.store, &train_cfg, 96);
    println!(
        "phase 3: evolution search -> best subnet {} with validation loss {:.4}",
        best.seq_id(),
        best_loss,
    );
    let head: Vec<u32> = best.choices().iter().take(8).copied().collect();
    println!("  winning choices (first 8 blocks): {head:?}");

    // Phase 4: the replay is deterministic — run it again and compare.
    let again = replay_training(&space, &outcome, &train_cfg);
    assert_eq!(again.final_hash, trained.final_hash);
    let (best_loss_again, best_again) = search_best_subnet(&space, &again.store, &train_cfg, 96);
    assert_eq!(best_again, best);
    assert_eq!(best_loss_again, best_loss);
    println!("phase 4: deterministic replay reproduced the identical search result");
}

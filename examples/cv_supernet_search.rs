//! Computer-vision NAS with scaling analysis: train an AmoebaNet-style
//! supernet (CV.c2) on growing GPU counts and watch throughput,
//! utilisation, and — crucially — the *invariance* of the training result.
//!
//! ```text
//! cargo run --release --example cv_supernet_search
//! ```

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, search_best_subnet, TrainConfig};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

fn main() {
    let space = SearchSpace::cv_c2();
    let steps = 128u64;
    let subnets = UniformSampler::new(&space, 11).take_subnets(steps as usize);
    let train_cfg = TrainConfig {
        seed: 11,
        residual_scale: 0.18,
        ..TrainConfig::default()
    };

    println!("CV.c2: 32 choice blocks x 24 candidates, ImageNet-scale cost model\n");
    println!("GPUs  batch  throughput  bubble  ALU    subnets/h  best-subnet  val-loss");
    let mut reference: Option<(u64, String)> = None;
    for gpus in [4u32, 8, 16] {
        let cfg = PipelineConfig::naspipe(gpus, steps).with_seed(11);
        let outcome = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .expect("CV.c2 fits");
        let trained = replay_training(&space, &outcome, &train_cfg);
        let (val_loss, best) = search_best_subnet(&space, &trained.store, &train_cfg, 64);
        let r = &outcome.report;
        println!(
            "{gpus:<5} {:<6} {:<11.0} {:<7.2} {:<6.2} {:<10.0} {:<12} {val_loss:.4}",
            r.batch,
            r.throughput_samples_per_sec(),
            r.bubble_ratio,
            r.total_alu,
            r.subnets_per_hour(),
            best.seq_id().to_string(),
        );
        match &reference {
            None => reference = Some((trained.final_hash, best.to_string())),
            Some((hash, best_ref)) => {
                assert_eq!(*hash, trained.final_hash, "weights diverged at {gpus} GPUs");
                assert_eq!(
                    *best_ref,
                    best.to_string(),
                    "search diverged at {gpus} GPUs"
                );
            }
        }
    }
    println!("\nsame trained weights and same searched architecture at every GPU count.");
    println!("(throughput scales with GPUs; the training *result* does not change.)");
}

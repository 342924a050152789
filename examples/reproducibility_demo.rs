//! The Figure 1 / Table 4 story, live: run the same exploration stream
//! under ASP, BSP, and CSP, print a shared layer's access order on 4 vs 8
//! GPUs, and show that only CSP trains to bitwise-identical weights.
//!
//! Also demonstrates the *multi-threaded* decentralised runtime: real OS
//! threads with nondeterministic interleavings still produce bit-identical
//! parameters under CSP.
//!
//! ```text
//! cargo run --release --example reproducibility_demo
//! ```

use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::SimSpec;
use naspipe_core::repro::{layer_access_order, most_contended_layer};
use naspipe_core::runtime::RunSpec;
use naspipe_core::train::{replay_training, sequential_training, TrainConfig};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

fn main() {
    let space = SearchSpace::uniform(Domain::Nlp, 16, 6);
    let subnets = UniformSampler::new(&space, 3).take_subnets(24);
    let train_cfg = TrainConfig {
        seed: 3,
        residual_scale: 0.25,
        ..TrainConfig::default()
    };
    let reference = sequential_training(&space, &subnets, &train_cfg);
    println!("sequential reference hash: {:016x}\n", reference.final_hash);

    let disciplines = [
        ("CSP (NASPipe)", SyncPolicy::naspipe()),
        (
            "BSP (GPipe)  ",
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
        ),
        ("ASP (PipeDream)", SyncPolicy::Asp),
    ];

    // Pick an interesting shared layer from a reference schedule.
    let probe = {
        let cfg = PipelineConfig::naspipe(4, 24).with_batch(16);
        let out = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        most_contended_layer(&out, 3).expect("a contended layer exists")
    };
    println!("observed layer: {probe}\n");

    for (name, policy) in disciplines {
        println!("== {name} ==");
        let mut hashes = Vec::new();
        for gpus in [4u32, 8] {
            let cfg = PipelineConfig::naspipe(gpus, 24)
                .with_batch(16)
                .with_policy(policy)
                .with_seed(3);
            let out = SimSpec {
                subnets: Some(subnets.clone()),
                ..SimSpec::new(&space, &cfg)
            }
            .run()
            .unwrap();
            let order = layer_access_order(&out, probe);
            let trained = replay_training(&space, &out, &train_cfg);
            println!("  {gpus} GPUs: {}", order.notation());
            println!(
                "          hash {:016x} ({} sequential order)",
                trained.final_hash,
                if order.is_sequential() {
                    "keeps"
                } else {
                    "breaks"
                },
            );
            hashes.push(trained.final_hash);
        }
        let reproducible = hashes.iter().all(|&h| h == reference.final_hash);
        println!(
            "  -> {}\n",
            if reproducible {
                "REPRODUCIBLE: identical to sequential training on every GPU count"
            } else {
                "NOT reproducible: results depend on the GPU count"
            }
        );
    }

    // Bonus: a real multi-threaded CSP run. Thread timing varies between
    // executions, the result must not.
    println!("== threaded CSP runtime (real OS threads, 4 stages) ==");
    for attempt in 1..=3 {
        let res = RunSpec {
            window: 8,
            ..RunSpec::new(&space, subnets.clone(), train_cfg, 4)
        }
        .run()
        .expect("threaded run succeeds")
        .result;
        assert_eq!(res.final_hash, reference.final_hash);
        println!(
            "  run {attempt}: hash {:016x} == sequential",
            res.final_hash
        );
    }
    println!("  -> dependency preservation, not lockstep timing, gives reproducibility");
}

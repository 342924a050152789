//! The paper's §5.5 future applications, running: one NASPipe pipeline
//! traversing TWO search spaces simultaneously (hybrid traversal), plus
//! dynamic-depth (slimmable) subnets — both with full reproducibility.
//!
//! ```text
//! cargo run --release --example hybrid_traversal
//! ```

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, TrainConfig};
use naspipe_supernet::hybrid::{HybridSampler, HybridSpace, SlimmableSampler};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::ExplorationStrategy;
use naspipe_supernet::space::SearchSpace;

fn main() {
    // Two NLP search spaces of different shapes, embedded side by side.
    let small = SearchSpace::uniform(Domain::Nlp, 12, 8);
    let large = SearchSpace::uniform(Domain::Nlp, 24, 16);
    let hybrid = HybridSpace::new(&[&small, &large]);
    println!(
        "hybrid supernet: {} + {} = {} blocks, {:.1} GB parameters",
        small.num_blocks(),
        large.num_blocks(),
        hybrid.union().num_blocks(),
        hybrid.union().supernet_param_bytes() as f64 / 1e9,
    );

    // One interleaved exploration order over both spaces.
    let n = 60u64;
    let subnets = HybridSampler::new(&hybrid, 42).take_subnets(n as usize);
    let by_member: Vec<usize> = (0..hybrid.num_members())
        .map(|m| {
            subnets
                .iter()
                .filter(|s| hybrid.member_of(s) == Some(m))
                .count()
        })
        .collect();
    println!("exploration stream: {n} subnets, {by_member:?} per member space\n");

    let cfg = TrainConfig {
        seed: 42,
        residual_scale: 0.2,
        ..TrainConfig::default()
    };
    let mut member_hashes: Vec<Vec<u64>> = vec![Vec::new(); hybrid.num_members()];
    for gpus in [4u32, 8] {
        let pc = PipelineConfig::naspipe(gpus, n)
            .with_batch(32)
            .with_seed(42);
        let out = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(hybrid.union(), &pc)
        }
        .run()
        .unwrap();
        let trained = replay_training(hybrid.union(), &out, &cfg);
        println!(
            "{gpus} GPUs: bubble {:.2}, hit {:.1}%, full hash {:016x}",
            out.report.bubble_ratio,
            out.report.cache_hit_rate.unwrap_or(0.0) * 100.0,
            trained.final_hash,
        );
        for (m, hashes) in member_hashes.iter_mut().enumerate() {
            let h = trained.store.bitwise_hash_blocks(hybrid.member_range(m));
            println!("   member {m} slice hash {h:016x}");
            hashes.push(h);
        }
    }
    for (m, hashes) in member_hashes.iter().enumerate() {
        assert!(hashes.windows(2).all(|w| w[0] == w[1]));
        println!("member {m}: identical weights on 4 and 8 GPUs");
    }

    // Dynamic-depth subnets over one space (slimmable networks).
    println!("\nslimmable sampling over a 24-block space (min depth 8, skip prob 0.35):");
    let space = SearchSpace::uniform(Domain::Nlp, 24, 8);
    let slim = SlimmableSampler::new(&space, 8, 0.35, 7).take_subnets(48);
    let depths: Vec<usize> = slim.iter().map(|s| s.layers().count()).collect();
    println!(
        "  sampled depths: min {} max {} mean {:.1}",
        depths.iter().min().unwrap(),
        depths.iter().max().unwrap(),
        depths.iter().sum::<usize>() as f64 / depths.len() as f64,
    );
    let pc = PipelineConfig::naspipe(4, 48).with_batch(32).with_seed(7);
    let out = SimSpec {
        subnets: Some(slim),
        ..SimSpec::new(&space, &pc)
    }
    .run()
    .unwrap();
    let trained = replay_training(&space, &out, &cfg);
    println!(
        "  trained reproducibly: hash {:016x}, converged loss {:.4}",
        trained.final_hash,
        trained.converged_loss(),
    );
}

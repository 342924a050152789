//! Integration tests for the §5.5 future applications: hybrid traversal
//! of multiple search spaces and dynamic (slimmable) subnet training —
//! both riding on skip-choice semantics.

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::{PipelineOutcome, SimSpec};
use naspipe::core::repro::verify_csp_order;
use naspipe::core::train::{replay_training, TrainConfig};
use naspipe::supernet::hybrid::{HybridSampler, HybridSpace, SlimmableSampler};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::sampler::ExplorationStrategy;
use naspipe::supernet::space::SearchSpace;
use naspipe::supernet::subnet::Subnet;
use naspipe::tensor::data::SyntheticDataset;
use naspipe::tensor::model::{NumericSupernet, ParamStore};

/// Simulates `config` over an explicit subnet stream.
fn simulate(space: &SearchSpace, config: &PipelineConfig, subnets: Vec<Subnet>) -> PipelineOutcome {
    SimSpec {
        subnets: Some(subnets),
        ..SimSpec::new(space, config)
    }
    .run()
    .unwrap()
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        seed: 55,
        residual_scale: 0.25,
        ..TrainConfig::default()
    }
}

/// Hybrid traversal preserves CSP order and is reproducible across GPU
/// counts, with subnets of two member spaces interleaved in one pipeline.
#[test]
fn hybrid_training_is_reproducible() {
    let a = SearchSpace::uniform(Domain::Nlp, 8, 4);
    let b = SearchSpace::uniform(Domain::Nlp, 12, 3);
    let hybrid = HybridSpace::new(&[&a, &b]);
    let subnets = HybridSampler::new(&hybrid, 55).take_subnets(40);
    let cfg = train_cfg();
    let mut hashes = Vec::new();
    for gpus in [2u32, 4, 8] {
        let pc = PipelineConfig::naspipe(gpus, 40)
            .with_batch(16)
            .with_seed(55);
        let out = simulate(hybrid.union(), &pc, subnets.clone());
        verify_csp_order(&out).expect("CSP order with skips");
        hashes.push(replay_training(hybrid.union(), &out, &cfg).final_hash);
    }
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");
}

/// A member space's slice of the hybrid supernet trains to *exactly* the
/// weights it would get if its subnets ran alone: the other member's
/// subnets never touch it (isolation through skip semantics).
#[test]
fn hybrid_members_are_isolated() {
    let a = SearchSpace::uniform(Domain::Nlp, 8, 4);
    let b = SearchSpace::uniform(Domain::Nlp, 12, 3);
    let hybrid = HybridSpace::new(&[&a, &b]);
    let subnets = HybridSampler::new(&hybrid, 55).take_subnets(40);
    let cfg = train_cfg();

    // Full hybrid training.
    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(55);
    let out = simulate(hybrid.union(), &pc, subnets.clone());
    let full = replay_training(hybrid.union(), &out, &cfg);

    // Reference: train ONLY member 0's subnets (same IDs, same data)
    // sequentially on the union supernet.
    let member0: Vec<Subnet> = subnets
        .iter()
        .filter(|s| hybrid.member_of(s) == Some(0))
        .cloned()
        .collect();
    assert!(!member0.is_empty());
    let mut store = ParamStore::init(hybrid.union(), cfg.dim, cfg.seed);
    let mut engine = NumericSupernet::new(cfg.lr).with_residual_scale(cfg.residual_scale);
    let data = SyntheticDataset::new(cfg.seed, cfg.rows, cfg.dim);
    for s in &member0 {
        let (x, y) = data.step_batch(s.seq_id().0);
        engine.train_step(&mut store, s, &x, &y);
    }

    let range = hybrid.member_range(0);
    assert_eq!(
        full.store.bitwise_hash_blocks(range.clone()),
        store.bitwise_hash_blocks(range),
        "member 0's slice must be untouched by member 1's subnets"
    );
}

/// Slimmable (variable-depth) subnets train reproducibly through the
/// pipeline, and skipped blocks genuinely pass activations through.
#[test]
fn slimmable_training_is_reproducible() {
    let space = SearchSpace::uniform(Domain::Cv, 16, 4);
    let subnets = SlimmableSampler::new(&space, 4, 0.4, 9).take_subnets(40);
    // Verify depth actually varies in this stream.
    let depths: std::collections::BTreeSet<usize> =
        subnets.iter().map(|s| s.layers().count()).collect();
    assert!(depths.len() > 3, "expected varying depths, got {depths:?}");

    let cfg = train_cfg();
    let mut hashes = Vec::new();
    for gpus in [2u32, 8] {
        let pc = PipelineConfig::naspipe(gpus, 40)
            .with_batch(16)
            .with_seed(9);
        let out = simulate(&space, &pc, subnets.clone());
        verify_csp_order(&out).expect("CSP order with variable depth");
        hashes.push(replay_training(&space, &out, &cfg).final_hash);
    }
    assert_eq!(hashes[0], hashes[1]);
}

/// A fully-skipped stage is a pure pass-through: a subnet skipping a
/// whole stage range produces the same output as feeding the input
/// directly to the next active layer.
#[test]
fn skipped_blocks_pass_activations_through() {
    let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
    let store = ParamStore::init(&space, 8, 1);
    let engine = NumericSupernet::new(0.05);
    let data = SyntheticDataset::new(1, 4, 8);
    let (x, _) = data.step_batch(0);

    use naspipe::supernet::subnet::{SubnetId, SKIP_CHOICE};
    let with_skips = Subnet::new(SubnetId(0), vec![2, SKIP_CHOICE, SKIP_CHOICE, 1]);
    let dense_equiv = Subnet::new(SubnetId(0), vec![2, 1]);
    let small_space = SearchSpace::uniform(Domain::Nlp, 2, 3);
    let small_store = {
        // Same layers: block 0 choice 2 and block 3 choice 1 of the big
        // store, re-addressed as blocks 0 and 1.
        let mut s = ParamStore::init(&small_space, 8, 1);
        *s.layer_mut(naspipe::supernet::layer::LayerRef::new(0, 2)) = store
            .layer(naspipe::supernet::layer::LayerRef::new(0, 2))
            .clone();
        *s.layer_mut(naspipe::supernet::layer::LayerRef::new(1, 1)) = store
            .layer(naspipe::supernet::layer::LayerRef::new(3, 1))
            .clone();
        s
    };
    let (skipped_out, _) = engine.forward(&store, &with_skips, &x);
    let (dense_out, _) = engine.forward(&small_store, &dense_equiv, &x);
    assert_eq!(skipped_out, dense_out);
}

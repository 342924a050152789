//! Robustness tests: perturb the *timing* of the pipeline (compute
//! jitter, injected faults) and verify the *training result* is
//! untouched — the deepest consequence of dependency preservation.
//! Reproducibility under CSP comes from the causal order, not from any
//! timing assumption; the predictor's accuracy may degrade, correctness
//! may not.

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::{PipelineOutcome, SimSpec};
use naspipe::core::repro::verify_csp_order;
use naspipe::core::train::{replay_training, sequential_training, TrainConfig};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;
use naspipe::supernet::subnet::Subnet;

/// Simulates `config` over an explicit subnet stream.
fn simulate(space: &SearchSpace, config: &PipelineConfig, subnets: Vec<Subnet>) -> PipelineOutcome {
    SimSpec {
        subnets: Some(subnets),
        ..SimSpec::new(space, config)
    }
    .run()
    .unwrap()
}

fn setup() -> (
    SearchSpace,
    Vec<naspipe::supernet::subnet::Subnet>,
    TrainConfig,
) {
    let space = SearchSpace::uniform(Domain::Nlp, 16, 5);
    let subnets = UniformSampler::new(&space, 33).take_subnets(40);
    let cfg = TrainConfig {
        seed: 33,
        residual_scale: 0.2,
        ..TrainConfig::default()
    };
    (space, subnets, cfg)
}

/// Jitter changes the schedule (different task timings) but CSP's replay
/// stays bitwise equal to the sequential reference.
#[test]
fn jitter_changes_schedule_not_result() {
    let (space, subnets, cfg) = setup();
    let reference = sequential_training(&space, &subnets, &cfg);

    let clean = {
        let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(33);
        simulate(&space, &pc, subnets.clone())
    };
    let jittered = {
        let pc = PipelineConfig::naspipe(4, 40)
            .with_batch(16)
            .with_seed(33)
            .with_jitter(0.4);
        simulate(&space, &pc, subnets.clone())
    };
    assert_ne!(
        clean.tasks, jittered.tasks,
        "40% jitter should perturb the schedule"
    );
    verify_csp_order(&jittered).expect("CSP order holds under jitter");
    assert_eq!(
        replay_training(&space, &jittered, &cfg).final_hash,
        reference.final_hash,
        "timing perturbations must not change the training result"
    );
}

/// Faults + jitter together: the pipeline limps, the result is identical.
#[test]
fn faults_and_jitter_combined_stay_correct() {
    let (space, subnets, cfg) = setup();
    let reference = sequential_training(&space, &subnets, &cfg);
    for gpus in [2u32, 6] {
        let pc = PipelineConfig::naspipe(gpus, 40)
            .with_batch(16)
            .with_seed(33)
            .with_fault_rate(0.2)
            .with_jitter(0.3);
        let out = simulate(&space, &pc, subnets.clone());
        assert_eq!(out.report.subnets_completed, 40);
        assert!(out.report.faults_injected > 0);
        assert_eq!(
            replay_training(&space, &out, &cfg).final_hash,
            reference.final_hash,
            "{gpus} GPUs with faults+jitter diverged"
        );
    }
}

/// The predictor's hit rate may degrade under heavy jitter but stays
/// functional (prefetching is advisory, never load-bearing).
#[test]
fn predictor_degrades_gracefully_under_jitter() {
    let (space, subnets, _) = setup();
    let hit = |jitter: f64| {
        let pc = PipelineConfig::naspipe(4, 40)
            .with_batch(16)
            .with_seed(33)
            .with_jitter(jitter);
        simulate(&space, &pc, subnets.clone())
            .report
            .cache_hit_rate
            .unwrap()
    };
    let clean = hit(0.0);
    let noisy = hit(0.5);
    assert!(clean > 0.5, "baseline hit rate sane: {clean}");
    assert!(noisy > 0.3, "jittered hit rate still functional: {noisy}");
}

/// Jittered runs are themselves deterministic: the jitter is a pure
/// function of the seed.
#[test]
fn jitter_is_deterministic() {
    let (space, subnets, _) = setup();
    let run = || {
        let pc = PipelineConfig::naspipe(4, 40)
            .with_batch(16)
            .with_seed(33)
            .with_jitter(0.25);
        simulate(&space, &pc, subnets.clone())
    };
    assert_eq!(run().tasks, run().tasks);
}

/// The supervised runtime's fault matrix: across fault seeds, stage
/// counts and checkpoint intervals, a run that suffers a fatal stage
/// crash (plus transient channel faults) recovers through the
/// CSP-watermark checkpoint to a result bitwise equal to sequential
/// training — and replays the identical recovery schedule when re-run.
#[test]
fn fault_recovery_matrix_is_bitwise_exact_and_replayable() {
    use naspipe::core::fault::FaultPlan;
    use naspipe::core::repro::verify_csp_order_parts;
    use naspipe::core::runtime::{RecoveryOptions, RunSpec};

    let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
    let n = 24u64;
    let subnets = UniformSampler::new(&space, 17).take_subnets(n as usize);
    let cfg = TrainConfig {
        seed: 17,
        ..TrainConfig::default()
    };
    let reference = sequential_training(&space, &subnets, &cfg);

    for fault_seed in [1u64, 2, 3] {
        for gpus in [2u32, 4] {
            for interval in [4u64, 8] {
                let plan =
                    FaultPlan::seeded(fault_seed, gpus, n, interval, 1, 2).with_backoff_us(10);
                let opts = RecoveryOptions {
                    fault_plan: plan,
                    checkpoint_interval: interval,
                    max_restarts: 3,
                    recv_timeout_ms: None,
                };
                let tag = format!("seed {fault_seed}, {gpus} stages, C={interval}");
                let spec = RunSpec {
                    recovery: opts,
                    ..RunSpec::new(&space, subnets.clone(), cfg, gpus)
                };
                let run = spec
                    .clone()
                    .run()
                    .unwrap_or_else(|e| panic!("{tag}: failed to recover: {e}"));
                assert_eq!(
                    run.result.final_hash, reference.final_hash,
                    "{tag}: recovered run diverged from sequential"
                );
                assert_eq!(
                    run.result.losses, reference.losses,
                    "{tag}: losses diverged"
                );
                assert!(
                    run.recovery.restarts >= 1,
                    "{tag}: plan has a fatal fault, so at least one restart"
                );
                verify_csp_order_parts(&run.subnets, &run.tasks).unwrap_or_else(|(l, o)| {
                    panic!("{tag}: CSP violated at {l}: {}", o.notation())
                });

                // Determinism: the same seeded plan replays the same
                // faults and the same recovery schedule.
                let again = spec
                    .run()
                    .unwrap_or_else(|e| panic!("{tag}: rerun failed: {e}"));
                assert_eq!(again.result.final_hash, reference.final_hash);
                assert_eq!(
                    run.recovery.schedule(),
                    again.recovery.schedule(),
                    "{tag}: recovery schedule must be reproducible"
                );
            }
        }
    }
}

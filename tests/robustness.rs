//! Robustness tests: perturb the *timing* of the pipeline (compute
//! jitter, injected faults) through the DES's cost hook and verify the
//! *training result* is untouched — the deepest consequence of
//! dependency preservation. Reproducibility under CSP comes from the
//! causal order, not from any timing assumption; the predictor's
//! accuracy may degrade, correctness may not.

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::{PipelineOutcome, SimSpec, TaskCost};
use naspipe::core::repro::verify_csp_order;
use naspipe::core::task::TaskKind;
use naspipe::core::train::{replay_training, sequential_training, TrainConfig};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::rng::DetRng;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;
use naspipe::supernet::subnet::Subnet;
use std::cell::Cell;

/// Simulates `config` over an explicit subnet stream, pricing every
/// reservation with `cost`.
fn simulate(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
    cost: impl Fn(TaskCost) -> f64,
) -> PipelineOutcome {
    SimSpec {
        subnets: Some(subnets),
        cost: &cost,
        ..SimSpec::new(space, config)
    }
    .run()
    .unwrap()
}

/// A uniform draw in `[0, 1)` that is a pure function of the seed and
/// the reservation's identity. The identity is split in twice — subnet,
/// then stage and kind — so no two `(subnet, stage, kind)` share a
/// draw at any pipeline depth.
fn draw(seed: u64, t: &TaskCost, salt: u64) -> f64 {
    let where_ = (u64::from(t.stage.0) << 1) | u64::from(t.kind == TaskKind::Backward);
    DetRng::new(seed)
        .split(salt)
        .split(t.subnet.0)
        .split(where_)
        .next_f64()
}

/// Seeded compute noise: each price scaled uniformly in `[1 - j, 1 + j]`.
fn jitter(seed: u64, j: f64) -> impl Fn(TaskCost) -> f64 {
    move |t| t.catalog_ms * (1.0 + j * (2.0 * draw(seed, &t, 1) - 1.0))
}

/// Seeded faults in the paper's §4.2 style: with probability `rate` a
/// task fails 60 % of the way in and is re-executed, so it holds its
/// stage for 1.6x its price. `fired` counts the retries.
fn retrying<'a>(
    seed: u64,
    rate: f64,
    fired: &'a Cell<u64>,
    price: impl Fn(TaskCost) -> f64 + 'a,
) -> impl Fn(TaskCost) -> f64 + 'a {
    move |t| {
        let ms = price(t);
        if draw(seed, &t, 2) < rate {
            fired.set(fired.get() + 1);
            ms * 1.6
        } else {
            ms
        }
    }
}

/// The draws stay distinct past 128 stages, where tags built by shifting
/// the subnet id over the stage once collided (subnet 0 at stage 128 drew
/// subnet 1 at stage 0's number).
#[test]
fn seeded_draws_never_collide_across_subnets_and_stages() {
    let mut seen = std::collections::HashSet::new();
    for subnet in 0..8 {
        for stage in 0..512 {
            for kind in [TaskKind::Forward, TaskKind::Backward] {
                let t = TaskCost {
                    subnet: naspipe::supernet::subnet::SubnetId(subnet),
                    stage: naspipe::core::task::StageId(stage),
                    kind,
                    catalog_ms: 1.0,
                };
                assert!(seen.insert(draw(33, &t, 1).to_bits()), "{t:?}");
            }
        }
    }
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

    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(33);
    let clean = simulate(&space, &pc, subnets.clone(), |t| t.catalog_ms);
    let jittered = simulate(&space, &pc, subnets.clone(), jitter(33, 0.4));
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
            .with_seed(33);
        let retries = Cell::new(0);
        let cost = retrying(33, 0.2, &retries, jitter(33, 0.3));
        let out = simulate(&space, &pc, subnets.clone(), cost);
        assert_eq!(out.report.subnets_completed, 40);
        assert!(retries.get() > 0);
        assert_eq!(
            replay_training(&space, &out, &cfg).final_hash,
            reference.final_hash,
            "{gpus} GPUs with faults+jitter diverged"
        );
    }
}

/// Retried tasks cost time, never determinism: the run is slower than a
/// clean one and identical to itself.
#[test]
fn retries_slow_the_run_deterministically() {
    let (space, subnets, _) = setup();
    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(33);
    let retries = Cell::new(0);
    let run = || {
        simulate(
            &space,
            &pc,
            subnets.clone(),
            retrying(33, 0.3, &retries, |t| t.catalog_ms),
        )
    };
    let clean = simulate(&space, &pc, subnets.clone(), |t| t.catalog_ms);
    let faulty = run();
    assert!(retries.get() > 0);
    assert!(faulty.report.makespan_secs > clean.report.makespan_secs);
    assert_eq!(faulty.tasks, run().tasks);
}

/// The predictor's hit rate may degrade under heavy jitter but stays
/// functional (prefetching is advisory, never load-bearing).
#[test]
fn predictor_degrades_gracefully_under_jitter() {
    let (space, subnets, _) = setup();
    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(33);
    let hit = |j: f64| {
        simulate(&space, &pc, subnets.clone(), jitter(33, j))
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
    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(33);
    let run = || simulate(&space, &pc, subnets.clone(), jitter(33, 0.25));
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

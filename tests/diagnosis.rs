//! The always-on diagnosis layer must never change results: flight
//! recorder + watchdog enabled vs. disabled produce bitwise-identical
//! schedules, reports, and trained parameters on both engines; clean
//! runs trip no detector; and the DES watchdog's verdicts are a pure
//! function of the configuration (identical across repeated runs and,
//! via the CI `NASPIPE_THREADS` matrix, across compute-pool sizes).

use naspipe::core::config::{DiagnosticsOptions, PipelineConfig};
use naspipe::core::fault::FaultPlan;
use naspipe::core::pipeline::{SimSpec, TaskCost};
use naspipe::core::replay_gate::loss_digest;
use naspipe::core::runtime::{RecoveryOptions, RunSpec};
use naspipe::core::task::TaskKind;
use naspipe::core::train::TrainConfig;
use naspipe::obs::WatchdogVerdictKind;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};

fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        residual_scale: 0.2,
        ..TrainConfig::default()
    }
}

#[test]
fn des_flight_and_watchdog_are_bitwise_inert() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let on_cfg = PipelineConfig::naspipe(4, 24).with_seed(7);
    assert!(on_cfg.diagnostics.enabled, "diagnosis layer is always-on");
    let off_cfg = on_cfg
        .clone()
        .with_diagnostics(DiagnosticsOptions::disabled());

    let on = SimSpec::new(&space, &on_cfg).run().unwrap();
    let off = SimSpec::new(&space, &off_cfg).run().unwrap();

    assert_eq!(on.tasks, off.tasks, "schedule must not depend on recording");
    assert_eq!(
        on.report, off.report,
        "metrics must not depend on recording"
    );
    assert_eq!(on.spans, off.spans, "spans must not depend on recording");
    assert_eq!(on.obs.stages, off.obs.stages);

    // The recorder did observe the run — it is inert, not absent.
    assert!(!on.obs.flight.is_empty(), "flight ring must have recorded");
    assert!(
        off.obs.flight.is_empty(),
        "disabled run must record nothing"
    );
    assert!(
        on.obs.watchdog.is_empty(),
        "clean run must trip no detector"
    );
}

#[test]
fn threaded_flight_and_watchdog_are_bitwise_inert() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let subnets = UniformSampler::new(&space, 7).take_subnets(16);
    let run = |diag: &DiagnosticsOptions| {
        RunSpec {
            diagnostics: diag.clone(),
            ..RunSpec::new(&space, subnets.clone(), train_cfg(7), 4)
        }
        .run()
        .unwrap()
    };
    let on = run(&DiagnosticsOptions::default());
    let off = run(&DiagnosticsOptions::disabled());

    assert_eq!(on.result.final_hash, off.result.final_hash);
    assert_eq!(on.result.losses, off.result.losses);
    assert_eq!(
        loss_digest(&on.result.losses),
        loss_digest(&off.result.losses)
    );
    assert!(
        !on.report.flight.is_empty(),
        "flight ring must have recorded"
    );
    assert!(off.report.flight.is_empty());
    assert!(on.report.watchdog.is_empty(), "clean run must trip nothing");
}

#[test]
fn clean_runs_trip_no_watchdog_across_seeds() {
    for seed in [0, 7, 42, 123] {
        for gpus in [2, 4] {
            let space = SearchSpace::from_id(SpaceId::NlpC2);
            let cfg = PipelineConfig::naspipe(gpus, 12).with_seed(seed);
            let outcome = SimSpec::new(&space, &cfg).run().unwrap();
            assert!(
                outcome.obs.watchdog.is_empty(),
                "seed {seed} x {gpus} GPUs tripped: {:?}",
                outcome.obs.watchdog
            );
        }
    }
}

#[test]
fn des_straggler_verdict_is_deterministic() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let cfg = PipelineConfig::naspipe(4, 24).with_seed(7);
    let slow_stage_1 = |t: TaskCost| t.catalog_ms * if t.stage.0 == 1 { 8.0 } else { 1.0 };
    let run = || {
        let spec = SimSpec {
            cost: &slow_stage_1,
            ..SimSpec::new(&space, &cfg)
        };
        spec.run().unwrap()
    };

    let a = run();
    let b = run();

    let straggler = a
        .obs
        .watchdog
        .iter()
        .find(|v| v.kind == WatchdogVerdictKind::Straggler)
        .expect("an 8x slow stage must trip the straggler detector");
    assert_eq!(straggler.stage, 1, "the planted stage is charged");
    // Verdicts are simulated-time observations: bitwise identical across
    // runs (and across NASPIPE_THREADS — the CI matrix reruns this).
    assert_eq!(a.obs.watchdog, b.obs.watchdog);
    assert!(!a.obs.watchdog.is_empty());
}

/// The paper's 8 hosts x 4 GPUs on NLP.c1 with stage 5 slowed 8x: the
/// straggler detector's peer median is taken over 31 paces on every
/// sample of the run. The full verdict list — kind, stage, trip time and
/// evidence — is pinned, so a detector change that moves any verdict, or
/// adds one anywhere in the run, fails here.
#[test]
fn des_verdicts_at_paper_scale_are_pinned() {
    let space = SearchSpace::from_id(SpaceId::NlpC1);
    let cfg = PipelineConfig::naspipe(32, 400).with_seed(7);
    let slow_stage_5 = |t: TaskCost| t.catalog_ms * if t.stage.0 == 5 { 8.0 } else { 1.0 };
    let out = SimSpec {
        cost: &slow_stage_5,
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .unwrap();
    let got: Vec<_> = out
        .obs
        .watchdog
        .iter()
        .map(|v| (v.kind, v.stage, v.at_us, v.detail.as_str()))
        .collect();
    assert_eq!(
        got,
        [(
            WatchdogVerdictKind::Straggler,
            5,
            201_366,
            "mean task 70819us vs peer median 9463us"
        )]
    );
}

#[test]
fn threaded_seeded_slow_stage_trips_straggler() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let subnets = UniformSampler::new(&space, 7).take_subnets(12);
    let opts = RecoveryOptions {
        fault_plan: FaultPlan::new().slow(1, 3, TaskKind::Forward, 400).slow(
            1,
            6,
            TaskKind::Forward,
            400,
        ),
        ..RecoveryOptions::default()
    };
    let run = RunSpec {
        recovery: opts,
        ..RunSpec::new(&space, subnets, train_cfg(7), 4)
    }
    .run()
    .unwrap();
    let straggler = run
        .report
        .watchdog
        .iter()
        .find(|v| v.kind == WatchdogVerdictKind::Straggler)
        .expect("an injected 800ms delay must trip the straggler detector");
    assert_eq!(straggler.stage, 1, "the delayed stage is charged");
}

//! The always-on diagnosis layer must never change results: flight
//! recorder + watchdog enabled vs. disabled produce bitwise-identical
//! schedules, reports, and trained parameters on both engines; clean
//! runs trip no detector; the DES watchdog's verdicts are a pure
//! function of the configuration (identical across repeated runs and,
//! via the CI `NASPIPE_THREADS` matrix, across compute-pool sizes); and
//! `naspipe doctor`'s diagnosis names regressions planted in the DES.

use naspipe::core::config::{DiagnosticsOptions, PipelineConfig};
use naspipe::core::fault::FaultPlan;
use naspipe::core::pipeline::{SimSpec, TaskCost};
use naspipe::core::replay_gate::loss_digest;
use naspipe::core::runtime::{RecoveryOptions, RunSpec};
use naspipe::core::task::TaskKind;
use naspipe::core::train::TrainConfig;
use naspipe::obs::{diagnose, AttrClass, Diagnosis, NullTracer, SpanTrace, WatchdogVerdictKind};
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

/// Past 48 stages NLP.c1 (48 blocks) leaves stages with empty slices,
/// whose tasks take 0 us. They must not vote a peer median of 0: at 64
/// GPUs that tripped 31 clean stages as stragglers.
#[test]
fn a_pipeline_deeper_than_its_blocks_trips_no_straggler() {
    let space = SearchSpace::from_id(SpaceId::NlpC1);
    let cfg = PipelineConfig::naspipe(64, 1000).with_seed(2022);
    let out = SimSpec {
        tracer: Box::new(NullTracer),
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .unwrap();
    assert!(
        out.obs.watchdog.is_empty(),
        "a clean 64-GPU run tripped: {:?}",
        out.obs.watchdog
    );
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
/// adds one anywhere in the run, fails here. Re-recorded once, when a
/// stage's PCIe link began serving demanded transfers ahead of queued
/// prefetches (peers wait less on fetches, so their pace fell): the
/// verdict was at 201 366 us against a peer median of 9463 us.
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
            203_297,
            "mean task 70819us vs peer median 9375us"
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

/// NLP.c2 on 4 stages, 24 subnets, each task priced by `cost`: the span
/// trace the doctor reads.
fn priced_trace(cost: impl Fn(TaskCost) -> f64) -> SpanTrace {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let cfg = PipelineConfig::naspipe(4, 24).with_seed(7);
    SimSpec {
        subnets: Some(UniformSampler::new(&space, 2022).take_subnets(24)),
        cost: &cost,
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .unwrap()
    .spans
}

/// The doctor's diagnosis of the run priced by `cost` against the clean
/// one; its class deltas sum exactly to its makespan delta.
fn against_clean(cost: impl Fn(TaskCost) -> f64) -> Diagnosis {
    let d = diagnose(&priced_trace(|t| t.catalog_ms), &priced_trace(cost), 5);
    assert_eq!(d.class_delta_sum_us(), d.makespan_delta_us());
    d
}

/// Two regressions planted through the DES's cost hook are diagnosed to
/// their causes against one clean baseline. Every stage's compute x3 (a
/// lost SIMD path) is the `kernel` verdict with compute dominant. Stage
/// 2 x8 tops the straggler ranking and the exported-stall ranking, with
/// the stall it exports grown: it keeps itself busy, so on the critical
/// path it is compute, and the idle it plants in its peers shows only in
/// the exporter ranking.
#[test]
fn planted_regressions_are_diagnosed_with_exact_attribution() {
    let throttled = against_clean(|t| t.catalog_ms * 3.0);
    assert_eq!(throttled.verdict, "kernel", "{}", throttled.render_text());
    assert_eq!(throttled.dominant, AttrClass::Compute);
    assert!(
        throttled.makespan_delta_us() > 0,
        "3x compute slows the run"
    );

    let slow = against_clean(|t| t.catalog_ms * if t.stage.0 == 2 { 8.0 } else { 1.0 });
    let text = slow.render_text();
    assert_eq!(slow.stragglers.first().map(|s| s.stage), Some(2), "{text}");
    let top_exporter = slow.exporters.first().expect("stages exist");
    assert_eq!(top_exporter.stage, 2, "{text}");
    assert!(top_exporter.delta_us() > 0, "{text}");
}

/// Twin runs diagnose to nothing: no delta, and no span shifted.
#[test]
fn identical_runs_diagnose_to_zero_delta() {
    let d = against_clean(|t| t.catalog_ms);
    assert_eq!(d.makespan_delta_us(), 0);
    assert!(d.shifts.is_empty(), "no span may shift between twin runs");
}

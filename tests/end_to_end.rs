//! Cross-crate integration tests: the full NASPipe workflow from search
//! space to trained, searched, bitwise-reproducible supernet.

use naspipe::baselines::SystemKind;
use naspipe::core::config::{PipelineConfig, SyncPolicy};
use naspipe::core::pipeline::{PipelineError, PipelineOutcome, SimSpec};
use naspipe::core::repro::verify_csp_order;
use naspipe::core::runtime::RunSpec;
use naspipe::core::train::{replay_training, search_best_subnet, sequential_training, TrainConfig};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
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

fn train_cfg() -> TrainConfig {
    TrainConfig {
        seed: 77,
        residual_scale: 0.2,
        ..TrainConfig::default()
    }
}

/// The artifact's Experiment 1: training outputs in full floating-point
/// precision match between the 1-GPU and 4-GPU settings, step by step.
#[test]
fn artifact_experiment_1_single_vs_four_gpus() {
    let space = SearchSpace::uniform(Domain::Nlp, 24, 8);
    let subnets = UniformSampler::new(&space, 77).take_subnets(60);
    let cfg = train_cfg();
    let single = {
        let pc = PipelineConfig::naspipe(1, 60).with_batch(16).with_seed(77);
        let out = simulate(&space, &pc, subnets.clone());
        replay_training(&space, &out, &cfg)
    };
    let four = {
        let pc = PipelineConfig::naspipe(4, 60).with_batch(16).with_seed(77);
        let out = simulate(&space, &pc, subnets.clone());
        replay_training(&space, &out, &cfg)
    };
    assert_eq!(single.losses.len(), four.losses.len());
    for (a, b) in single.losses.iter().zip(&four.losses) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "step {} loss differs", a.0);
    }
    assert_eq!(single.final_hash, four.final_hash);
}

/// The artifact's Experiment 2: training throughput orders by search-space
/// size, T(NLP.c0) > T(NLP.c1) > T(NLP.c2) > T(NLP.c3), because larger
/// spaces have fewer causal dependencies between chronologically close
/// subnets.
#[test]
fn artifact_experiment_2_throughput_ordering() {
    let mut throughputs = Vec::new();
    for id in [
        SpaceId::NlpC0,
        SpaceId::NlpC1,
        SpaceId::NlpC2,
        SpaceId::NlpC3,
    ] {
        let space = SearchSpace::from_id(id);
        let subnets = UniformSampler::new(&space, 1).take_subnets(64);
        let cfg = PipelineConfig::naspipe(4, 64).with_seed(1);
        let out = simulate(&space, &cfg, subnets);
        throughputs.push((id, out.report.throughput_samples_per_sec()));
    }
    for pair in throughputs.windows(2) {
        assert!(
            pair[0].1 > pair[1].1,
            "throughput must fall with space size: {pair:?}"
        );
    }
}

/// End-to-end NAS: pipeline-train, replay, search — twice — and get the
/// identical searched architecture.
#[test]
fn search_after_training_is_deterministic() {
    let space = SearchSpace::uniform(Domain::Cv, 16, 6);
    let subnets = UniformSampler::new(&space, 5).take_subnets(50);
    let cfg = train_cfg();
    let run = |gpus: u32| {
        let pc = PipelineConfig::naspipe(gpus, 50)
            .with_batch(16)
            .with_seed(5);
        let out = simulate(&space, &pc, subnets.clone());
        let trained = replay_training(&space, &out, &cfg);
        search_best_subnet(&space, &trained.store, &cfg, 40)
    };
    let (loss_a, best_a) = run(2);
    let (loss_b, best_b) = run(8);
    assert_eq!(
        best_a, best_b,
        "different GPU counts found different architectures"
    );
    assert_eq!(loss_a, loss_b);
}

/// Every synchronisation policy trains every Table 2 space end to end
/// (with swapping where needed).
#[test]
fn all_systems_run_all_table2_spaces() {
    for id in SpaceId::TABLE2 {
        let space = SearchSpace::from_id(id);
        for system in SystemKind::ALL {
            let subnets = UniformSampler::new(&space, 9).take_subnets(8);
            match system.run(&space, 8, subnets) {
                Ok(out) => assert_eq!(out.report.subnets_completed, 8, "{system} on {id}"),
                Err(PipelineError::OutOfMemory { .. }) => {
                    panic!("{system} should hold {id} on 8 GPUs")
                }
                Err(e) => panic!("{system} on {id}: {e}"),
            }
        }
    }
}

/// CSP order verification passes for the simulated engine and the result
/// matches the threaded runtime and the sequential reference — three
/// implementations, one answer.
#[test]
fn three_runtimes_one_answer() {
    let space = SearchSpace::uniform(Domain::Nlp, 12, 5);
    let subnets = UniformSampler::new(&space, 13).take_subnets(40);
    let cfg = train_cfg();

    let sequential = sequential_training(&space, &subnets, &cfg);

    let pc = PipelineConfig::naspipe(4, 40).with_batch(16).with_seed(13);
    let out = simulate(&space, &pc, subnets.clone());
    verify_csp_order(&out).expect("CSP order holds");
    let simulated = replay_training(&space, &out, &cfg);

    let threaded = RunSpec {
        window: 10,
        ..RunSpec::new(&space, subnets, cfg, 4)
    }
    .run()
    .expect("threaded run succeeds")
    .result;

    assert_eq!(sequential.final_hash, simulated.final_hash);
    assert_eq!(sequential.final_hash, threaded.final_hash);
}

/// Reproducibility holds when crossing host boundaries in the simulated
/// cluster (more than 4 GPUs spans the Ethernet link).
#[test]
fn reproducible_across_host_boundary() {
    let space = SearchSpace::uniform(Domain::Nlp, 16, 4);
    let subnets = UniformSampler::new(&space, 21).take_subnets(30);
    let cfg = train_cfg();
    let hashes: Vec<u64> = [2u32, 6, 12]
        .into_iter()
        .map(|gpus| {
            let pc = PipelineConfig::naspipe(gpus, 30)
                .with_batch(16)
                .with_seed(21);
            let out = simulate(&space, &pc, subnets.clone());
            replay_training(&space, &out, &cfg).final_hash
        })
        .collect();
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");
}

/// BSP and ASP do *not* pass the same bar: their replays differ from the
/// sequential reference on this conflict-heavy workload.
#[test]
fn baselines_break_reproducibility() {
    let space = SearchSpace::uniform(Domain::Nlp, 12, 3);
    let subnets = UniformSampler::new(&space, 31).take_subnets(40);
    let cfg = train_cfg();
    let sequential = sequential_training(&space, &subnets, &cfg);
    for policy in [
        SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        },
        SyncPolicy::Asp,
    ] {
        let pc = PipelineConfig::naspipe(8, 40)
            .with_batch(16)
            .with_policy(policy)
            .with_seed(31);
        let out = simulate(&space, &pc, subnets.clone());
        let replay = replay_training(&space, &out, &cfg);
        assert_ne!(
            replay.final_hash, sequential.final_hash,
            "{policy:?} unexpectedly matched the sequential reference"
        );
    }
}

fn digest(text: &str) -> u64 {
    naspipe::tensor::hash::fnv1a(naspipe::tensor::hash::FNV_OFFSET, text.as_bytes())
}

/// The parameter fingerprint as it was defined when the pinned store
/// hashes below were recorded: byte-serial FNV-1a over every f32's
/// little-endian bytes, weight then bias, in block/choice order.
fn byte_serial_store_hash(space: &SearchSpace, store: &naspipe::tensor::model::ParamStore) -> u64 {
    use naspipe::supernet::layer::LayerRef;
    let mut h = naspipe::tensor::hash::FNV_OFFSET;
    for (b, block) in space.blocks().iter().enumerate() {
        for c in 0..block.num_choices() {
            let p = store.layer(LayerRef::new(b as u32, c));
            for x in p.weight.data().iter().chain(p.bias.data()) {
                h = naspipe::tensor::hash::fnv1a(h, &x.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The four harness-pinned shims are their specs: same seed in, same
/// result out, row by row — and a bare spec is what the deleted
/// `run_threaded(.., 0)` / `run_pipeline` were (values recorded on the
/// commit before the entry-point tower was removed). The one place
/// outside the two engine files allowed to name the shims; it goes when
/// they do (ROADMAP 1c).
#[test]
fn shims_are_their_specs_and_bare_specs_are_the_old_defaults() {
    use naspipe::core::config::DiagnosticsOptions;
    use naspipe::core::fault::FaultPlan;
    use naspipe::core::pipeline::{
        run_pipeline_telemetry, run_pipeline_with_subnets, run_pipeline_with_tracer,
    };
    use naspipe::core::repro::verify_csp_order_parts;
    use naspipe::core::runtime::{run_threaded_diagnosed, DurableOptions, RecoveryOptions};
    use naspipe::core::task::TaskKind;
    use naspipe::obs::{NullTracer, SpanTracer, TelemetryHub, TelemetryOptions, Tracer};
    use std::sync::Arc;

    // Threaded: (shim window, recovery, telemetry, durable, diagnostics).
    let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
    let subnets = UniformSampler::new(&space, 99).take_subnets(16);
    let cfg = train_cfg();
    let dir = std::env::temp_dir().join(format!("naspipe-shim-eq-{}", std::process::id()));
    let recovering = RecoveryOptions {
        fault_plan: FaultPlan::new().panic_on(1, 9, TaskKind::Backward),
        checkpoint_interval: 4,
        max_restarts: 2,
        recv_timeout_ms: None,
    };
    let checkpointed = RecoveryOptions {
        checkpoint_interval: 8,
        ..RecoveryOptions::default()
    };
    let hub = || TelemetryOptions::new(Arc::new(TelemetryHub::new(3, 0)));
    let threaded_rows = [
        (
            "bare",
            0,
            RecoveryOptions::default(),
            None,
            None,
            DiagnosticsOptions::default(),
        ),
        (
            "recovering",
            5,
            recovering,
            None,
            None,
            DiagnosticsOptions::default(),
        ),
        (
            "instrumented",
            0,
            checkpointed,
            Some(hub()),
            Some(DurableOptions::new(&dir)),
            DiagnosticsOptions::disabled(),
        ),
    ];
    for (name, window, recovery, telemetry, durable, diagnostics) in threaded_rows {
        let _ = std::fs::remove_dir_all(&dir);
        let shim = run_threaded_diagnosed(
            &space,
            subnets.clone(),
            &cfg,
            3,
            window,
            &recovery,
            telemetry.as_ref(),
            durable.as_ref(),
            &diagnostics,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = RunSpec::new(&space, subnets.clone(), cfg, 3);
        if window != 0 {
            spec.window = window;
        }
        // A hub is one run's ledger: the spec run gets a fresh one.
        (
            spec.recovery,
            spec.telemetry,
            spec.durable,
            spec.diagnostics,
        ) = (recovery, telemetry.map(|_| hub()), durable, diagnostics);
        let run = spec.run().unwrap();
        assert_eq!(shim.result.final_hash, run.result.final_hash, "{name}");
        assert_eq!(shim.result.losses, run.result.losses, "{name}");
        assert_eq!(shim.recovery.schedule(), run.recovery.schedule(), "{name}");
        for (who, r) in [("shim", &shim), ("spec", &run)] {
            verify_csp_order_parts(&r.subnets, &r.tasks).unwrap_or_else(|(l, o)| {
                panic!("{name}/{who}: CSP violated at {l}: {}", o.notation())
            });
        }
        if name == "bare" {
            assert_eq!(
                byte_serial_store_hash(&space, &run.result.store),
                0xecda_14f0_b60c_f987,
                "old run_threaded(.., 0)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // DES: Null / Span / SpanHub, the harness's three rungs.
    let space = SearchSpace::nlp_c2();
    let pc = PipelineConfig::naspipe(4, 24).with_seed(7);
    let subnets = UniformSampler::new(&space, 7).take_subnets(24);
    let topts = TelemetryOptions::new(Arc::new(TelemetryHub::new(4, 0)));
    let null = || Box::new(NullTracer) as Box<dyn Tracer>;
    let span = || Box::new(SpanTracer::new()) as Box<dyn Tracer>;
    let des_rows = [
        (
            "null",
            run_pipeline_with_tracer(&space, &pc, subnets.clone(), null()),
            SimSpec {
                subnets: Some(subnets.clone()),
                tracer: null(),
                ..SimSpec::new(&space, &pc)
            },
        ),
        (
            "span",
            run_pipeline_with_subnets(&space, &pc, subnets.clone()),
            SimSpec {
                subnets: Some(subnets.clone()),
                ..SimSpec::new(&space, &pc)
            },
        ),
        (
            "span-hub",
            run_pipeline_telemetry(&space, &pc, subnets.clone(), span(), Some(&topts)),
            SimSpec {
                subnets: Some(subnets.clone()),
                telemetry: Some(&topts),
                ..SimSpec::new(&space, &pc)
            },
        ),
    ];
    for (name, shim, spec) in des_rows {
        let (shim, out) = (shim.unwrap(), spec.run().unwrap());
        assert_eq!(shim.report, out.report, "{name}");
        assert_eq!(
            digest(&format!("{:?}", shim.tasks)),
            digest(&format!("{:?}", out.tasks)),
            "{name}"
        );
        assert_eq!(shim.spans.spans().len(), out.spans.spans().len(), "{name}");
    }
    // The default stream is `config.num_subnets` uniform draws from
    // `config.seed` — what `run_pipeline` sampled.
    let out = SimSpec::new(&space, &pc).run().unwrap();
    // `calls` and `scanned` count dispatch attempts, not simulated
    // quantities: zeroed, as `des_schedule_pin` does, so a change to which
    // stages an event wakes leaves the digest alone. The report lost
    // `faults_injected` (always 0 here) with the DES fault path; the
    // digest covers the text it was recorded over.
    let mut report = out.report.clone();
    report.scheduler_stats.calls = 0;
    report.scheduler_stats.scanned = 0;
    let report = format!("{report:?}").replacen(
        "stage_idle_blocked_secs",
        "faults_injected: 0, stage_idle_blocked_secs",
        1,
    );
    assert_eq!(digest(&report), 0x4bbf_fbb8_0354_d39c);
    assert_eq!(digest(&format!("{:?}", out.tasks)), 0xf9aa_4e32_a021_6eb1);
    // 3853 while each of the run's evictions was a span of its own.
    assert_eq!(out.spans.spans().len(), 1940);
    assert_eq!(out.report.cache_stats.evictions, 3853 - 1940);
}

/// `--gpus 0` reaches the threaded engine from outside: it must come back
/// as the typed spec error (exit 1, one line on stderr), like the DES's
/// `invalid configuration`, not as an `assert!` backtrace (exit 101).
#[test]
fn cli_threaded_zero_gpus_is_an_error_not_a_panic() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_naspipe"))
        .args([
            "train", "--space", "NLP.c2", "--engine", "threaded", "--gpus", "0",
        ])
        .output()
        .expect("naspipe runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr, "invalid run spec: gpus must be positive\n");
    assert!(!stderr.contains("panicked"));
    assert!(out.stdout.is_empty());
}

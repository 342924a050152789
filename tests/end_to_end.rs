//! Cross-crate integration tests: the full NASPipe workflow from search
//! space to trained, searched, bitwise-reproducible supernet.

use naspipe::baselines::SystemKind;
use naspipe::core::config::{PipelineConfig, SyncPolicy};
use naspipe::core::pipeline::{PipelineError, PipelineOutcome, SimSpec};
use naspipe::core::replay_gate::{self, Divergence, GateReport, GoldenCase};
use naspipe::core::repro::verify_csp_order;
use naspipe::core::runtime::RunSpec;
use naspipe::core::train::{replay_training, search_best_subnet, sequential_training, TrainConfig};
use naspipe::core::transcript::Transcript;
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
/// they do (the deletion that follows ROADMAP 1(a)).
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
    // Re-recorded three times. When a CSP backward became an input half
    // and an update half, the digests were 0x4bbf_fbb8_0354_d39c and
    // 0xf9aa_4e32_a021_6eb1, the trace 1940 spans, the evictions 1913.
    // When an idle stage began recomputing ahead of the backward wave,
    // they were 0x8ab0_8e53_f786_a6fb and 0xf302_1862_c571_747a, 1945
    // spans and 1736 evictions. The report digest was 0x77db_4cfe_0328_d029
    // until a stage's reserved recompute stopped counting as its idle
    // time (`stage_idle_*` moved; the tasks digest did not). When an idle
    // stage began recomputing ahead only while its compute is free, they
    // were 0xcd24_ea12_7527_5f2b and 0xb1ba_ec03_0cf4_7377, 1951 spans
    // and 1765 evictions. When a stage's PCIe link began serving demanded
    // transfers ahead of queued prefetches, they were
    // 0x2389_3ded_7349_4c96 and 0xa2f6_1836_8d4c_4b22, 1934 spans and
    // 1736 evictions.
    assert_eq!(digest(&report), 0x335e_c4aa_6e34_1536);
    assert_eq!(digest(&format!("{:?}", out.tasks)), 0xd94e_c492_c9d9_6cc9);
    // 1940 + 1913 = 3853 while each eviction was a span of its own.
    assert_eq!(out.spans.spans().len(), 1933);
    assert_eq!(out.report.cache_stats.evictions, 1725);
}

/// `--gpus 0` and `--subnets 0` reach the threaded engine from outside:
/// each must come back as the typed spec error (exit 1, one line on
/// stderr), like the DES's `invalid configuration`, not as an `assert!`
/// backtrace (exit 101) or an empty run that "converged" (exit 0).
#[test]
fn cli_threaded_zero_gpus_is_an_error_not_a_panic() {
    for (flag, why) in [
        ("--gpus", "gpus must be positive"),
        ("--subnets", "subnets must be non-empty"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_naspipe"))
            .args([
                "train", "--space", "NLP.c2", "--engine", "threaded", flag, "0",
            ])
            .output()
            .expect("naspipe runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: stderr: {stderr}");
        assert_eq!(stderr, format!("invalid run spec: {why}\n"));
        assert!(!stderr.contains("panicked"));
        assert!(out.stdout.is_empty(), "{flag} 0");
    }
}

/// `train --engine threaded --transcript` writes the run's record, which
/// `naspipe replay` retrains to the hash `train` printed; a run that
/// fails still writes what it recorded before its one-line error.
#[test]
fn cli_threaded_train_writes_a_transcript_that_replays_to_its_hash() {
    let dir = std::env::temp_dir().join(format!("naspipe-thr-transcript-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recorded = dir.join("run.nt");
    let path = recorded.to_str().unwrap();
    let naspipe = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_naspipe"))
            .args(args)
            .output()
            .expect("naspipe runs")
    };
    let hash = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let at = stdout.find("parameter hash ").expect("a hash line") + "parameter hash ".len();
        stdout[at..at + 16].to_string()
    };
    let train = [
        "train",
        "--space",
        "NLP.c2",
        "--engine",
        "threaded",
        "--subnets",
        "12",
        "--seed",
        "5",
        "--transcript",
        path,
    ];
    let out = naspipe(&[&train[..], &["--gpus", "3"]].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("transcript written to {path}")),
        "{stdout}"
    );
    let file = std::fs::File::open(&recorded).expect("the transcript is written");
    let t = Transcript::read(&mut std::io::BufReader::new(file)).expect("it reads back");
    assert_eq!(
        (t.subnets.len(), t.tasks.len(), t.taken.len()),
        (12, 72, 72)
    );
    let replayed = naspipe(&[
        "replay",
        "--space",
        "NLP.c2",
        "--transcript",
        path,
        "--seed",
        "5",
    ]);
    assert!(replayed.status.success(), "{replayed:?}");
    assert_eq!(hash(&replayed), hash(&out));

    std::fs::remove_file(&recorded).unwrap();
    let out = naspipe(&[&train[..], &["--gpus", "0"]].concat());
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "invalid run spec: gpus must be positive\n");
    let file = std::fs::File::open(&recorded).expect("a failed run writes its record");
    let t = Transcript::read(&mut std::io::BufReader::new(file)).expect("it reads back");
    assert_eq!((t.subnets.len(), t.tasks.len()), (12, 0), "nothing ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_out_of_range_integers_are_errors_not_truncations() {
    for (flag, value, want) in [
        (
            "--gpus",
            "4294967297",
            "--gpus wants an integer up to 4294967295",
        ),
        (
            "--batch",
            "4294967320",
            "--batch wants an integer up to 4294967295",
        ),
        (
            "--sample-interval-ms",
            "18446744073709552",
            "--sample-interval-ms wants an integer up to 18446744073709551",
        ),
        // Past the run: it would never fire, and a crash cell would see
        // a clean run.
        (
            "--kill-at",
            "9:1",
            "--kill-at 9:1 never fires: stages are 0..8 and subnets 0..4",
        ),
        (
            "--kill-at",
            "1:4",
            "--kill-at 1:4 never fires: stages are 0..8 and subnets 0..4",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_naspipe"))
            .args(["train", "--space", "NLP.c2", "--subnets", "4", flag, value])
            .output()
            .expect("naspipe runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: stderr: {stderr}");
        assert_eq!(stderr, format!("{want}\n"));
        assert!(out.stdout.is_empty(), "{flag} ran anyway");
    }
}

/// `naspipe replay` of a transcript that parses but does not fit the
/// space, or is cut short, exits 1 with one line on stderr, not a panic.
#[test]
fn cli_replay_of_a_transcript_that_does_not_fit_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("naspipe-replay-fit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recorded = dir.join("nlp_c2.nt");
    let naspipe = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_naspipe"))
            .args(args)
            .output()
            .expect("naspipe runs")
    };
    let path = recorded.to_str().unwrap();
    let train = [
        "train",
        "--space",
        "NLP.c2",
        "--gpus",
        "2",
        "--subnets",
        "2",
    ];
    let out = naspipe(&[&train[..], &["--transcript", path]].concat());
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&recorded).unwrap();
    let subnet = text.lines().find(|l| l.starts_with("subnet 0 ")).unwrap();
    let lone_backward = dir.join("lone_backward.nt");
    std::fs::write(
        &lone_backward,
        format!("naspipe-transcript v1\n{subnet}\ntask 0 5 B 0 0 0 48\n"),
    )
    .unwrap();
    for (space, transcript, want) in [
        (
            "NLP.c3",
            &recorded,
            "subnet 0 does not fit the search space",
        ),
        ("CV.c1", &recorded, "subnet 0 does not fit the search space"),
        (
            "NLP.c2",
            &lone_backward,
            "task 0: no last-stage output to consume",
        ),
    ] {
        let file = transcript.to_str().unwrap();
        let out = naspipe(&["replay", "--space", space, "--transcript", file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{space} {file}: {stderr}");
        assert_eq!(stderr, format!("cannot replay {file}: {want}\n"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A copy of `case` whose last task ends 7 µs later.
fn nudge_last_task(case: &GoldenCase) -> GoldenCase {
    let text = replay_gate::render_golden(case);
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let last = lines.iter().rposition(|l| l.starts_with("task ")).unwrap();
    let mut fields: Vec<String> = lines[last].split(' ').map(String::from).collect();
    fields[2] = (fields[2].parse::<u64>().unwrap() + 7).to_string();
    lines[last] = fields.join(" ");
    replay_gate::parse_golden(&(lines.join("\n") + "\n")).expect("still parses")
}

/// The golden-trace gate, strict, over the whole committed corpus: the
/// DES, threaded-recovery and two-engine cases all re-execute to their
/// goldens. A copy of the first case with its last task ending 7 µs
/// later is caught as exactly one divergence, which names that task.
#[test]
fn golden_corpus_passes_strict_and_a_nudged_task_is_named() {
    let dir = std::path::Path::new(replay_gate::DEFAULT_CORPUS_DIR);
    let report: GateReport = replay_gate::run_gate(dir, None).expect("the corpus loads");
    assert_eq!(report.cases.len(), 7, "{}", report.render_text());
    assert!(report.ok(), "{}", report.render_text());

    let cases = replay_gate::load_corpus(dir, None).expect("the corpus loads");
    let victim = cases.iter().find(|c| !c.transcript.tasks.is_empty());
    let nudged = nudge_last_task(victim.expect("a case with tasks"));
    let divergences = replay_gate::run_case(&nudged).divergences;
    assert!(
        matches!(
            divergences.as_slice(),
            [Divergence::FirstDivergentTask { .. }]
        ),
        "{divergences:?}"
    );
}

//! The six workloads, their inputs, and the calls that run them.
//!
//! Everything here goes through the crates' public functions; the harness
//! times those calls from outside.

use naspipe_core::config::{DiagnosticsOptions, PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::{
    run_pipeline_telemetry, run_pipeline_with_subnets, run_pipeline_with_tracer, PipelineOutcome,
};
use naspipe_core::runtime::{
    run_threaded_diagnosed, DurableOptions, RecoveryOptions, SupervisedRun,
};
use naspipe_core::train::TrainConfig;
use naspipe_obs::{
    Journal, NullTracer, OpsState, RunMeta, SpanTracer, TelemetryHub, TelemetryOptions,
};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How a threaded run is configured, least to most instrumented. The
/// order is the order of the per-layer ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RtRung {
    /// `DiagnosticsOptions::disabled()`, no checkpoints.
    Bare,
    /// Default diagnostics (flight recorder + watchdog).
    Diag,
    /// Plus in-memory checkpoints every 8 subnets.
    MemCheckpoint,
    /// Plus durable snapshots (`keep: 3`).
    Durable,
    /// Plus telemetry hub + sampler, journal file sink and `OpsState`.
    FullOps,
}

/// How a DES run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DesRung {
    /// `run_pipeline_with_tracer(.., NullTracer)`.
    Null,
    /// `run_pipeline_with_subnets` — the default `SpanTracer`.
    Span,
    /// `SpanTracer` plus a telemetry hub.
    SpanHub,
}

#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// The threaded runtime on a `uniform(Nlp, blocks, choices)` space.
    Rt {
        blocks: u32,
        choices: u32,
        stages: u32,
        dim: usize,
        rows: usize,
        /// The configuration the workload's end-to-end run uses; the
        /// ladder stops there.
        top: RtRung,
        /// Whether the run is confined to one CPU (see `affinity`).
        one_cpu: bool,
    },
    /// The discrete-event engine on NLP.c1 under `SyncPolicy::naspipe()`.
    Des { gpus: u32, top: DesRung },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Subnets per repetition.
    pub n: usize,
    pub engine: Engine,
}

/// Subnets the DES twin of an `rt-*` workload simulates: the workload's
/// own stream continued, long enough that simulated statistics differ
/// between seeds by a few percent at most.
pub const TWIN_N: usize = 4000;

/// Checkpoint interval of the durable configuration (the CLI default
/// when `--checkpoint-dir` is given).
pub const CHECKPOINT_INTERVAL: u64 = 8;

// Repetition sizes are smaller than a production run on purpose: a
// 2-core sandbox is steadier over many sub-second repetitions than over
// a few long ones, and each run must fit five or more paired
// repetitions into `--seconds`.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "rt-compute-lowshare",
        n: 200,
        engine: Engine::Rt {
            blocks: 8,
            choices: 64,
            stages: 2,
            dim: 128,
            rows: 64,
            top: RtRung::Diag,
            one_cpu: false,
        },
    },
    Workload {
        name: "rt-compute-highshare",
        n: 200,
        engine: Engine::Rt {
            blocks: 8,
            choices: 5,
            stages: 2,
            dim: 128,
            rows: 64,
            top: RtRung::Diag,
            one_cpu: false,
        },
    },
    Workload {
        name: "rt-overhead-tiny",
        n: 500,
        engine: Engine::Rt {
            blocks: 48,
            choices: 48,
            stages: 2,
            dim: 16,
            rows: 8,
            top: RtRung::Diag,
            one_cpu: true,
        },
    },
    Workload {
        name: "rt-durable-ops",
        n: 500,
        engine: Engine::Rt {
            blocks: 48,
            choices: 48,
            stages: 2,
            dim: 16,
            rows: 8,
            top: RtRung::FullOps,
            one_cpu: true,
        },
    },
    Workload {
        name: "des-paper-8gpu",
        n: 4000,
        engine: Engine::Des {
            gpus: 8,
            top: DesRung::Span,
        },
    },
    Workload {
        name: "des-scale-32gpu",
        n: 4000,
        engine: Engine::Des {
            gpus: 32,
            top: DesRung::Null,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn space(&self) -> SearchSpace {
        match self.engine {
            Engine::Rt {
                blocks, choices, ..
            } => SearchSpace::uniform(Domain::Nlp, blocks, choices),
            Engine::Des { .. } => SearchSpace::nlp_c1(),
        }
    }

    /// Pipeline stages (threads for `rt-*`, simulated GPUs for `des-*`).
    pub fn stages(&self) -> u32 {
        match self.engine {
            Engine::Rt { stages, .. } => stages,
            Engine::Des { gpus, .. } => gpus,
        }
    }

    pub fn one_cpu(&self) -> bool {
        matches!(self.engine, Engine::Rt { one_cpu: true, .. })
    }

    /// Numeric configuration: the workload's own shapes for `rt-*`, the
    /// CLI's `train_config` for `des-*` replays. One compute-pool worker
    /// per stage, so the thread count never depends on `nproc`.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        let cfg = match self.engine {
            Engine::Rt { dim, rows, .. } => TrainConfig {
                dim,
                rows,
                seed,
                ..TrainConfig::default()
            },
            Engine::Des { .. } => TrainConfig {
                seed,
                residual_scale: 0.15,
                ..TrainConfig::default()
            },
        };
        cfg.with_threads(1)
    }
}

/// The first `n` subnets of the seed's exploration order. This is the
/// only thing the seed decides about the program's input (it also seeds
/// parameter initialisation and the synthetic data).
pub fn stream(space: &SearchSpace, seed: u64, n: usize) -> Vec<Subnet> {
    UniformSampler::new(space, seed).take_subnets(n)
}

/// The DES configuration the CLI builds for `naspipe train`.
pub fn des_config(gpus: u32, n: usize, seed: u64, policy: SyncPolicy) -> PipelineConfig {
    PipelineConfig::naspipe(gpus, n as u64)
        .with_seed(seed)
        .with_policy(policy)
}

/// Who times a call into a layer: a bare stopwatch for the untraced run,
/// the span recorder for the traced one. Arguments are prepared before,
/// and scratch files removed after, so only the call is on the clock.
pub trait Clock {
    /// Runs `body`, which performs `count` operations, under the name
    /// `name`; returns its result and the host seconds it took.
    fn time<T>(&mut self, name: &str, count: u64, body: impl FnOnce() -> T) -> (T, f64);
}

/// Times with `Instant` and records nothing.
pub struct Stopwatch;

impl Clock for Stopwatch {
    fn time<T>(&mut self, _name: &str, _count: u64, body: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let result = body();
        (result, start.elapsed().as_secs_f64())
    }
}

/// One DES run of `subnets` observed at `rung`.
pub fn run_des(
    clock: &mut impl Clock,
    name: &str,
    space: &SearchSpace,
    cfg: &PipelineConfig,
    subnets: &[Subnet],
    rung: DesRung,
) -> Result<(PipelineOutcome, f64), String> {
    let input = subnets.to_vec();
    let telemetry = TelemetryOptions::new(Arc::new(TelemetryHub::new(cfg.num_gpus as usize, 0)));
    let (outcome, secs) = clock.time(name, subnets.len() as u64, || match rung {
        DesRung::Null => run_pipeline_with_tracer(space, cfg, input, Box::new(NullTracer)),
        DesRung::Span => run_pipeline_with_subnets(space, cfg, input),
        DesRung::SpanHub => run_pipeline_telemetry(
            space,
            cfg,
            input,
            Box::new(SpanTracer::new()),
            Some(&telemetry),
        ),
    });
    outcome.map(|o| (o, secs)).map_err(|e| e.to_string())
}

/// One threaded run of `subnets` at `rung` on `stages` stage threads.
/// Durable rungs persist into a fresh directory under `scratch`, removed
/// again before returning.
#[allow(clippy::too_many_arguments)] // mirrors run_threaded_diagnosed
pub fn run_rt(
    clock: &mut impl Clock,
    name: &str,
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
    stages: u32,
    rung: RtRung,
    scratch: &Path,
) -> Result<(SupervisedRun, f64), String> {
    let dir: PathBuf = scratch.join(format!("run-{}", std::process::id()));
    let recovery = RecoveryOptions {
        checkpoint_interval: if rung >= RtRung::MemCheckpoint {
            CHECKPOINT_INTERVAL
        } else {
            0
        },
        ..RecoveryOptions::default()
    };
    let durable = (rung >= RtRung::Durable).then(|| DurableOptions {
        dir: dir.join("snapshots"),
        keep: 3,
        resume: false,
    });
    let mut diag = if rung == RtRung::Bare {
        DiagnosticsOptions::disabled()
    } else {
        DiagnosticsOptions::default()
    };
    let mut telemetry = None;
    if rung >= RtRung::Durable {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    if rung == RtRung::FullOps {
        let hub = Arc::new(TelemetryHub::new(stages as usize, 0));
        let journal = Journal::new(0)
            .with_sink(&dir.join("journal.jsonl"))
            .map_err(|e| format!("journal sink: {e}"))?;
        let state = OpsState::new(
            RunMeta::new("threaded", stages).seed(cfg.seed),
            Arc::clone(&hub),
            Arc::new(journal),
        );
        diag = diag.with_ops(Arc::new(state));
        telemetry = Some(TelemetryOptions::new(hub));
    }
    let input = subnets.to_vec();
    let (run, secs) = clock.time(name, subnets.len() as u64, || {
        run_threaded_diagnosed(
            space,
            input,
            cfg,
            stages,
            0,
            &recovery,
            telemetry.as_ref(),
            durable.as_ref(),
            &diag,
        )
    });
    if rung >= RtRung::Durable {
        // Best effort: a leftover directory is reused by the next run.
        let _ = std::fs::remove_dir_all(&dir);
    }
    run.map(|r| (r, secs)).map_err(|e| e.to_string())
}

//! A multi-threaded, decentralised CSP pipeline runtime with a
//! fault-tolerant supervisor.
//!
//! The discrete-event engine ([`crate::pipeline`]) *simulates* timing; this
//! module actually runs a pipeline across OS threads, one per stage, the
//! way NASPipe spawns one worker process per GPU:
//!
//! * each stage thread **owns** its slice of the supernet's parameters
//!   (static partition) — synchronisation is by message passing only, with
//!   no global server, matching the paper's decentralised design;
//! * forwards/backwards flow through channels; each stage runs the
//!   Algorithm 1 loop locally: backwards first, then the first
//!   CSP-admissible forward from its queue;
//! * thread scheduling is **nondeterministic**, yet the final parameters
//!   are **bitwise identical** to sequential training — the strongest
//!   demonstration of Definition 1: reproducibility comes from dependency
//!   preservation, not from lockstep timing.
//!
//! # One way to start a run
//!
//! A run is a [`RunSpec`]: the space, the subnet stream, the training
//! configuration and the stage count, plus defaulted public fields for
//! everything optional (in-flight window, fault plan / checkpoints /
//! restarts, live telemetry, durable snapshots, diagnostics).
//! [`RunSpec::run`] is the only entry point and [`SupervisedRun`] the
//! only result shape. The supervisor (`supervisor.rs`) resolves the spec
//! once into an immutable run context — subnets, dataset, fault injector,
//! checkpoint store and snapshot writer, event bus and hub, epoch, window,
//! retry/timeout budget — that every stage worker (`worker.rs`) of every
//! incarnation borrows, beside the state the worker itself mutates. The
//! snapshot writer (`sidecars.rs`) is the one thread that outlives
//! incarnations.
//!
//! # One stage worker, three drivers
//!
//! `StageWorker::step` is one turn of the Algorithm 1 loop up to — not
//! including — a wait for a message: cut a checkpoint, inject, take the
//! messages its driver delivered, run one backward or one admissible
//! forward, and say whether a task ran. The worker does no I/O: it takes
//! deliveries from, and gives its hand-offs to, its driver through one
//! private `Io` trait, and holds no channel. The loop's bookkeeping
//! (registration, queues, `L_f`, the window and checkpoint-epoch barrier,
//! the writer marks, the stall/bubble class of a wait) is a one-stage
//! `crate::stage::StageCore`, the same core the DES drives over all its
//! stages; the worker keeps its parameters, checkpoints and loss targets.
//! The clock and the fault plan stay inside `step`. Three drivers run it:
//!
//! * the **thread driver** (`supervisor.rs`), one per stage thread: its
//!   inbox and links are channels, and it is "`step` until nothing is
//!   runnable, then block for one message and hold it for the next
//!   `step`";
//! * the **replay** ([`RunSpec::replay`], `replay.rs`): every worker on
//!   one thread, each step handed exactly the messages a recorded run's
//!   stage had taken when it picked (its [`Taken`] counts; a channel is
//!   FIFO per sender, so they fix the inbox), and the pick checked
//!   against the record;
//! * the **seeded stepper** (`worker::tests`), the same one-thread driver
//!   handing each step a seeded part of what is in flight.
//!
//! The last stage spends what would be a wait synthesizing upcoming loss
//! targets. A backward hands its input gradient upstream before its
//! weight half (`dL/dW` and the optimizer step), so the predecessor's
//! backward overlaps it. `step` never waits for a peer (injected `Slow`
//! and retry back-off sleeps aside). A task's start and end are read from
//! the clock once: its spans, its [`TaskRecord`] and its latency sample
//! carry the same `(start, end)`. A forward's hand-off comes after its
//! span and is the gap to the next task; a backward's comes between its
//! `Backward` and `Update` spans and is the gap between them, inside its
//! record.
//!
//! # Supervision and recovery
//!
//! The workers of one incarnation are scoped threads borrowing the run
//! context, the incarnation's park flag and (debug builds) its invariant
//! checker. A worker leaves early through one private `Halt`: `Parked` (the
//! supervisor asked) or `Failed` (a [`TrainError`], via `?`); one helper
//! of the thread driver makes a closed link or a receive timeout `Parked`
//! under an active shutdown and `Failed` otherwise. The thread driver
//! borrows its worker across the unwind of a panic, so every exit —
//! trained, parked, failed or panicked — hands the worker's state back:
//! each worker sends `(stage, (StageOutput, Option<TrainError>))` over
//! the incarnation's one hand-back channel, its spans, tasks and inbox
//! counts included. The supervisor waits in one loop over that channel,
//! sampling the run's hub whenever a sample falls due: on the first
//! error it raises the shutdown flag and broadcasts a stop message, so
//! surviving workers park instead of cascading into spurious
//! [`TrainError::ChannelClosed`] failures (a supervisor-initiated
//! shutdown is *not* an error). It then classifies the root cause in
//! descending stage order (a panic, timeout or invariant breach beats the
//! channel failures it cascades into) and, when the failure is recoverable
//! and the restart budget allows, respawns every stage from the newest
//! complete CSP-watermark checkpoint (see [`crate::checkpoint`]) and
//! replays only the tasks past the watermark. Every stage's spans go into
//! the run's trace and every stage counts the tasks the rollback
//! discards, the failed one's too. A run that finishes and a run that
//! fails end on one record of their last incarnation: the sequential
//! prefix below its resume watermark, then its tasks in start order, each
//! with its [`Taken`] counts. A failed run returns it in its
//! [`FailedRun`], which [`RunSpec::replay`] replays up to the last task
//! recorded.
//!
//! Failure scenarios are injected deterministically from a
//! [`FaultPlan`] (see [`crate::fault`]): workers consult the shared
//! fault injector at task execution, send and receive sites, so a
//! seeded plan reproduces the same fault sequence — and, because fatal
//! faults pin the watermark they crash under, the same recovery schedule
//! — on every run.
//!
//! In debug builds every worker additionally feeds a shared
//! [`CspChecker`](naspipe_obs::CspChecker) — an independent
//! re-derivation of the CSP contract, re-registered fresh for every
//! incarnation — so any admission the sequential exploration order could
//! not have produced aborts the run with a [`TrainError::Invariant`].
//! Every thread of a run counts into its one
//! [`TelemetryHub`](naspipe_obs::TelemetryHub) — workers their tasks,
//! latencies, queues, idle time and retries, the supervisor restarts,
//! replays and resumes, the writer persists — and the run's [`ObsReport`]
//! is the hub's final snapshot, a failed worker's work included.

mod replay;
mod sidecars;
mod supervisor;
mod worker;

use crate::config::DiagnosticsOptions;
use crate::durable::{DurableError, DEFAULT_KEEP};
use crate::fault::{FaultPlan, FiredFault};
use crate::pipeline::TaskRecord;
use crate::scheduler::DEFAULT_WINDOW;
use crate::task::TaskKind;
use crate::train::{TrainConfig, TrainResult};
use crate::transcript::Transcript;
use naspipe_obs::{EventBus, ObsReport, SpanTrace, TelemetryOptions, Violation};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// A failure of the threaded runtime, naming the stage it surfaced on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A channel to a neighbouring stage closed mid-run — the peer
    /// worker exited early (usually the secondary symptom of its own
    /// error; the supervisor prefers reporting the root cause).
    ChannelClosed {
        /// The stage that observed the closed channel.
        stage: usize,
        /// Which link failed: `"successor"`, `"predecessor"`, or
        /// `"inbound"`.
        link: &'static str,
    },
    /// A stage worker thread panicked.
    StagePanicked {
        /// The panicked stage.
        stage: usize,
    },
    /// The runtime's task interleaving broke the CSP contract.
    Invariant {
        /// The stage whose event triggered the violation.
        stage: usize,
        /// The violated invariant, naming the subnet pair and layer.
        violation: Violation,
    },
    /// A stage gave up on a task: transient channel faults exceeded the
    /// retry budget, or no message arrived within the receive timeout.
    Timeout {
        /// The stage that timed out.
        stage: usize,
        /// Sequence ID of the subnet whose task could not make progress.
        task: u64,
        /// The underlying failure, when one is known (e.g. the channel
        /// error retries could not get past); chained via
        /// [`std::error::Error::source`].
        cause: Option<Box<TrainError>>,
    },
    /// The supervisor ran out of restart budget while recovering.
    RecoveryExhausted {
        /// The stage whose failure exhausted the budget.
        stage: usize,
        /// Restarts performed before giving up.
        attempts: u32,
        /// The final root-cause failure; chained via
        /// [`std::error::Error::source`].
        last: Box<TrainError>,
    },
    /// The durable checkpoint layer failed at startup (directory not
    /// creatable, resume explicitly requested on an unusable store).
    /// Mid-run persist failures never raise this — they are logged and
    /// training continues on the in-memory checkpoints.
    Durable {
        /// The underlying durable-layer failure.
        cause: DurableError,
    },
    /// The [`RunSpec`] cannot be run as given (zero stages, a durable
    /// directory with checkpointing off, another run's hub); nothing ran.
    InvalidSpec(String),
}

impl TrainError {
    /// The stage the error surfaced on.
    pub fn stage(&self) -> usize {
        match self {
            TrainError::ChannelClosed { stage, .. }
            | TrainError::StagePanicked { stage }
            | TrainError::Invariant { stage, .. }
            | TrainError::Timeout { stage, .. }
            | TrainError::RecoveryExhausted { stage, .. } => *stage,
            // Spec and durable failures happen before any stage spawns.
            TrainError::Durable { .. } | TrainError::InvalidSpec(_) => 0,
        }
    }

    /// Whether the supervisor may recover from this failure by
    /// restarting stages from a checkpoint. Invariant breaches are never
    /// recoverable (the contract itself is broken), and a root-cause
    /// channel closure means the pipeline wiring is gone.
    fn is_recoverable(&self) -> bool {
        matches!(
            self,
            TrainError::StagePanicked { .. } | TrainError::Timeout { .. }
        )
    }

    /// Whether this error is a secondary symptom of a neighbour's death
    /// rather than a root cause.
    fn is_secondary(&self) -> bool {
        matches!(self, TrainError::ChannelClosed { .. })
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::ChannelClosed { stage, link } => write!(
                f,
                "stage {stage}: {link} channel closed before training finished"
            ),
            TrainError::StagePanicked { stage } => {
                write!(f, "stage {stage}: worker thread panicked")
            }
            TrainError::Invariant { stage, violation } => {
                write!(f, "stage {stage}: {violation}")
            }
            TrainError::Timeout { stage, task, .. } => write!(
                f,
                "stage {stage}: timed out waiting to make progress on SN{task}"
            ),
            TrainError::RecoveryExhausted {
                stage, attempts, ..
            } => write!(
                f,
                "stage {stage}: recovery exhausted after {attempts} restart(s)"
            ),
            TrainError::Durable { cause } => write!(f, "durable checkpoints: {cause}"),
            TrainError::InvalidSpec(why) => write!(f, "invalid run spec: {why}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Invariant { violation, .. } => Some(violation),
            TrainError::Timeout {
                cause: Some(cause), ..
            } => Some(&**cause),
            TrainError::RecoveryExhausted { last, .. } => Some(&**last),
            TrainError::Durable { cause } => Some(cause),
            _ => None,
        }
    }
}

/// Fault-injection, checkpointing and restart knobs of a [`RunSpec`].
/// The default disables all three: a worker death then shuts the
/// pipeline down cleanly and surfaces as the root-cause [`TrainError`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryOptions {
    /// Deterministic failure scenario to inject (empty = none).
    pub fault_plan: FaultPlan,
    /// Snapshot the pipeline every `checkpoint_interval` subnets
    /// (`0` disables checkpointing; recovery then replays from scratch).
    pub checkpoint_interval: u64,
    /// How many supervisor restarts a run may consume before a
    /// recoverable failure escalates to
    /// [`TrainError::RecoveryExhausted`]. `0` disables recovery.
    pub max_restarts: u32,
    /// Fail a blocking receive with [`TrainError::Timeout`] after this
    /// many milliseconds (`None` = wait forever).
    pub recv_timeout_ms: Option<u64>,
}

/// Durable-checkpoint knobs of a [`RunSpec`]: where to persist completed
/// CSP-watermark cuts, how many to retain, and whether to resume from
/// the newest valid one before training starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Directory snapshots are persisted into (created if missing).
    pub dir: PathBuf,
    /// Complete cuts retained on disk.
    pub keep: usize,
    /// Load the newest valid snapshot from `dir` and continue from its
    /// watermark. With no (valid) snapshot present the run starts from
    /// scratch — so a crash-before-first-checkpoint restart is just a
    /// fresh run, which is already bitwise-correct.
    pub resume: bool,
}

impl DurableOptions {
    /// Persist into `dir`, retaining [`DEFAULT_KEEP`] cuts, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            keep: DEFAULT_KEEP,
            resume: false,
        }
    }
}

/// What the supervisor did to keep a run alive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Full-pipeline restarts performed.
    pub restarts: u32,
    /// The watermark each restart resumed from, in order.
    pub resume_watermarks: Vec<u64>,
    /// Every fault that fired, with the incarnation it hit.
    pub faults_fired: Vec<FiredFault>,
}

impl RecoveryReport {
    /// The deterministic projection of the recovery: restart count,
    /// resume watermarks, and the fired faults sorted by trigger. Two
    /// runs with the same seeded plan produce equal schedules even
    /// though thread timing differs.
    pub fn schedule(&self) -> RecoverySchedule {
        let mut faults: Vec<crate::fault::Fault> =
            self.faults_fired.iter().map(|f| f.fault).collect();
        faults.sort_by_key(|f| (f.stage, f.subnet, f.task));
        RecoverySchedule {
            restarts: self.restarts,
            resume_watermarks: self.resume_watermarks.clone(),
            faults,
        }
    }
}

/// The timing-independent recovery schedule (see
/// [`RecoveryReport::schedule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySchedule {
    /// Full-pipeline restarts performed.
    pub restarts: u32,
    /// The watermark each restart resumed from, in order.
    pub resume_watermarks: Vec<u64>,
    /// Fired faults sorted by `(stage, subnet, task)`.
    pub faults: Vec<crate::fault::Fault>,
}

/// Everything a threaded run produces.
pub struct SupervisedRun {
    /// Final parameters and losses — bitwise equal to
    /// [`sequential_training`](crate::train::sequential_training) even
    /// across faults and restarts.
    pub result: TrainResult,
    /// Per-stage observability over all incarnations: the hub's last sample.
    pub report: ObsReport,
    /// What the supervisor did.
    pub recovery: RecoveryReport,
    /// The effective task stream: a synthetic sequential prefix for the
    /// subnets below the final resume watermark, then the last
    /// incarnation's recorded tasks in start order — suitable for
    /// [`verify_csp_order_parts`](crate::repro::verify_csp_order_parts).
    pub tasks: Vec<TaskRecord>,
    /// What each stage had taken from its inbox when it picked each of
    /// the last incarnation's tasks: `taken[i]` belongs to
    /// `tasks[tasks.len() - taken.len() + i]`. With the tasks it is what
    /// [`RunSpec::replay`] replays.
    pub taken: Vec<Taken>,
    /// The subnets trained, in exploration order.
    pub subnets: Vec<Subnet>,
    /// Causal span trace, merged across every stage worker and
    /// incarnation (wall-clock µs since run start).
    pub spans: SpanTrace,
}

impl From<&SupervisedRun> for Transcript {
    /// The finished run's record, for [`RunSpec::replay`] or a file.
    fn from(run: &SupervisedRun) -> Self {
        Transcript {
            subnets: run.subnets.clone(),
            tasks: run.tasks.clone(),
            taken: run.taken.clone(),
        }
    }
}

/// A threaded run that failed: the error, and the record of what its
/// last incarnation ran before it.
#[derive(Debug)]
pub struct FailedRun {
    /// Why the run failed (see [`RunSpec::run`]'s errors).
    pub error: TrainError,
    /// The run's subnets and the record [`SupervisedRun`] would have
    /// held, cut at the failure: the sequential prefix below the last
    /// incarnation's resume watermark, then every task its stages
    /// finished in start order, each with its [`Taken`] counts. Empty of
    /// tasks when the run failed before any stage started. Boxed, so the
    /// `Err` of [`RunSpec::run`] stays small.
    pub transcript: Box<Transcript>,
}

impl From<FailedRun> for TrainError {
    fn from(failed: FailedRun) -> Self {
        failed.error
    }
}

impl fmt::Display for FailedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

/// What a threaded stage had taken from its inbox when it picked a
/// task: the forward messages (activations from its predecessor) and the
/// backward messages (gradients from its successor) handed to it so far
/// in its incarnation. A channel is FIFO per sender, so the two counts
/// fix which messages the stage had picked from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taken {
    /// Activations taken.
    pub forwards: u64,
    /// Gradients taken.
    pub backwards: u64,
}

/// What [`RunSpec::replay`] reproduced of a threaded run, on one thread.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The replayed parameters' fingerprint (`TrainResult::final_hash`).
    pub final_hash: u64,
    /// Every task the replayed stages ran, stage by stage, each stage's
    /// in the order it ran them.
    pub tasks: Vec<TaskRecord>,
    /// Per stage, every checkpoint cut it took: its watermark and how many
    /// of the stage's replayed tasks ran before it.
    pub cuts: Vec<Vec<(u64, usize)>>,
    /// The replayed incarnation's counts: its hub's last snapshot.
    pub report: ObsReport,
}

/// Where [`RunSpec::replay`] parted from the run it replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayDivergence {
    /// The transcript is not a threaded run of this spec: no inbox
    /// counts, other subnets, a stage or prefix the spec does not have.
    Unfit(String),
    /// Handed what the record says it had taken, the stage of the
    /// transcript's task `index` did not pick that task: `ran` is what it
    /// ran instead (`None`: nothing, or the messages it needed were never
    /// sent).
    Task {
        /// Index into the transcript's tasks.
        index: usize,
        /// The task the stage ran instead, as `(kind, subnet)`.
        ran: Option<(TaskKind, SubnetId)>,
    },
    /// A replayed worker failed.
    Failed(TrainError),
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayDivergence::Unfit(why) => write!(f, "the transcript does not fit: {why}"),
            ReplayDivergence::Task { index, ran: None } => {
                write!(f, "task #{index}: its stage picked nothing")
            }
            ReplayDivergence::Task {
                index,
                ran: Some((kind, y)),
            } => write!(f, "task #{index}: its stage picked {y}.{kind} instead"),
            ReplayDivergence::Failed(err) => write!(f, "the replay failed: {err}"),
        }
    }
}

impl std::error::Error for ReplayDivergence {}

/// One threaded run, as data: what to train and on how many stage
/// threads (the arguments of [`new`](Self::new)), plus every option with
/// its default. Set options by field assignment or struct update, then
/// [`run`](Self::run):
///
/// ```
/// use naspipe_core::runtime::{RecoveryOptions, RunSpec};
/// use naspipe_core::train::TrainConfig;
/// use naspipe_supernet::layer::Domain;
/// use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
/// use naspipe_supernet::space::SearchSpace;
///
/// let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
/// let subnets = UniformSampler::new(&space, 1).take_subnets(6);
/// let bare = RunSpec::new(&space, subnets.clone(), TrainConfig::default(), 2).run()?;
/// let checkpointed = RunSpec {
///     recovery: RecoveryOptions {
///         checkpoint_interval: 2,
///         ..RecoveryOptions::default()
///     },
///     ..RunSpec::new(&space, subnets, TrainConfig::default(), 3)
/// }
/// .run()?;
/// assert_eq!(bare.result.final_hash, checkpointed.result.final_hash);
/// # Ok::<(), naspipe_core::runtime::TrainError>(())
/// ```
///
/// Whatever the options, the result is bitwise equal to
/// [`sequential_training`](crate::train::sequential_training) for any
/// `gpus` and `window`: faults, restarts, durable snapshots, telemetry
/// and diagnostics are all observably zero-effect on training.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The search space the subnets were drawn from.
    pub space: &'a SearchSpace,
    /// The subnets to train, consecutively numbered from 0.
    pub subnets: Vec<Subnet>,
    /// Numeric model, optimiser, seed and compute-pool size.
    pub train: TrainConfig,
    /// Stage threads (one per simulated GPU).
    pub gpus: u32,
    /// Bound on in-flight subnets ([`DEFAULT_WINDOW`]).
    pub window: u64,
    /// Fault plan, in-memory CSP-watermark checkpoints and the restart
    /// budget (default: none of them). A recoverable failure respawns
    /// every stage from the newest complete checkpoint and replays only
    /// the tasks past its watermark.
    pub recovery: RecoveryOptions,
    /// Live telemetry (default `None`): the run counts into this hub —
    /// sized for `gpus` stages and fresh: one hub, one run — and the
    /// supervisor publishes a snapshot every `sample_interval_us` of wall
    /// time while it waits on the workers, then the final one the report
    /// is rendered from (embedding the sampled series).
    pub telemetry: Option<TelemetryOptions>,
    /// Durable crash-safe checkpointing (default `None`): every
    /// completed cut is also persisted to `dir` (see [`crate::durable`]),
    /// and with `resume` the run first loads the newest valid on-disk
    /// cut and continues from its watermark — the snapshot at watermark
    /// `W` *is* the sequential state after `W` subnets. Corrupt snapshot
    /// files are skipped with a warning; finding none starts from
    /// scratch. Needs `recovery.checkpoint_interval > 0`.
    pub durable: Option<DurableOptions>,
    /// Flight recorder, wall-clock watchdog (the same detectors as the
    /// DES twin; verdicts folded into the report), flight-dump path and
    /// ops-plane state. On by default; `enabled = false` turns every
    /// piece off.
    pub diagnostics: DiagnosticsOptions,
}

impl<'a> RunSpec<'a> {
    /// Trains `subnets` on `gpus` stage threads with every option at its
    /// default: no faults, checkpoints, telemetry or durable snapshots,
    /// default diagnostics.
    pub fn new(
        space: &'a SearchSpace,
        subnets: Vec<Subnet>,
        train: TrainConfig,
        gpus: u32,
    ) -> Self {
        RunSpec {
            space,
            subnets,
            train,
            gpus,
            window: DEFAULT_WINDOW,
            recovery: RecoveryOptions::default(),
            telemetry: None,
            durable: None,
            diagnostics: DiagnosticsOptions::default(),
        }
    }

    /// The shapes an outside caller (the CLI) can reach, and a hub that
    /// cannot be this run's ledger.
    fn validate(&self) -> Result<(), TrainError> {
        let hub = self.telemetry.as_ref().map(|t| &t.hub);
        let why = if self.gpus == 0 {
            "gpus must be positive"
        } else if self.subnets.is_empty() {
            "subnets must be non-empty"
        } else if self.window == 0 {
            "window must be positive"
        } else if self.durable.is_some() && self.recovery.checkpoint_interval == 0 {
            "durable checkpoints need checkpoint_interval > 0"
        } else if hub.is_some_and(|h| h.num_stages() != self.gpus as usize) {
            "the telemetry hub must have one stage per gpu"
        } else if hub.is_some_and(|h| h.published() > 0) {
            "the telemetry hub already holds another run's samples"
        } else {
            return Ok(());
        };
        Err(TrainError::InvalidSpec(why.to_string()))
    }

    /// The run's shared sinks, as the spec configures them.
    fn bus(&self) -> EventBus {
        let telemetry = self.telemetry.as_ref();
        EventBus::new("threaded", self.gpus, &self.diagnostics, telemetry, true)
    }

    /// Runs the spec under the supervisor.
    ///
    /// # Errors
    ///
    /// A [`FailedRun`]: the error, and the record of the tasks the last
    /// incarnation ran before it. Its `error` is
    /// [`TrainError::InvalidSpec`] for zero `gpus`/`window`, no `subnets`, `durable`
    /// without a checkpoint interval or a mis-sized or used telemetry hub;
    /// [`TrainError::Durable`] when the snapshot directory cannot be opened
    /// or a resume hits an I/O failure (both before any stage starts: no
    /// task recorded); the root-cause [`TrainError`] for
    /// unrecoverable failures (CSP invariant breaches in debug builds,
    /// root-cause channel closures, or any failure with
    /// `max_restarts == 0`); and [`TrainError::RecoveryExhausted`] when the
    /// restart budget runs out. `?` turns it into its `error`.
    ///
    /// # Panics
    ///
    /// Panics if `subnets` is not consecutively numbered from 0 or a
    /// subnet is invalid for `space` — caller bugs, not inputs.
    pub fn run(self) -> Result<SupervisedRun, FailedRun> {
        supervisor::supervise(self)
    }

    /// Replays the threaded run `transcript` recorded on one thread, with
    /// this spec's workers: before each recorded task, its stage is handed
    /// exactly the messages the record says it had taken, and it must pick
    /// that task (Algorithm 2, checked in every build). A restarted run
    /// replays its last incarnation from the sequential state at its
    /// resume watermark. Faults, telemetry, durable snapshots and
    /// diagnostics are off in the replay.
    ///
    /// # Errors
    ///
    /// The [`ReplayDivergence`] where the replay left the record.
    pub fn replay(self, transcript: &Transcript) -> Result<Replayed, ReplayDivergence> {
        replay::replay(self, transcript)
    }
}

/// The one threaded entry point `benchmark/src/workloads.rs` links by
/// name; the harness is frozen outside `benchmark` PRs, so this stays
/// until the `benchmark` PR that moves it to [`RunSpec`] (ROADMAP 1(a)),
/// and the simplicity change after it deletes it. `window == 0` is the
/// harness's "default".
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_diagnosed(
    space: &SearchSpace,
    subnets: Vec<Subnet>,
    cfg: &TrainConfig,
    gpus: u32,
    window: u64,
    opts: &RecoveryOptions,
    telemetry: Option<&TelemetryOptions>,
    durable: Option<&DurableOptions>,
    diag: &DiagnosticsOptions,
) -> Result<SupervisedRun, TrainError> {
    RunSpec {
        window: if window == 0 { DEFAULT_WINDOW } else { window },
        recovery: opts.clone(),
        telemetry: telemetry.cloned(),
        durable: durable.cloned(),
        diagnostics: diag.clone(),
        ..RunSpec::new(space, subnets, *cfg, gpus)
    }
    .run()
    .map_err(TrainError::from)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::TelemetryHub;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::subnet::SubnetId;
    use std::error::Error as _;

    #[test]
    fn train_errors_name_the_stage() {
        let err = TrainError::ChannelClosed {
            stage: 2,
            link: "successor",
        };
        assert!(err.to_string().contains("stage 2"));
        let err = TrainError::Invariant {
            stage: 1,
            violation: Violation::DuplicateSubnet { id: SubnetId(4) },
        };
        let msg = err.to_string();
        assert!(msg.contains("stage 1") && msg.contains("SN4"));
    }

    #[test]
    fn unrunnable_specs_are_typed_errors_before_anything_starts() {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
        let list = UniformSampler::new(&space, 99).take_subnets(4);
        let spec = |gpus| RunSpec::new(&space, list.clone(), TrainConfig::default(), gpus);
        let why = |spec: RunSpec| match spec.run().map_err(|failed| failed.error) {
            Err(TrainError::InvalidSpec(why)) => why,
            Err(other) => panic!("expected InvalidSpec, got {other}"),
            Ok(_) => panic!("expected InvalidSpec, got a finished run"),
        };
        assert_eq!(why(spec(0)), "gpus must be positive");
        let streamless = RunSpec {
            subnets: Vec::new(),
            ..spec(2)
        };
        assert_eq!(why(streamless), "subnets must be non-empty");
        let windowless = RunSpec {
            window: 0,
            ..spec(2)
        };
        assert_eq!(why(windowless), "window must be positive");
        // The directory is never touched: validation precedes the open.
        let uncut = RunSpec {
            durable: Some(DurableOptions::new("/nonexistent/naspipe-unrunnable")),
            ..spec(2)
        };
        assert_eq!(
            why(uncut),
            "durable checkpoints need checkpoint_interval > 0"
        );
        let err = TrainError::InvalidSpec("gpus must be positive".into());
        assert_eq!(err.to_string(), "invalid run spec: gpus must be positive");
        assert_eq!(err.stage(), 0);
    }

    #[test]
    fn a_telemetry_hub_is_one_runs_ledger() {
        // An exported hub is where the run counts, so it must have one
        // cell block per stage and nothing in it from another run.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
        let list = UniformSampler::new(&space, 99).take_subnets(4);
        let with_hub = |hub: TelemetryHub| RunSpec {
            telemetry: Some(TelemetryOptions::new(std::sync::Arc::new(hub))),
            ..RunSpec::new(&space, list.clone(), TrainConfig::default(), 3)
        };
        let why = |spec: RunSpec| match spec.run().map_err(|failed| failed.error) {
            Err(TrainError::InvalidSpec(why)) => why,
            Err(other) => panic!("expected InvalidSpec, got {other}"),
            Ok(_) => panic!("expected InvalidSpec, got a finished run"),
        };
        assert_eq!(
            why(with_hub(TelemetryHub::new(2, 0))),
            "the telemetry hub must have one stage per gpu"
        );
        let used = TelemetryHub::new(3, 0);
        used.publish(0);
        assert_eq!(
            why(with_hub(used)),
            "the telemetry hub already holds another run's samples"
        );
        assert!(with_hub(TelemetryHub::new(3, 0)).run().is_ok());
    }

    #[test]
    fn an_unbounded_window_trains_the_sequential_result() {
        // `u64::MAX` passes `validate`: every window end saturates at the
        // stream's length instead of overflowing (a debug build panicked
        // in the last stage's target window before).
        let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
        let list = UniformSampler::new(&space, 6).take_subnets(6);
        let want = crate::train::sequential_training(&space, &list, &TrainConfig::default());
        for gpus in [2, 3] {
            let run = RunSpec {
                window: u64::MAX,
                ..RunSpec::new(&space, list.clone(), TrainConfig::default(), gpus)
            }
            .run()
            .unwrap_or_else(|e| panic!("{gpus} stages: {e}"));
            assert_eq!(run.result.final_hash, want.final_hash, "{gpus} stages");
        }
    }

    #[test]
    fn error_sources_chain_to_the_root_cause() {
        let root = TrainError::ChannelClosed {
            stage: 1,
            link: "successor",
        };
        let timeout = TrainError::Timeout {
            stage: 1,
            task: 7,
            cause: Some(Box::new(root.clone())),
        };
        let exhausted = TrainError::RecoveryExhausted {
            stage: 1,
            attempts: 2,
            last: Box::new(timeout.clone()),
        };
        let mid = exhausted.source().expect("exhausted chains to last");
        assert_eq!(mid.to_string(), timeout.to_string());
        let leaf = mid.source().expect("timeout chains to cause");
        assert_eq!(leaf.to_string(), root.to_string());
        assert!(leaf.source().is_none());
        assert_eq!(exhausted.stage(), 1);
    }
}

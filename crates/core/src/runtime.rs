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
//! only result shape. The supervisor resolves the spec once into an
//! immutable run context — subnets, dataset, fault injector, checkpoint
//! and durable stores, event bus, epoch, window, retry/timeout budget —
//! that every stage worker of every incarnation shares behind one `Arc`,
//! beside the state the worker itself mutates.
//!
//! # Supervision and recovery
//!
//! [`RunSpec::run`] wraps the stage workers in a supervisor.
//! Each worker carries an exit guard that notifies the supervisor when it
//! dies — normally, by error, or by panic. On the first failure the
//! supervisor broadcasts [`Msg::Stop`] and raises a shared shutdown flag,
//! so surviving workers park instead of cascading into spurious
//! [`TrainError::ChannelClosed`] failures (a supervisor-initiated
//! shutdown is *not* an error). The supervisor then classifies the root
//! cause (a panic, timeout or invariant breach beats the channel failures
//! it cascades into) and, when the failure is recoverable and the restart
//! budget allows, respawns every stage from the newest complete
//! CSP-watermark checkpoint (see [`crate::checkpoint`]) and replays only
//! the tasks past the watermark.
//!
//! Failure scenarios are injected deterministically from a
//! [`FaultPlan`] (see [`crate::fault`]): workers consult the shared
//! [`FaultInjector`] at task execution, send and receive sites, so a
//! seeded plan reproduces the same fault sequence — and, because fatal
//! faults pin the watermark they crash under, the same recovery schedule
//! — on every run.
//!
//! In debug builds every worker additionally feeds a shared
//! [`CspChecker`] — an independent re-derivation of the CSP contract,
//! re-registered fresh for every incarnation — so any admission the
//! sequential exploration order could not have produced aborts the run
//! with a [`TrainError::Invariant`]. Each worker also records per-stage
//! metrics into a private [`MetricsRecorder`](naspipe_obs::MetricsRecorder)
//! (task counts and latencies, queue depth, stall/bubble time, plus
//! retries, restarts and replayed tasks), merged across incarnations into
//! the run's [`ObsReport`](naspipe_obs::ObsReport).

use crate::checkpoint::{Checkpoint, CheckpointStore, StageSnapshot};
use crate::config::DiagnosticsOptions;
use crate::durable::{run_fingerprint, DurableError, DurableStore, DEFAULT_KEEP};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultSite, FiredFault};
use crate::partition::Partition;
use crate::pipeline::TaskRecord;
use crate::task::{FinishedSet, StageId, TaskKind};
use crate::train::{TrainConfig, TrainResult};
use naspipe_obs::telemetry::DEFAULT_SAMPLE_INTERVAL_US;
use naspipe_obs::{
    BusConfig, CauseKind, Counter, CspChecker, EventBus, MetricsRecorder, ObsReport, PoolWorkerObs,
    Recorder, RunEvent, RunMeta, Sample, SpanDraft, SpanId, SpanKind, SpanTrace, SpanTracer,
    TeeRecorder, TelemetryHub, TelemetryOptions, Tracer, Violation,
};
use naspipe_sim::time::SimTime;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::layers::DenseParams;
use naspipe_tensor::model::{ForwardCtx, NumericSupernet, ParamStore};
use naspipe_tensor::tensor::Tensor;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// directory with checkpointing off); nothing was started.
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

enum Msg {
    /// An activation, tagged with the forward span that produced it.
    Fwd(SubnetId, Tensor, SpanId),
    /// A gradient, tagged with the backward span that produced it.
    Bwd(SubnetId, Tensor, SpanId),
    /// Supervisor-initiated shutdown: park, do not treat as a failure.
    Stop,
}

/// What a stage worker hands back when it exits without an error.
struct StageOutput {
    params: Vec<Vec<DenseParams>>,
    losses: BTreeMap<u64, f32>,
    recorder: MetricsRecorder,
    tracer: SpanTracer,
    tasks: Vec<TaskRecord>,
}

/// How a worker exited: all subnets trained, or parked by the supervisor.
enum WorkerExit {
    Finished(StageOutput),
    Stopped(StageOutput),
}

/// Whether to keep running after a step (or park for the supervisor).
enum Flow {
    Continue,
    Stop,
}

/// Lightweight exit notification so the supervisor can react to a death
/// without joining (joins would block on still-running siblings).
enum ExitNote {
    Clean,
    Failed,
}

/// Sends a failure note if the worker unwinds without disarming — the
/// supervisor's panic detector.
struct ExitGuard {
    stage: usize,
    notify: Sender<(usize, ExitNote)>,
    armed: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.notify.send((self.stage, ExitNote::Failed));
        }
    }
}

/// The last completed backward — `(subnet, its span, its end µs)` — per
/// owned `(block, choice)` layer: what names the binding CSP writer of a
/// later forward. One slot per owned layer, so a lookup costs the
/// forward's slice layers and the whole table is bounded by the stage's
/// share of the supernet, however many subnets finish.
struct LastWriters {
    first_block: usize,
    // slots[block - first_block][choice]
    slots: Vec<Vec<Option<(u64, SpanId, u64)>>>,
}

impl LastWriters {
    /// Empty slots for the blocks from `first_block` on, `choices[i]`
    /// candidates in the `i`-th of them.
    fn new(first_block: usize, choices: &[u32]) -> Self {
        Self {
            first_block,
            slots: choices.iter().map(|&c| vec![None; c as usize]).collect(),
        }
    }

    /// `subnet`'s activated layers among the owned blocks, as slot
    /// coordinates.
    fn owned_layers<'a>(&self, subnet: &'a Subnet) -> impl Iterator<Item = (usize, usize)> + 'a {
        let first = self.first_block;
        (first..first + self.slots.len())
            .filter(|&b| !subnet.skips(b))
            .map(move |b| (b - first, subnet.layer(b).choice as usize))
    }

    /// Notes that `subnet`'s backward (span `span`) wrote its owned
    /// layers at `end_us`.
    fn record(&mut self, subnet: &Subnet, span: SpanId, end_us: u64) {
        for (b, c) in self.owned_layers(subnet) {
            self.slots[b][c] = Some((subnet.seq_id().0, span, end_us));
        }
    }

    /// The latest-finishing earlier writer of any layer `subnet` is
    /// about to read. Under CSP every slot `subnet` reads was last
    /// written by a subnet below it (a higher one sharing the layer is
    /// not admissible before `subnet` finishes here), so this is the
    /// writer a scan of every finished backward would name.
    fn latest(&self, subnet: &Subnet) -> Option<(u64, SpanId, u64)> {
        self.owned_layers(subnet)
            .filter_map(|(b, c)| self.slots[b][c])
            .inspect(|&(x, _, _)| debug_assert!(x < subnet.seq_id().0, "CSP: writer above reader"))
            .max_by_key(|&(x, _, end)| (end, x))
    }
}

/// What every stage worker of a run shares and none of them changes: the
/// [`RunSpec`] resolved once by the supervisor. A worker's own mutable
/// state lives in [`StageWorker`], beside an `Arc` of this.
struct RunContext {
    subnets: Vec<Subnet>,
    data: SyntheticDataset,
    train: TrainConfig,
    partition: Partition,
    // `choices[block]`: candidate count of every block of the space.
    choices: Vec<u32>,
    window: u64,
    // Fault tolerance.
    injector: FaultInjector,
    recv_timeout: Option<Duration>,
    ckpts: Option<CheckpointStore>,
    ckpt_interval: u64,
    epoch: Instant,
    // The run's shared sinks (flight ring, journal, ops-plane gauges).
    bus: EventBus,
}

impl RunContext {
    fn total(&self) -> u64 {
        self.subnets.len() as u64
    }
}

struct StageWorker {
    ctx: Arc<RunContext>,
    stage: usize,
    blocks: Range<usize>,
    engine: NumericSupernet,
    // Owned parameter slice: params[block - blocks.start][choice].
    params: Vec<Vec<DenseParams>>,
    rx: Receiver<Msg>,
    next_tx: Option<Sender<Msg>>,
    prev_tx: Option<Sender<Msg>>,
    // Where a cut this stage closes goes to be persisted (None =
    // in-memory checkpoints only).
    writer: Option<SyncSender<Handoff>>,
    // Queued work, each entry tagged with the producing span and its
    // wall-clock arrival (for causal-edge binding).
    fwd_queue: Vec<(SubnetId, Tensor, SpanId, u64)>,
    bwd_queue: BTreeMap<u64, (Tensor, SpanId, u64)>,
    ctxs: BTreeMap<u64, ForwardCtx>,
    finished: FinishedSet,
    finished_count: u64,
    injected: u64,
    losses: BTreeMap<u64, f32>,
    recorder: TeeRecorder,
    tracer: SpanTracer,
    incarnation: u32,
    /// The span that completed the checkpoint cut this incarnation
    /// resumed from ([`SpanId::EXTERNAL`] for incarnation 0 or a
    /// from-scratch replay) — the causal source of the `Restart` span.
    resume_span: SpanId,
    // The CSP admission cause of a forward is the latest of its layers'
    // last writers.
    writers: LastWriters,
    // Per-incarnation shared state: the debug-build invariant checker
    // and the supervisor's park request.
    checker: Option<Arc<Mutex<CspChecker>>>,
    shutdown: Arc<AtomicBool>,
    next_ckpt: u64,
    tasks: Vec<TaskRecord>,
}

impl StageWorker {
    /// Initialises this stage's own block range (a run that does not
    /// resume from a checkpoint; every stage does it on its own thread).
    fn init_params(&mut self) {
        let (ctx, blocks) = (&self.ctx, self.blocks.clone());
        self.params = blocks
            .map(|b| ParamStore::init_block(ctx.train.dim, ctx.train.seed, b, ctx.choices[b]))
            .collect();
    }

    fn layer_params(&self, layer: LayerRef) -> &DenseParams {
        &self.params[layer.block as usize - self.blocks.start][layer.choice as usize]
    }

    fn admissible(&self, y: SubnetId) -> bool {
        let subnet = &self.ctx.subnets[y.0 as usize];
        for x in self.finished.unfinished_below(y) {
            let earlier = &self.ctx.subnets[x.0 as usize];
            if subnet.conflicts_within(self.blocks.clone(), earlier) {
                return false;
            }
        }
        true
    }

    /// Feeds `event` to the shared invariant checker, if one is active.
    fn check(
        &self,
        event: impl FnOnce(&mut CspChecker) -> Result<(), Violation>,
    ) -> Result<(), TrainError> {
        if let Some(checker) = &self.checker {
            let mut guard = checker
                .lock()
                .map_err(|_| TrainError::StagePanicked { stage: self.stage })?;
            event(&mut guard).map_err(|violation| TrainError::Invariant {
                stage: self.stage,
                violation,
            })?;
        }
        Ok(())
    }

    fn into_output(mut self) -> StageOutput {
        // Attribute the compute-pool work this stage's kernels fanned
        // out (drained from thread-local accounting; runs on the worker
        // thread, before the pool binding is dropped). Job and chunk
        // counts are shape-derived, so they are identical across worker
        // counts; only busy time is timing-dependent.
        let pool = naspipe_tensor::pool::take_thread_stats();
        if pool.jobs > 0 {
            let stage = self.stage as u32;
            self.recorder.incr(stage, Counter::PoolJob, pool.jobs);
            self.recorder.incr(stage, Counter::PoolChunk, pool.chunks);
            self.recorder.incr(stage, Counter::PoolBusyUs, pool.busy_us);
            let jobs = pool.jobs;
            self.ctx
                .bus
                .emit(stage, self.now_us(), RunEvent::PoolJob { jobs });
        }
        StageOutput {
            params: self.params,
            losses: self.losses,
            recorder: self.recorder.into_inner(),
            tracer: self.tracer,
            tasks: self.tasks,
        }
    }

    /// Fires any execute-site fault scheduled for this task: a panic
    /// models a hard worker crash, a slow fault stalls the stage.
    fn fire_execute_fault(&self, y: SubnetId, kind: TaskKind) {
        let fired = self
            .ctx
            .injector
            .fire(self.stage as u32, y.0, kind, FaultSite::Execute);
        if fired.is_some() {
            let fault = RunEvent::Fault { subnet: y.0 };
            self.ctx.bus.emit(self.stage as u32, self.now_us(), fault);
        }
        match fired {
            Some(FaultKind::Panic) => panic!(
                "injected fault: stage {} panic at SN{}.{kind}",
                self.stage, y.0
            ),
            Some(FaultKind::Slow { delay_ms }) => {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            Some(FaultKind::ProcessKill) => {
                // A whole-process death (OOM kill, power cut): abort()
                // skips destructors and exit handlers, so nothing is
                // flushed — only durably persisted cuts survive. The
                // in-process supervisor cannot recover from this; the
                // crash-injection harness resumes from disk instead.
                eprintln!(
                    "naspipe: injected process kill at stage {} SN{}.{kind}",
                    self.stage, y.0
                );
                std::process::abort();
            }
            _ => {}
        }
    }

    /// Simulates `failures` consecutive channel errors with exponential
    /// backoff; exceeding the retry budget escalates to a fatal
    /// [`TrainError::Timeout`] chained to the underlying channel error.
    fn retry_backoff(
        &mut self,
        failures: u32,
        task: u64,
        link: &'static str,
    ) -> Result<(), TrainError> {
        let plan = self.ctx.injector.plan();
        let (max_retries, backoff_us) = (plan.max_retries(), plan.backoff_us());
        for attempt in 1..=failures {
            if attempt > max_retries {
                return Err(TrainError::Timeout {
                    stage: self.stage,
                    task,
                    cause: Some(Box::new(TrainError::ChannelClosed {
                        stage: self.stage,
                        link,
                    })),
                });
            }
            self.recorder.incr(self.stage as u32, Counter::Retry, 1);
            let backoff = backoff_us.saturating_mul(1 << (attempt - 1).min(10));
            std::thread::sleep(Duration::from_micros(backoff));
        }
        Ok(())
    }

    /// Sends `msg` to the successor (`to_next`) or predecessor stage,
    /// firing any scheduled transient send fault first. A send failure
    /// under an active shutdown is a park request, not an error.
    fn faulty_send(
        &mut self,
        to_next: bool,
        y: SubnetId,
        kind: TaskKind,
        msg: Msg,
    ) -> Result<Flow, TrainError> {
        let link = if to_next { "successor" } else { "predecessor" };
        if let Some(FaultKind::TransientSend { failures }) =
            self.ctx
                .injector
                .fire(self.stage as u32, y.0, kind, FaultSite::Send)
        {
            self.retry_backoff(failures, y.0, link)?;
        }
        let tx = if to_next {
            self.next_tx.as_ref().expect("non-last stage has successor")
        } else {
            self.prev_tx
                .as_ref()
                .expect("non-first stage has predecessor")
        };
        match tx.send(msg) {
            Ok(()) => Ok(Flow::Continue),
            Err(_) if self.shutdown.load(Ordering::Acquire) => Ok(Flow::Stop),
            Err(_) => Err(TrainError::ChannelClosed {
                stage: self.stage,
                link,
            }),
        }
    }

    /// Blocking receive; `Ok(None)` means the supervisor asked us to
    /// park (shutdown observed). Fault injection and enqueueing happen in
    /// [`accept_msg`](Self::accept_msg).
    fn recv_blocking(&mut self) -> Result<Option<Msg>, TrainError> {
        if let Some(timeout) = self.ctx.recv_timeout {
            match self.rx.recv_timeout(timeout) {
                Ok(m) => Ok(Some(m)),
                Err(RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                    Err(TrainError::Timeout {
                        stage: self.stage,
                        task: self.finished.first_unfinished().0,
                        cause: None,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => self.closed_inbound(),
            }
        } else {
            match self.rx.recv() {
                Ok(m) => Ok(Some(m)),
                Err(_) => self.closed_inbound(),
            }
        }
    }

    /// Fires any scheduled transient receive fault on `msg`, stamps its
    /// arrival, and enqueues it. `Flow::Stop` for a supervisor [`Msg::Stop`].
    fn accept_msg(&mut self, msg: Msg) -> Result<Flow, TrainError> {
        let (y, kind) = match &msg {
            Msg::Stop => return Ok(Flow::Stop),
            Msg::Fwd(y, _, _) => (*y, TaskKind::Forward),
            Msg::Bwd(y, _, _) => (*y, TaskKind::Backward),
        };
        if let Some(FaultKind::TransientRecv { failures }) =
            self.ctx
                .injector
                .fire(self.stage as u32, y.0, kind, FaultSite::Recv)
        {
            self.retry_backoff(failures, y.0, "inbound")?;
        }
        let now = self.now_us();
        match msg {
            Msg::Fwd(y, act, src) => self.fwd_queue.push((y, act, src, now)),
            Msg::Bwd(y, grad, src) => {
                self.bwd_queue.insert(y.0, (grad, src, now));
            }
            Msg::Stop => unreachable!("handled above"),
        }
        self.sample_queue_depth();
        Ok(Flow::Continue)
    }

    /// Moves every already-delivered message into the local queues, so
    /// arrival bursts are visible to queue-depth metrics and an arrived
    /// backward can preempt queued forwards without a blocking receive.
    fn drain_inbound(&mut self) -> Result<Flow, TrainError> {
        loop {
            match self.rx.try_recv() {
                Ok(msg) => {
                    if let Flow::Stop = self.accept_msg(msg)? {
                        return Ok(Flow::Stop);
                    }
                }
                // A disconnect surfaces through the blocking receive once
                // nothing is runnable; buffered messages drain first.
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {
                    return Ok(Flow::Continue)
                }
            }
        }
    }

    fn closed_inbound(&self) -> Result<Option<Msg>, TrainError> {
        if self.shutdown.load(Ordering::Acquire) {
            Ok(None)
        } else {
            Err(TrainError::ChannelClosed {
                stage: self.stage,
                link: "inbound",
            })
        }
    }

    fn record_task(&mut self, kind: TaskKind, y: SubnetId, started: Instant) {
        let start = self.us_since_epoch(started);
        let end = self.now_us();
        self.tasks.push(TaskRecord {
            start: SimTime::from_us(start),
            end: SimTime::from_us(end),
            kind,
            subnet: y,
            stage: StageId(self.stage as u32),
            blocks: self.blocks.clone(),
        });
    }

    fn now_us(&self) -> u64 {
        elapsed_us(self.ctx.epoch)
    }

    fn us_since_epoch(&self, at: Instant) -> u64 {
        let us = at.duration_since(self.ctx.epoch).as_micros();
        us.min(u64::MAX as u128) as u64
    }

    fn sample_queue_depth(&mut self) {
        self.recorder.sample(
            self.stage as u32,
            Sample::QueueDepth,
            (self.fwd_queue.len() + self.bwd_queue.len()) as u64,
        );
    }

    /// Emits the span of a just-completed task, bound to `cause`.
    fn emit_task_span(
        &mut self,
        kind: TaskKind,
        y: SubnetId,
        started: Instant,
        cause: (SpanId, CauseKind),
    ) -> SpanId {
        let start = self.us_since_epoch(started);
        let end = self.now_us();
        let sk = match kind {
            TaskKind::Forward => SpanKind::Forward,
            TaskKind::Backward => SpanKind::Backward,
        };
        self.tracer.emit(
            SpanDraft::new(self.stage as u32, sk, start, end)
                .subnet(y.0)
                .caused_by(cause.0, cause.1),
        )
    }

    /// Snapshots this stage's state into the checkpoint store when its
    /// finished prefix reaches the next watermark boundary. Thanks to
    /// the injection barrier in [`try_inject`](Self::try_inject), at
    /// that moment the stage's state is *exactly* the sequential state
    /// after `next_ckpt` subnets — no task of any later subnet has run
    /// anywhere — which the `debug_assert`s below audit.
    fn maybe_checkpoint(&mut self) {
        // Borrowed field by field: the context is read while the tracer
        // is written.
        let ctx = &*self.ctx;
        let Some(store) = &ctx.ckpts else {
            return;
        };
        let prefix = self.finished.first_unfinished().0;
        if self.next_ckpt <= prefix {
            debug_assert_eq!(
                prefix, self.next_ckpt,
                "stage {}: prefix skipped a watermark boundary",
                self.stage
            );
            debug_assert!(self.ctxs.is_empty(), "in-flight forward at watermark");
            debug_assert!(self.bwd_queue.is_empty(), "queued backward at watermark");
            debug_assert!(self.fwd_queue.is_empty(), "queued forward at watermark");
            let snap_start = elapsed_us(ctx.epoch);
            let snapshot = StageSnapshot {
                params: self.params.clone(),
                engine: self.engine.clone(),
                losses: self.losses.clone(),
            };
            let span = self.tracer.emit(SpanDraft::new(
                self.stage as u32,
                SpanKind::Checkpoint,
                snap_start,
                elapsed_us(ctx.epoch),
            ));
            // The store keeps the completing span per cut; a restart
            // resuming from this watermark names it as its cause.
            let completed = store.record(self.next_ckpt, self.stage, snapshot, span);
            // Reaching a cut boundary proves this stage finished every
            // subnet below it — the per-stage CSP watermark `/status`
            // reports (cut granularity keeps this off the hot path).
            let stage = self.stage as u32;
            let watermark = self.next_ckpt;
            ctx.bus.emit(
                stage,
                snap_start,
                RunEvent::CheckpointCut {
                    watermark,
                    completed: completed.is_some(),
                },
            );
            // The worker whose record completes the cut hands it over to be
            // persisted and goes back to training; no lock is held here.
            if let (Some(cut), Some(writer)) = (completed, &self.writer) {
                hand_over(writer, stage, cut, &ctx.bus, ctx.epoch);
            }
            self.next_ckpt += ctx.ckpt_interval;
        }
    }

    fn run_forward(
        &mut self,
        y: SubnetId,
        input: Tensor,
        src: SpanId,
        arrival_us: u64,
    ) -> Result<Flow, TrainError> {
        self.check(|c| c.on_admit_forward(y, self.stage as u32))?;
        let admission = RunEvent::Admission { subnet: y.0 };
        self.ctx
            .bus
            .emit(self.stage as u32, self.now_us(), admission);
        // Faults fire after `started` so an injected slowdown lands in
        // this task's latency sample — exactly what the straggler
        // detector watches.
        let started = Instant::now();
        self.fire_execute_fault(y, TaskKind::Forward);
        let subnet = &self.ctx.subnets[y.0 as usize];
        let (out, ctx) =
            self.engine
                .forward_slice(|l| self.layer_params(l), subnet, self.blocks.clone(), input);
        // Causal edge: the activation's arrival released this forward —
        // unless a CSP shared-layer writer finished later, in which case
        // admission (not data) was the binding constraint.
        let arrival_kind = if src.is_external() {
            CauseKind::Injection
        } else {
            CauseKind::ActivationArrival
        };
        let mut cause = (src, arrival_kind, arrival_us);
        if let Some((x, wspan, wend)) = self.writers.latest(subnet) {
            if wend > cause.2 {
                cause = (wspan, CauseKind::CspWriterCompletion { writer: x }, wend);
            }
        }
        if self.next_tx.is_none() {
            // The last stage: the loss closes the forward pass.
            let target = self.ctx.data.target_of(&self.ctx.data.input(y.0));
            let (loss, grad) = naspipe_tensor::loss::mse(&out, &target);
            self.losses.insert(y.0, loss);
            let span = self.emit_task_span(TaskKind::Forward, y, started, (cause.0, cause.1));
            // The gradient "arrives" from the local loss computation.
            let now = self.now_us();
            self.bwd_queue.insert(y.0, (grad, span, now));
            self.sample_queue_depth();
        } else {
            let span = self.emit_task_span(TaskKind::Forward, y, started, (cause.0, cause.1));
            if let Flow::Stop =
                self.faulty_send(true, y, TaskKind::Forward, Msg::Fwd(y, out, span))?
            {
                return Ok(Flow::Stop);
            }
        };
        self.ctxs.insert(y.0, ctx);
        self.record_task(TaskKind::Forward, y, started);
        let stage = self.stage as u32;
        self.recorder
            .sample(stage, Sample::ForwardLatencyUs, elapsed_us(started));
        self.recorder.incr(stage, Counter::ForwardTask, 1);
        Ok(Flow::Continue)
    }

    fn run_backward(
        &mut self,
        y: SubnetId,
        grad_out: Tensor,
        src: SpanId,
    ) -> Result<Flow, TrainError> {
        let started = Instant::now();
        self.fire_execute_fault(y, TaskKind::Backward);
        let ctx = self.ctxs.remove(&y.0).expect("forward context present");
        // Backward + apply on the owned slice.
        let (grad, grads) = self
            .engine
            .backward_slice(|l| self.layer_params(l), ctx, grad_out);
        for (layer, g) in grads.iter() {
            let params =
                &mut self.params[layer.block as usize - self.blocks.start][layer.choice as usize];
            self.engine.step_layer(*layer, params, g);
        }
        self.check(|c| c.on_backward_done(y, self.stage as u32))?;
        let span = self.emit_task_span(
            TaskKind::Backward,
            y,
            started,
            (src, CauseKind::GradientArrival),
        );
        let done_at = self.now_us();
        self.writers
            .record(&self.ctx.subnets[y.0 as usize], span, done_at);
        if self.prev_tx.is_some() {
            if let Flow::Stop =
                self.faulty_send(false, y, TaskKind::Backward, Msg::Bwd(y, grad, span))?
            {
                return Ok(Flow::Stop);
            }
        }
        self.finished.insert(y);
        self.finished_count += 1;
        self.record_task(TaskKind::Backward, y, started);
        let stage = self.stage as u32;
        self.recorder
            .sample(stage, Sample::BackwardLatencyUs, elapsed_us(started));
        self.recorder.incr(stage, Counter::BackwardTask, 1);
        Ok(Flow::Continue)
    }

    fn try_inject(&mut self) {
        debug_assert_eq!(self.stage, 0);
        while self.injected < self.ctx.total()
            && self.injected - self.finished_count < self.ctx.window
        {
            // Injection barrier (no-op when checkpointing is off): a
            // subnet enters the pipeline only once the finished prefix
            // has reached the start of its checkpoint epoch, so every
            // watermark is a consistent cut (no task past it exists
            // anywhere before all stages snapshot it). Stage 0's
            // backward is the causally last task of each subnet, so its
            // prefix IS the global watermark.
            if let Some(epochs) = self.injected.checked_div(self.ctx.ckpt_interval) {
                let epoch_start = epochs * self.ctx.ckpt_interval;
                if epoch_start > self.finished.first_unfinished().0 {
                    break;
                }
            }
            let y = SubnetId(self.injected);
            let input = self.ctx.data.input(y.0);
            let now = self.now_us();
            self.fwd_queue.push((y, input, SpanId::EXTERNAL, now));
            self.sample_queue_depth();
            self.injected += 1;
        }
    }

    fn run(mut self) -> Result<WorkerExit, TrainError> {
        let stage = self.stage as u32;
        if self.incarnation > 0 {
            // Mark the respawn; spans of replayed tasks follow it in
            // time. The causal source is the checkpoint span that
            // completed the cut we resumed from, so the recovery chain
            // shows up as a flow in the exported trace.
            let t = self.now_us();
            self.tracer
                .emit(SpanDraft::new(stage, SpanKind::Restart, t, t).caused_by(
                    self.resume_span,
                    CauseKind::RecoveryReplay {
                        incarnation: self.incarnation,
                    },
                ));
        }
        while self.finished_count < self.ctx.total() {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(WorkerExit::Stopped(self.into_output()));
            }
            // Snapshot before injecting: at a boundary the queues are
            // provably empty, and injection must not race the cut.
            self.maybe_checkpoint();
            if self.stage == 0 {
                self.try_inject();
            }
            // Pull every delivered message before picking work, so a
            // burst shows up in the queue-depth metrics and a delivered
            // backward takes priority over queued forwards.
            if let Flow::Stop = self.drain_inbound()? {
                return Ok(WorkerExit::Stopped(self.into_output()));
            }
            self.sample_queue_depth();
            // Backwards first (they resolve dependencies).
            if let Some((&id, _)) = self.bwd_queue.iter().next() {
                if !self.fwd_queue.is_empty() {
                    self.recorder.incr(stage, Counter::BackwardPreemption, 1);
                }
                let (grad, src, _arrival) = self.bwd_queue.remove(&id).expect("present");
                match self.run_backward(SubnetId(id), grad, src)? {
                    Flow::Continue => continue,
                    Flow::Stop => return Ok(WorkerExit::Stopped(self.into_output())),
                }
            }
            // Then the first admissible forward (Algorithm 2).
            let pick = self
                .fwd_queue
                .iter()
                .position(|(id, _, _, _)| self.admissible(*id));
            if let Some(i) = pick {
                let (y, input, src, arrival) = self.fwd_queue.remove(i);
                match self.run_forward(y, input, src, arrival)? {
                    Flow::Continue => continue,
                    Flow::Stop => return Ok(WorkerExit::Stopped(self.into_output())),
                }
            }
            // Nothing runnable: block for a message. Idle time with work
            // queued is a causal stall; with an empty queue it is a
            // pipeline bubble.
            let blocked = !self.fwd_queue.is_empty();
            if blocked {
                // Forwards queued but none admissible: a CSP stall.
                let queued = self.fwd_queue.len() as u64;
                self.ctx
                    .bus
                    .emit(stage, self.now_us(), RunEvent::CspStall { queued });
            }
            let waiting = Instant::now();
            let Some(msg) = self.recv_blocking()? else {
                return Ok(WorkerExit::Stopped(self.into_output()));
            };
            let idle = if blocked {
                Counter::StallUs
            } else {
                Counter::BubbleUs
            };
            self.recorder.incr(stage, idle, elapsed_us(waiting));
            if let Flow::Stop = self.accept_msg(msg)? {
                return Ok(WorkerExit::Stopped(self.into_output()));
            }
        }
        Ok(WorkerExit::Finished(self.into_output()))
    }
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
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
    /// Tasks whose effects a rollback discarded (they re-ran after the
    /// resume watermark). Timing-dependent: how far past the crash
    /// point other stages raced is scheduling luck, so this is excluded
    /// from [`schedule`](Self::schedule).
    pub replayed_tasks: u64,
    /// Wall time spent between detecting failures and completing the
    /// respawns, in microseconds. Timing-dependent.
    pub recovery_latency_us: u64,
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
    /// Per-stage observability merged across all incarnations.
    pub report: ObsReport,
    /// What the supervisor did.
    pub recovery: RecoveryReport,
    /// The effective task stream: a synthetic sequential prefix for the
    /// subnets below the final resume watermark, then the last
    /// incarnation's recorded tasks in start order — suitable for
    /// [`verify_csp_order_parts`](crate::repro::verify_csp_order_parts).
    pub tasks: Vec<TaskRecord>,
    /// The subnets trained, in exploration order.
    pub subnets: Vec<Subnet>,
    /// Causal span trace, merged across every stage worker and
    /// incarnation (wall-clock µs since run start).
    pub spans: SpanTrace,
}

/// The paper's `|L_q|`: how many subnets may be in flight at once.
pub const DEFAULT_WINDOW: u64 = 30;

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
    /// Live telemetry (default `None`): stage workers tee every metric
    /// into the hub as it happens, and a sampler thread — which outlives
    /// supervisor restarts — publishes a snapshot every
    /// `sample_interval_us` of wall time plus a final one on every exit
    /// path, after the workers have joined. The sampled series is
    /// embedded in the returned report.
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

    /// The shapes an outside caller (the CLI) can reach.
    fn validate(&self) -> Result<(), TrainError> {
        let why = if self.gpus == 0 {
            "gpus must be positive"
        } else if self.window == 0 {
            "window must be positive"
        } else if self.durable.is_some() && self.recovery.checkpoint_interval == 0 {
            "durable checkpoints need checkpoint_interval > 0"
        } else {
            return Ok(());
        };
        Err(TrainError::InvalidSpec(why.to_string()))
    }

    /// Runs the spec under the supervisor.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidSpec`] for zero `gpus`/`window` or `durable`
    /// without a checkpoint interval; [`TrainError::Durable`] when the
    /// snapshot directory cannot be opened or a resume hits an I/O
    /// failure; the root-cause [`TrainError`] for unrecoverable failures
    /// (CSP invariant breaches in debug builds, root-cause channel
    /// closures, or any failure with `max_restarts == 0`); and
    /// [`TrainError::RecoveryExhausted`] when the restart budget runs
    /// out.
    ///
    /// # Panics
    ///
    /// Panics if `subnets` is not consecutively numbered from 0 or a
    /// subnet is invalid for `space` — caller bugs, not inputs.
    pub fn run(self) -> Result<SupervisedRun, TrainError> {
        self.validate()?;
        let (space, cfg, gpus) = (self.space, self.train, self.gpus);
        let (subnets, opts, diag) = (self.subnets, self.recovery, self.diagnostics);
        for (i, s) in subnets.iter().enumerate() {
            assert_eq!(s.seq_id().0, i as u64, "subnets must be numbered from 0");
            assert!(s.is_valid_for(space), "subnet {s} invalid for space");
        }
        if opts.fault_plan.fatal_faults().next().is_some() {
            crate::fault::silence_injected_panics();
        }
        let m = space.num_blocks();
        let total = subnets.len() as u64;
        // The run's shared sinks. Built first: the durable resume below
        // already has notices to emit.
        let bus = EventBus::new(BusConfig {
            engine: "threaded",
            stages: gpus,
            enabled: diag.enabled,
            watchdog: &diag.watchdog,
            flight_dump: diag.flight_dump.as_deref(),
            ops: diag.ops.as_ref(),
            telemetry: self.telemetry.as_ref(),
            wall_clock: true,
        });

        // Durable persistence: open the on-disk store (and optionally
        // load the newest valid cut) before any worker starts, so a bad
        // snapshot directory fails fast and a resume seeds every
        // incarnation below.
        let (durable, initial_resume) = match &self.durable {
            Some(d) => {
                let fp = run_fingerprint(space, &subnets, &cfg, gpus, opts.checkpoint_interval);
                let store = DurableStore::open(&d.dir, d.keep, fp)
                    .map_err(|cause| TrainError::Durable { cause })?;
                let shape = (gpus, total, opts.checkpoint_interval);
                let cut = if d.resume {
                    load_durable_cut(&store, shape, &bus)?
                } else {
                    None
                };
                (Some(store), cut)
            }
            None => (None, None),
        };

        // Resolve the spec once into what every worker of every
        // incarnation shares.
        let ctx = Arc::new(RunContext {
            data: SyntheticDataset::new(cfg.seed, cfg.rows, cfg.dim),
            train: cfg,
            partition: Partition::balanced(&vec![1.0; m], gpus),
            choices: (0..m).map(|b| space.block(b).num_choices()).collect(),
            window: self.window,
            injector: FaultInjector::new(opts.fault_plan),
            recv_timeout: opts.recv_timeout_ms.map(Duration::from_millis),
            ckpts: (opts.checkpoint_interval > 0).then(|| CheckpointStore::new(gpus as usize)),
            ckpt_interval: opts.checkpoint_interval,
            epoch: Instant::now(),
            bus,
            subnets,
        });
        let (bus, epoch) = (&ctx.bus, ctx.epoch);
        // Snapshot the shared compute pool's counters so the final report
        // attributes only this run's fan-out work.
        let compute_threads = cfg.threads;
        let pool_base = naspipe_tensor::pool::shared(compute_threads).stats();
        // Publish the run shape and flip `/readyz` to admitting-work before
        // any stage thread starts.
        bus.start(total);
        // The sampler owns snapshot publication for the whole run (all
        // incarnations); its drop guard publishes a final snapshot on every
        // exit path, after the workers have joined.
        let telemetry = self.telemetry.as_ref();
        let interval_us = telemetry.map_or(DEFAULT_SAMPLE_INTERVAL_US, |t| t.interval_us());
        let mut sampler = bus.hub().map(|hub| {
            let pool = naspipe_tensor::pool::shared(compute_threads);
            TelemetrySampler::start(
                SamplerTick {
                    bus: bus.clone(),
                    hub: Arc::clone(hub),
                    epoch,
                    pool,
                    pool_base: pool_base.clone(),
                },
                interval_us,
            )
        });

        // Owns the durable store for the whole run. Declared after the
        // sampler: on every exit path it is joined before the final sample.
        let mut writer = durable.map(|store| DurableWriter::start(store, bus.clone(), epoch));

        let mut master = MetricsRecorder::new();
        // The supervisor's own recovery accounting, mirrored into the hub
        // like any worker's counters and merged into `master` at the end.
        let mut supervisor = TeeRecorder::new(bus.hub().cloned());
        let mut spans = SpanTrace::default();
        let mut recovery = RecoveryReport::default();
        let mut attributed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut incarnation: u32 = 0;

        // Seed the in-memory checkpoint store with the durable cut: every
        // incarnation resumes from the store's newest complete cut, so
        // incarnation 0 starts exactly as the uninterrupted run's workers
        // stood after that watermark and no restart falls below it.
        if let Some(cut) = initial_resume {
            let store = ctx.ckpts.as_ref().expect("validated: durable has cuts");
            for (k, s) in cut.stages.into_iter().enumerate() {
                store.record(cut.watermark, k, s, SpanId::EXTERNAL);
                supervisor.incr(k as u32, Counter::DurableResume, 1);
            }
        }

        loop {
            let resume = ctx.ckpts.as_ref().and_then(|s| s.latest_complete());
            let resume_w = resume.as_ref().map_or(0, |c| c.watermark);
            if incarnation > 0 {
                recovery.resume_watermarks.push(resume_w);
            }
            // Debug builds cross-check the runtime's interleaving against
            // the CSP contract — a fresh checker per incarnation, with the
            // already-trained prefix retired.
            let checker = if cfg!(debug_assertions) {
                let mut c = CspChecker::new();
                for s in ctx.subnets.iter() {
                    let layers = s.layers().map(|l| {
                        let owner = ctx
                            .partition
                            .stage_of_block(l.block as usize)
                            .map(|s| s.0)
                            .unwrap_or(0);
                        (l, owner)
                    });
                    c.register(s.seq_id(), layers)
                        .expect("subnets numbered uniquely");
                }
                c.retire_below(SubnetId(resume_w));
                Some(Arc::new(Mutex::new(c)))
            } else {
                None
            };

            let shutdown = Arc::new(AtomicBool::new(false));
            let (notify_tx, notify_rx) = channel::<(usize, ExitNote)>();

            // Channels: stage k receives from one rx; neighbours hold its
            // tx. The supervisor keeps a clone of every tx so it can
            // broadcast Stop and wake recv-blocked workers on a failure.
            let mut txs = Vec::with_capacity(gpus as usize);
            let mut rxs = Vec::with_capacity(gpus as usize);
            for _ in 0..gpus {
                let (tx, rx) = channel();
                txs.push(tx);
                rxs.push(rx);
            }

            let mut handles = Vec::with_capacity(gpus as usize);
            for k in (0..gpus as usize).rev() {
                let blocks = ctx.partition.stage_range(StageId(k as u32));
                // Without a checkpoint the worker initialises its own block
                // range on its own thread (below), all stages at once.
                let (params, engine, losses) = match &resume {
                    Some(ckpt) => {
                        let s = &ckpt.stages[k];
                        (s.params.clone(), s.engine.clone(), s.losses.clone())
                    }
                    None => (Vec::new(), cfg.engine(), BTreeMap::new()),
                };
                let mut finished = FinishedSet::new();
                for y in 0..resume_w {
                    finished.insert(SubnetId(y));
                }
                let mut worker = StageWorker {
                    ctx: Arc::clone(&ctx),
                    stage: k,
                    writers: LastWriters::new(blocks.start, &ctx.choices[blocks.clone()]),
                    blocks,
                    engine,
                    params,
                    rx: rxs.remove(k),
                    next_tx: txs.get(k + 1).cloned(),
                    prev_tx: k.checked_sub(1).map(|p| txs[p].clone()),
                    writer: writer.as_ref().and_then(|w| w.tx.clone()),
                    fwd_queue: Vec::new(),
                    bwd_queue: BTreeMap::new(),
                    ctxs: BTreeMap::new(),
                    finished,
                    finished_count: resume_w,
                    injected: resume_w,
                    losses,
                    recorder: TeeRecorder::new(bus.hub().cloned()),
                    // Distinct id namespace per (incarnation, stage) so the
                    // merged trace never collides.
                    tracer: SpanTracer::with_namespace(
                        u64::from(incarnation) * u64::from(gpus) + k as u64,
                    ),
                    incarnation,
                    resume_span: resume.as_ref().map_or(SpanId::EXTERNAL, |c| c.cut_span),
                    checker: checker.clone(),
                    shutdown: Arc::clone(&shutdown),
                    next_ckpt: resume_w + opts.checkpoint_interval,
                    tasks: Vec::new(),
                };
                let fresh = resume.is_none();
                let notify = notify_tx.clone();
                handles.push((
                    k,
                    std::thread::spawn(move || {
                        let mut guard = ExitGuard {
                            stage: k,
                            notify,
                            armed: true,
                        };
                        // Each stage worker runs its numeric kernels on the
                        // configured compute pool — the software analogue of
                        // each pipeline stage owning one GPU.
                        let out = naspipe_tensor::pool::with_threads(compute_threads, || {
                            if fresh {
                                worker.init_params();
                            }
                            worker.run()
                        });
                        guard.armed = false;
                        let note = match &out {
                            Ok(_) => ExitNote::Clean,
                            Err(_) => ExitNote::Failed,
                        };
                        let _ = guard.notify.send((k, note));
                        out
                    }),
                ));
            }
            drop(notify_tx);

            // React to the first death: raise the shutdown flag and wake
            // every worker, so survivors park instead of cascading.
            let mut failure_detected: Option<Instant> = None;
            for _ in 0..gpus {
                let (_, note) = notify_rx.recv().expect("every worker notifies once");
                if matches!(note, ExitNote::Failed) && failure_detected.is_none() {
                    failure_detected = Some(Instant::now());
                    shutdown.store(true, Ordering::Release);
                    for tx in &txs {
                        let _ = tx.send(Msg::Stop);
                    }
                }
            }
            drop(txs);

            // Join and classify: a root-cause error (panic, invariant
            // breach, timeout) beats the channel failures it cascades into.
            let mut first_error: Option<TrainError> = None;
            let mut salvaged: Vec<(usize, StageOutput)> = Vec::new();
            let mut finished_outputs: Vec<(usize, StageOutput)> = Vec::new();
            for (k, handle) in handles {
                match handle.join() {
                    Ok(Ok(WorkerExit::Finished(out))) => finished_outputs.push((k, out)),
                    Ok(Ok(WorkerExit::Stopped(out))) => salvaged.push((k, out)),
                    Ok(Err(err)) => note_error(&mut first_error, err),
                    Err(_) => note_error(&mut first_error, TrainError::StagePanicked { stage: k }),
                }
            }

            // The workers are joined, nothing more is handed over: the cut
            // in flight lands before this incarnation's restart, end or
            // failure notice.
            if let Some(w) = &writer {
                w.drain();
            }

            for i in ctx.injector.fired_indices() {
                if attributed.insert(i) {
                    recovery.faults_fired.push(FiredFault {
                        incarnation,
                        fault: ctx.injector.fault(i),
                    });
                }
            }

            let Some(err) = first_error else {
                // Success: every stage finished. Move the slices (stage
                // ranges are contiguous and ascending) into one store and
                // assemble the effective task stream.
                debug_assert_eq!(finished_outputs.len(), gpus as usize);
                let mut params: Vec<Vec<DenseParams>> = Vec::with_capacity(m);
                let mut losses: BTreeMap<u64, f32> = BTreeMap::new();
                let mut real_tasks: Vec<TaskRecord> = Vec::new();
                finished_outputs.sort_by_key(|(k, _)| *k);
                for (k, out) in finished_outputs {
                    debug_assert_eq!(
                        ctx.partition.stage_range(StageId(k as u32)).start,
                        params.len()
                    );
                    params.extend(out.params);
                    losses.extend(out.losses);
                    master.merge(&out.recorder);
                    let mut tracer = out.tracer;
                    spans.merge(tracer.take());
                    real_tasks.extend(out.tasks);
                }
                // Stable by-start sort keeps each stage's (already ordered)
                // stream in order; cross-stage ties don't affect per-layer
                // access order because each layer has one owner stage.
                real_tasks.sort_by_key(|t| t.start);
                let mut tasks = sequential_prefix_tasks(resume_w, &ctx.partition, gpus);
                tasks.extend(real_tasks);
                let wall_us = elapsed_us(epoch);
                let pool_run = naspipe_tensor::pool::shared(compute_threads)
                    .stats()
                    .since(&pool_base);
                // Stop the sampler first: its shutdown publishes the final
                // snapshot (workers have joined, so the hub is complete),
                // which must be in the series the report embeds.
                if let Some(w) = writer.as_mut() {
                    master.merge(&w.finish());
                }
                if let Some(s) = sampler.as_mut() {
                    s.finish();
                }
                master.merge(supervisor.inner());
                let report = master
                    .report(wall_us)
                    .with_meta(RunMeta::new("threaded", gpus).seed(cfg.seed))
                    .with_pool(pool_worker_obs(&pool_run, wall_us));
                let report = bus.finish(report, total, Some(recovery.restarts));
                let subnets = match Arc::try_unwrap(ctx) {
                    Ok(ctx) => ctx.subnets,
                    Err(shared) => shared.subnets.clone(),
                };
                let store = ParamStore::from_blocks(cfg.dim, params);
                return Ok(SupervisedRun {
                    result: TrainResult {
                        losses: losses.into_iter().collect(),
                        final_hash: store.bitwise_hash(),
                        store,
                    },
                    report,
                    recovery,
                    tasks,
                    subnets,
                    spans,
                });
            };

            if !err.is_recoverable() || recovery.restarts >= opts.max_restarts {
                let failed = RunEvent::RunFailed { error: &err };
                bus.emit(err.stage() as u32, elapsed_us(epoch), failed);
                return Err(if !err.is_recoverable() || opts.max_restarts == 0 {
                    err // unrecoverable, or recovery disabled: the root cause itself
                } else {
                    TrainError::RecoveryExhausted {
                        stage: err.stage(),
                        attempts: recovery.restarts,
                        last: Box::new(err),
                    }
                });
            }

            // Account the failed incarnation: salvage metrics from the
            // workers that survived, and count the tasks past the resume
            // watermark whose effects the rollback discards.
            let next_resume = ctx.ckpts.as_ref().and_then(|s| s.latest_complete());
            let next_resume = next_resume.map_or(0, |c| c.watermark);
            salvaged.extend(finished_outputs);
            for (k, out) in salvaged {
                master.merge(&out.recorder);
                let mut tracer = out.tracer;
                spans.merge(tracer.take());
                let replayed = out
                    .tasks
                    .iter()
                    .filter(|t| t.subnet.0 >= next_resume)
                    .count() as u64;
                recovery.replayed_tasks += replayed;
                supervisor.incr(k as u32, Counter::ReplayedTask, replayed);
            }
            recovery.restarts += 1;
            for k in 0..gpus {
                supervisor.incr(k, Counter::Restart, 1);
            }
            incarnation += 1;
            bus.emit(
                err.stage() as u32,
                elapsed_us(epoch),
                RunEvent::Restart {
                    incarnation,
                    watermark: next_resume,
                    error: &err,
                },
            );
            if let Some(at) = failure_detected {
                recovery.recovery_latency_us += elapsed_us(at);
            }
        }
    }
}

/// Loads the newest valid cut from `store` for a `--resume`, reporting
/// skipped files, the resume or the fall back to a fresh start on `bus`.
/// `shape` is the run's `(stages, subnets, checkpoint interval)`.
fn load_durable_cut(
    store: &DurableStore,
    shape: (u32, u64, u64),
    bus: &EventBus,
) -> Result<Option<Checkpoint>, TrainError> {
    let (gpus, total, interval) = shape;
    let skip = |skipped: &[(PathBuf, String)]| {
        for (path, why) in skipped {
            bus.emit(0, 0, RunEvent::DurableSkip { path, why });
        }
    };
    match store.load_latest() {
        Ok(loaded) => {
            skip(&loaded.skipped);
            let cut = loaded.checkpoint;
            // The fingerprint already pins gpus/interval/stream; this is
            // a belt-and-braces shape check.
            if cut.stages.len() != gpus as usize
                || cut.watermark > total
                || !cut.watermark.is_multiple_of(interval)
            {
                return Err(TrainError::Durable {
                    cause: DurableError::Corrupt {
                        path: loaded.path,
                        detail: format!(
                            "cut with {} stages at watermark {} does not fit this \
                             run ({gpus} stages, {total} subnets, interval {interval})",
                            cut.stages.len(),
                            cut.watermark,
                        ),
                    },
                });
            }
            let (watermark, path) = (cut.watermark, &*loaded.path);
            bus.emit(0, 0, RunEvent::DurableResume { watermark, path });
            Ok(Some(cut))
        }
        Err(DurableError::NoSnapshot { dir, skipped }) => {
            skip(&skipped);
            bus.emit(0, 0, RunEvent::DurableScratch { dir: &dir });
            Ok(None)
        }
        Err(cause) => Err(TrainError::Durable { cause }),
    }
}

/// The one threaded entry point `benchmark/src/workloads.rs` links by
/// name; the harness is frozen outside `benchmark` PRs, so this stays
/// until the `benchmark` PR that moves it to [`RunSpec`] (ROADMAP 1b),
/// and 1c deletes it. `window == 0` is the harness's "default".
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
}

/// One wall-clock sample: the shared pool's run delta goes into the hub,
/// then the hub's snapshot goes to the bus (ring, progress line,
/// watchdog).
struct SamplerTick {
    bus: EventBus,
    hub: Arc<TelemetryHub>,
    epoch: Instant,
    pool: Arc<naspipe_tensor::pool::ComputePool>,
    pool_base: naspipe_tensor::pool::PoolStats,
}

impl SamplerTick {
    fn sample(&self) {
        let stats = self.pool.stats().since(&self.pool_base);
        self.hub.set_pool(stats.jobs, stats.chunks, stats.busy_us);
        let snap = self.hub.snapshot(elapsed_us(self.epoch));
        self.bus.sample(snap, true, true);
    }
}

/// The wall-clock sampler behind [`RunSpec::telemetry`]: a thread
/// that takes a [`SamplerTick`] every interval. Stopping it (explicitly
/// via [`finish`](Self::finish) or implicitly on drop, so every
/// supervisor exit path is covered) takes one final sample over the
/// complete totals, so a straggler only visible in the closing window is
/// still caught.
struct TelemetrySampler {
    stop: Sender<()>,
    handle: Option<std::thread::JoinHandle<SamplerTick>>,
}

impl TelemetrySampler {
    fn start(tick: SamplerTick, interval_us: u64) -> Self {
        let (stop, stop_rx) = channel::<()>();
        let interval = Duration::from_micros(interval_us);
        let handle = std::thread::Builder::new()
            .name("naspipe-sampler".to_string())
            .spawn(move || {
                // recv_timeout doubles as the interval clock and the
                // prompt-shutdown channel.
                while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                    tick.sample();
                }
                tick
            })
            .expect("spawn telemetry sampler");
        TelemetrySampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler thread and takes the final sample. Idempotent;
    /// also runs on drop.
    fn finish(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let _ = self.stop.send(());
        if let Ok(tick) = handle.join() {
            tick.sample();
        }
    }
}

impl Drop for TelemetrySampler {
    fn drop(&mut self) {
        self.finish();
    }
}

/// What stage workers and the supervisor send the [`DurableWriter`].
enum Handoff {
    /// `stage` closed `cut`: persist it.
    Cut { stage: u32, cut: Arc<Checkpoint> },
    /// Nothing to do: being taken is the point ([`DurableWriter::drain`]).
    Drain,
}

/// Hands `cut` (the checkpoint store's own copy, shared), which `stage`
/// closed, to the writer thread, waiting only while the previous cut is
/// still being written. A dead writer is reported like any failed
/// persist: the in-memory checkpoints still cover in-process recovery.
fn hand_over(
    writer: &SyncSender<Handoff>,
    stage: u32,
    cut: Arc<Checkpoint>,
    bus: &EventBus,
    epoch: Instant,
) {
    let watermark = cut.watermark;
    if writer.send(Handoff::Cut { stage, cut }).is_err() {
        let error: &dyn fmt::Display = &"the snapshot writer thread is gone";
        let failed = RunEvent::DurablePersistFailed { watermark, error };
        bus.emit(stage, elapsed_us(epoch), failed);
    }
}

/// The snapshot writer behind [`RunSpec::durable`]: one thread per run
/// that owns the [`DurableStore`], so no stage thread stands in `persist`.
/// Cuts arrive over a rendezvous channel — a send returns when the writer
/// *takes* the message, which it does only between persists — so they
/// reach disk in hand-off (= watermark) order, at most one in flight:
/// cut `W` is on disk before cut `W + interval` is handed over, and a
/// kill loses at most the newest cut.
struct DurableWriter {
    tx: Option<SyncSender<Handoff>>,
    handle: Option<std::thread::JoinHandle<MetricsRecorder>>,
}

impl DurableWriter {
    fn start(store: DurableStore, bus: EventBus, epoch: Instant) -> Self {
        let (tx, rx) = sync_channel(0);
        let handle = std::thread::Builder::new()
            .name("naspipe-durable".to_string())
            .spawn(move || {
                let mut recorder = TeeRecorder::new(bus.hub().cloned());
                // Ends when the supervisor's sender, the last, is dropped.
                while let Ok(msg) = rx.recv() {
                    let Handoff::Cut { stage, cut } = msg else {
                        continue;
                    };
                    let watermark = cut.watermark;
                    // Persist failures are non-fatal: a full disk
                    // degrades durability, not training.
                    let persisted = store.persist(&cut);
                    drop(cut);
                    let event = match &persisted {
                        Ok(_) => {
                            // Counted for the stage that closed the cut.
                            recorder.incr(stage, Counter::DurablePersist, 1);
                            RunEvent::DurablePersist { watermark }
                        }
                        Err(error) => RunEvent::DurablePersistFailed { watermark, error },
                    };
                    bus.emit(stage, elapsed_us(epoch), event);
                }
                recorder.into_inner()
            })
            .expect("spawn snapshot writer");
        DurableWriter {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Returns once every cut handed over so far is on disk (or reported
    /// failed): the writer takes this message only after finishing those.
    fn drain(&self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Handoff::Drain);
        }
    }

    /// Drains and joins the writer (the workers, whose senders keep it
    /// alive, must be joined) and returns its counters. Idempotent; also
    /// runs on drop, so nothing is written after any supervisor exit.
    fn finish(&mut self) -> MetricsRecorder {
        self.tx = None;
        let joined = self.handle.take().and_then(|h| h.join().ok());
        joined.unwrap_or_default()
    }
}

impl Drop for DurableWriter {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Maps one run's compute-pool counter delta to the report's per-worker
/// utilisation rows; empty when the run fanned nothing out, so reports
/// without pool activity keep their compact schema-2 rendering.
fn pool_worker_obs(stats: &naspipe_tensor::pool::PoolStats, wall_us: u64) -> Vec<PoolWorkerObs> {
    if stats.jobs == 0 {
        return Vec::new();
    }
    stats
        .workers
        .iter()
        .enumerate()
        .map(|(worker, &(chunks, busy_us))| PoolWorkerObs {
            worker,
            chunks,
            busy_us,
            idle_us: wall_us.saturating_sub(busy_us),
        })
        .collect()
}

/// Root-cause preference: anything beats a secondary channel closure;
/// otherwise first error wins.
fn note_error(first: &mut Option<TrainError>, err: TrainError) {
    let replace = match first {
        None => true,
        Some(existing) => existing.is_secondary() && !err.is_secondary(),
    };
    if replace {
        *first = Some(err);
    }
}

/// Synthesises the task stream a sequential run would have produced for
/// subnets `0..upto` — the prefix a recovered run did not re-execute.
/// Per layer this yields `yF-yB` pairs in ascending subnet order at the
/// owning stage, exactly what
/// [`verify_csp_order_parts`](crate::repro::verify_csp_order_parts)
/// requires of the checkpointed prefix.
fn sequential_prefix_tasks(upto: u64, partition: &Partition, gpus: u32) -> Vec<TaskRecord> {
    let task = |kind, y, k| TaskRecord {
        start: SimTime::from_us(0),
        end: SimTime::from_us(0),
        kind,
        subnet: SubnetId(y),
        stage: StageId(k),
        blocks: partition.stage_range(StageId(k)),
    };
    let mut tasks = Vec::with_capacity(upto as usize * gpus as usize * 2);
    for y in 0..upto {
        tasks.extend((0..gpus).map(|k| task(TaskKind::Forward, y, k)));
        tasks.extend((0..gpus).rev().map(|k| task(TaskKind::Backward, y, k)));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::verify_csp_order_parts;
    use crate::train::sequential_training;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use std::error::Error as _;

    fn space() -> SearchSpace {
        SearchSpace::uniform(Domain::Nlp, 8, 5)
    }

    fn subnets(space: &SearchSpace, n: usize) -> Vec<Subnet> {
        UniformSampler::new(space, 99).take_subnets(n)
    }

    #[test]
    fn threaded_csp_matches_sequential_bitwise() {
        let space = space();
        let list = subnets(&space, 30);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        // Every stage initialises its own block range; together they
        // must be the store `sequential_training` starts from.
        for gpus in [1, 2, 3, 4] {
            let res = RunSpec::new(&space, list.clone(), cfg, gpus)
                .run()
                .expect("threaded run succeeds")
                .result;
            assert_eq!(
                res.final_hash, seq.final_hash,
                "threaded run on {gpus} threads diverged"
            );
            assert_eq!(res.losses, seq.losses);
        }
    }

    #[test]
    fn repeated_threaded_runs_are_bitwise_equal() {
        // Thread timing varies between runs; results must not.
        let space = space();
        let list = subnets(&space, 25);
        let cfg = TrainConfig::default();
        let spec = RunSpec {
            window: 8,
            ..RunSpec::new(&space, list, cfg, 4)
        };
        let a = spec.clone().run().unwrap().result;
        let b = spec.run().unwrap().result;
        assert_eq!(a.final_hash, b.final_hash);
    }

    #[test]
    fn window_size_does_not_change_result() {
        let space = space();
        let list = subnets(&space, 20);
        let cfg = TrainConfig::default();
        let small = RunSpec {
            window: 2,
            ..RunSpec::new(&space, list.clone(), cfg, 2)
        }
        .run()
        .unwrap()
        .result;
        let large = RunSpec {
            window: 16,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .unwrap()
        .result;
        assert_eq!(small.final_hash, large.final_hash);
    }

    #[test]
    fn more_threads_than_blocks_works() {
        let space = SearchSpace::uniform(Domain::Cv, 3, 4);
        let list = subnets(&space, 10);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        let res = RunSpec::new(&space, list, cfg, 6).run().unwrap().result;
        assert_eq!(res.final_hash, seq.final_hash);
    }

    #[test]
    fn last_writer_slots_name_the_writer_a_full_scan_would() {
        // A high-share stream (3 choices per block) driven through one
        // stage's admit / finish events in a seeded CSP-legal order, with
        // backwards completing out of sequence order. The oracle is the
        // bookkeeping the slots replaced: every finished backward kept,
        // all of them scanned per forward.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 3);
        let list = UniformSampler::new(&space, 5).take_subnets(400);
        let blocks = 2..6usize;
        let mut slots = LastWriters::new(blocks.start, &[3; 4]);
        let mut done: BTreeMap<u64, (SpanId, u64)> = BTreeMap::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let mut rng = naspipe_supernet::rng::DetRng::new(17);
        let mut tracer = SpanTracer::new();
        let (mut next, mut now, mut named) = (0u64, 0u64, 0u32);
        while done.len() < list.len() {
            now += 1 + rng.next_below(5);
            let y = &list[(next as usize).min(list.len() - 1)];
            let admissible = next < list.len() as u64
                && in_flight.len() < 12
                && in_flight
                    .iter()
                    .all(|&x| !y.conflicts_within(blocks.clone(), &list[x as usize]));
            if admissible && (in_flight.is_empty() || rng.next_below(3) > 0) {
                let scan = done
                    .iter()
                    .filter(|(&x, _)| x < next)
                    .filter(|(&x, _)| y.conflicts_within(blocks.clone(), &list[x as usize]))
                    .max_by_key(|(_, &(_, end))| end)
                    .map(|(&x, &(span, end))| (x, span, end));
                assert_eq!(slots.latest(y), scan, "forward of SN{next}");
                named += u32::from(scan.is_some());
                in_flight.push(next);
                next += 1;
            } else {
                let x = in_flight.swap_remove(rng.index(in_flight.len()));
                let span = tracer.emit(SpanDraft::new(0, SpanKind::Backward, now, now));
                slots.record(&list[x as usize], span, now);
                done.insert(x, (span, now));
            }
        }
        assert!(named > 300, "the stream must share layers, named {named}");
        // 400 backwards later the table is what it was sized as: one slot
        // per owned layer.
        let slot_count: usize = slots.slots.iter().map(Vec::len).sum();
        assert_eq!(slot_count, 4 * 3);
    }

    #[test]
    fn observed_run_reports_task_counts() {
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let report = RunSpec::new(&space, list, cfg, 3).run().unwrap().report;
        assert_eq!(report.stages.len(), 3);
        for s in &report.stages {
            // Every stage runs every subnet's forward and backward once.
            assert_eq!(s.forward_tasks, 12, "stage {}", s.stage);
            assert_eq!(s.backward_tasks, 12, "stage {}", s.stage);
        }
        assert!(report.wall_us > 0);
    }

    #[test]
    fn threaded_run_is_compute_worker_count_invariant_and_reports_pool() {
        // Batches above the kernels' parallel thresholds: the stage
        // workers fan out on the compute pool, the report carries pool
        // utilisation, and the result stays bitwise equal across pool
        // sizes (the compute-level "same results regardless of GPU
        // count").
        let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
        let list = subnets(&space, 4);
        let base = TrainConfig {
            dim: 128,
            rows: 64,
            threads: 1,
            ..TrainConfig::default()
        };
        let run = RunSpec::new(&space, list.clone(), base, 2).run().unwrap();
        let (serial, serial_report) = (run.result, run.report);
        let cfg = TrainConfig { threads: 4, ..base };
        let run = RunSpec::new(&space, list.clone(), cfg, 2).run().unwrap();
        let (parallel, report) = (run.result, run.report);
        assert_eq!(serial.final_hash, parallel.final_hash);
        assert_eq!(
            serial.final_hash,
            sequential_training(&space, &list, &base).final_hash
        );
        // Pool counters are shape-derived, so both runs report identical
        // job/chunk totals; the 4-worker run lists 4 worker rows.
        assert!(report.pool_jobs() > 0, "kernels fanned out");
        assert_eq!(report.pool_jobs(), serial_report.pool_jobs());
        assert_eq!(report.pool_chunks(), serial_report.pool_chunks());
        assert_eq!(report.pool.len(), 4);
        assert_eq!(serial_report.pool.len(), 1);
        let chunks: u64 = report.pool.iter().map(|w| w.chunks).sum();
        assert_eq!(chunks, report.pool_chunks());
    }

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
    #[should_panic(expected = "numbered from 0")]
    fn misnumbered_subnets_panic() {
        let space = space();
        let list = vec![Subnet::new(SubnetId(3), vec![0; 8])];
        let _ = RunSpec::new(&space, list, TrainConfig::default(), 2).run();
    }

    #[test]
    fn unrunnable_specs_are_typed_errors_before_anything_starts() {
        let space = space();
        let spec = |gpus| RunSpec::new(&space, subnets(&space, 4), TrainConfig::default(), gpus);
        let why = |spec: RunSpec| match spec.run() {
            Err(TrainError::InvalidSpec(why)) => why,
            Err(other) => panic!("expected InvalidSpec, got {other}"),
            Ok(_) => panic!("expected InvalidSpec, got a finished run"),
        };
        assert_eq!(why(spec(0)), "gpus must be positive");
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

    #[test]
    fn unsupervised_panic_surfaces_without_deadlock() {
        // With recovery disabled, a mid-pipeline death must still shut the
        // pipeline down and name the root cause — the seed runtime
        // deadlocked here, with survivors recv-blocked forever.
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(1, 5, TaskKind::Forward),
            ..RecoveryOptions::default()
        };
        let err = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 3)
        }
        .run()
        .err()
        .expect("fatal fault with max_restarts=0 must fail");
        assert_eq!(err, TrainError::StagePanicked { stage: 1 });
    }

    #[test]
    fn supervised_recovery_is_bitwise_exact() {
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(1, 6, TaskKind::Backward),
            checkpoint_interval: 4,
            max_restarts: 2,
            recv_timeout_ms: None,
        };
        let run = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("recovers from one panic");
        assert_eq!(run.result.final_hash, seq.final_hash);
        assert_eq!(run.result.losses, seq.losses);
        assert_eq!(run.recovery.restarts, 1);
        // The panic fires at SN6; the injection barrier pins the finished
        // prefix inside SN6's epoch, so the resume watermark is exactly 4.
        assert_eq!(run.recovery.resume_watermarks, vec![4]);
        assert_eq!(run.recovery.faults_fired.len(), 1);
        assert_eq!(run.recovery.faults_fired[0].incarnation, 0);
        assert_eq!(run.report.restarts(), 2, "both stages restarted once");
        verify_csp_order_parts(&run.subnets, &run.tasks)
            .expect("effective task stream is CSP-sequential per layer");
    }

    #[test]
    fn transient_faults_within_budget_do_not_restart() {
        let space = space();
        let list = subnets(&space, 10);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new()
                .transient_send(0, 3, TaskKind::Forward, 2)
                .transient_recv(1, 7, TaskKind::Forward, 1)
                .with_backoff_us(10),
            checkpoint_interval: 5,
            max_restarts: 1,
            recv_timeout_ms: None,
        };
        let run = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("transients retried in place");
        assert_eq!(run.result.final_hash, seq.final_hash);
        assert_eq!(run.recovery.restarts, 0);
        assert_eq!(run.report.retries(), 3, "2 send + 1 recv retries");
        assert_eq!(run.recovery.faults_fired.len(), 2);
        verify_csp_order_parts(&run.subnets, &run.tasks).expect("CSP holds under retries");
    }

    #[test]
    fn slow_stage_degradation_does_not_change_result() {
        let space = space();
        let list = subnets(&space, 8);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().slow(1, 2, TaskKind::Forward, 20),
            ..RecoveryOptions::default()
        };
        let run = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("slow is benign");
        assert_eq!(run.result.final_hash, seq.final_hash);
        assert_eq!(run.recovery.restarts, 0);
    }

    #[test]
    fn recovery_budget_exhaustion_reports_attempts_and_cause() {
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let opts = RecoveryOptions {
            // Two fatal faults in distinct checkpoint epochs; budget for one.
            fault_plan: FaultPlan::new().panic_on(0, 2, TaskKind::Forward).panic_on(
                1,
                9,
                TaskKind::Backward,
            ),
            checkpoint_interval: 4,
            max_restarts: 1,
            recv_timeout_ms: None,
        };
        let err = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .err()
        .expect("two panics exceed a one-restart budget");
        match &err {
            TrainError::RecoveryExhausted { attempts, last, .. } => {
                assert_eq!(*attempts, 1);
                assert_eq!(**last, TrainError::StagePanicked { stage: 1 });
            }
            other => panic!("expected RecoveryExhausted, got {other}"),
        }
        assert!(err.source().is_some(), "root cause chained via source()");
    }

    #[test]
    fn momentum_training_recovers_bitwise() {
        // Momentum velocity lives in the engine; checkpoints must capture
        // it or the resumed run diverges numerically.
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig {
            momentum: 0.9,
            weight_decay: 0.01,
            ..TrainConfig::default()
        };
        let seq = sequential_training(&space, &list, &cfg);
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(0, 7, TaskKind::Forward),
            checkpoint_interval: 4,
            max_restarts: 1,
            recv_timeout_ms: None,
        };
        let run = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("momentum state survives recovery");
        assert_eq!(run.result.final_hash, seq.final_hash);
        assert_eq!(run.recovery.restarts, 1);
    }

    #[test]
    fn burst_arrivals_raise_max_queue_depth() {
        // A slow stage 1 under a wide window lets stage 0 race ahead; the
        // eager inbound drain must surface the burst in the queue-depth
        // histogram (sampled on enqueue, not just at dispatch). The
        // subnets are pairwise layer-disjoint so CSP admission never
        // throttles stage 0's run-ahead.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 20);
        let list: Vec<Subnet> = (0..16)
            .map(|i| Subnet::new(SubnetId(i), vec![i as u32; 8]))
            .collect();
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().slow(1, 0, TaskKind::Forward, 40),
            ..RecoveryOptions::default()
        };
        let run = RunSpec {
            window: 16,
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("slow is benign");
        assert_eq!(run.result.final_hash, seq.final_hash);
        let s1 = &run.report.stages[1];
        assert!(
            s1.max_queue_depth >= 8,
            "burst under a 16-window should pile up at stage 1, saw max {}",
            s1.max_queue_depth
        );
        assert!(
            s1.queue_depth_p99 >= s1.queue_depth_p50,
            "percentiles must be monotone"
        );
    }

    #[test]
    fn clean_threaded_run_traces_every_task_with_causes() {
        let space = space();
        let n = 12u64;
        let list = subnets(&space, n as usize);
        let cfg = TrainConfig::default();
        let gpus = 3u32;
        let run = RunSpec::new(&space, list, cfg, gpus).run().unwrap();
        assert_eq!(run.report.meta.engine, "threaded");
        assert_eq!(run.report.meta.stages, gpus);
        assert_eq!(run.report.meta.seed, Some(cfg.seed));
        let fwd = run.spans.of_kind(SpanKind::Forward).count() as u64;
        let bwd = run.spans.of_kind(SpanKind::Backward).count() as u64;
        assert_eq!(fwd, n * u64::from(gpus), "one forward span per task");
        assert_eq!(bwd, n * u64::from(gpus), "one backward span per task");
        assert_eq!(run.spans.num_stages(), gpus);
        for s in run.spans.spans() {
            let cause = s.cause.expect("every task span carries a cause");
            match s.kind {
                SpanKind::Forward if s.stage == 0 => {
                    // Injected at stage 0 — unless a CSP writer gated it.
                    assert!(matches!(
                        cause.kind,
                        CauseKind::Injection | CauseKind::CspWriterCompletion { .. }
                    ));
                }
                SpanKind::Forward => {
                    assert!(matches!(
                        cause.kind,
                        CauseKind::ActivationArrival | CauseKind::CspWriterCompletion { .. }
                    ));
                    if !cause.src.is_external() {
                        assert!(run.spans.get(cause.src).is_some(), "dangling edge");
                    }
                }
                SpanKind::Backward => {
                    assert_eq!(cause.kind, CauseKind::GradientArrival);
                    assert!(run.spans.get(cause.src).is_some(), "dangling edge");
                }
                other => panic!("unexpected span kind in clean run: {other}"),
            }
        }
    }

    #[test]
    fn recovered_run_traces_checkpoints_and_restarts() {
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let opts = RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(1, 6, TaskKind::Backward),
            checkpoint_interval: 4,
            max_restarts: 2,
            recv_timeout_ms: None,
        };
        let run = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        }
        .run()
        .expect("recovers from one panic");
        assert!(
            run.spans.of_kind(SpanKind::Checkpoint).count() > 0,
            "watermark snapshots must be traced"
        );
        let restarts: Vec<_> = run.spans.of_kind(SpanKind::Restart).collect();
        assert_eq!(restarts.len(), 2, "both stages respawned once");
        for r in restarts {
            let cause = r.cause.expect("restart must carry a causal edge");
            assert_eq!(cause.kind, CauseKind::RecoveryReplay { incarnation: 1 });
            // The injection barrier completes the watermark-4 cut before
            // subnet 6 can run, so the restart's causal source is the
            // checkpoint span that completed that cut — never external.
            assert!(
                !cause.src.is_external(),
                "restart should chain back to the checkpoint it resumed from"
            );
        }
        // The restarted incarnation re-runs every subnet past watermark 4
        // (SN4..SN11 -> 8 forwards at stage 0). Spans of the *failed*
        // incarnation are kept when their worker parked cleanly, but a
        // worker killed mid-send loses its buffer — so only the replay
        // floor is deterministic.
        let fwd0 = run
            .spans
            .of_kind(SpanKind::Forward)
            .filter(|s| s.stage == 0)
            .count();
        assert!(
            fwd0 >= 8,
            "incarnation 1 must re-run the 8 subnets past the watermark, saw {fwd0}"
        );
    }

    #[test]
    fn seeded_plans_replay_the_same_recovery_schedule() {
        let space = space();
        let list = subnets(&space, 16);
        let cfg = TrainConfig::default();
        let plan = FaultPlan::seeded(42, 2, 16, 4, 1, 2).with_backoff_us(10);
        let opts = RecoveryOptions {
            fault_plan: plan,
            checkpoint_interval: 4,
            max_restarts: 3,
            recv_timeout_ms: None,
        };
        let seq = sequential_training(&space, &list, &cfg);
        let spec = RunSpec {
            recovery: opts,
            ..RunSpec::new(&space, list, cfg, 2)
        };
        let a = spec.clone().run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.result.final_hash, seq.final_hash);
        assert_eq!(b.result.final_hash, seq.final_hash);
        assert_eq!(
            a.recovery.schedule(),
            b.recovery.schedule(),
            "same seed must reproduce the same fault and recovery schedule"
        );
        assert_eq!(a.recovery.restarts, 1, "one fatal fault, one restart");
    }

    /// A bus whose journal the test can read back, and that journal's
    /// durable lines as `kind stage watermark`.
    fn journaled_bus() -> (EventBus, Arc<naspipe_obs::OpsState>) {
        let state = Arc::new(naspipe_obs::OpsState::new(
            RunMeta::new("threaded", 2),
            Arc::new(TelemetryHub::new(2, 0)),
            Arc::new(naspipe_obs::Journal::new(0)),
        ));
        let bus = EventBus::new(BusConfig {
            engine: "threaded",
            stages: 2,
            enabled: true,
            watchdog: &naspipe_obs::WatchdogConfig::default(),
            flight_dump: None,
            ops: Some(&state),
            telemetry: None,
            wall_clock: true,
        });
        (bus, state)
    }

    fn durable_lines(state: &naspipe_obs::OpsState) -> Vec<String> {
        let events = state.journal().snapshot();
        let durable = events.iter().filter(|e| e.kind.starts_with("durable-"));
        durable
            .map(|e| format!("{} {:?} {}", e.kind, e.stage, e.fields[0].1))
            .collect()
    }

    fn empty_cut(watermark: u64) -> Arc<Checkpoint> {
        Arc::new(Checkpoint {
            watermark,
            stages: vec![StageSnapshot {
                params: Vec::new(),
                engine: NumericSupernet::new(0.05),
                losses: BTreeMap::new(),
            }],
            cut_span: SpanId::EXTERNAL,
        })
    }

    #[test]
    fn hand_off_to_a_dead_writer_is_a_failed_persist_not_a_panic() {
        let (bus, state) = journaled_bus();
        let (tx, rx) = sync_channel(0);
        drop(rx);
        hand_over(&tx, 1, empty_cut(8), &bus, Instant::now());
        assert_eq!(durable_lines(&state), ["durable-persist-failed Some(1) 8"]);
    }

    #[test]
    fn writer_persists_in_hand_off_order_and_counts_for_the_closing_stage() {
        let dir = std::env::temp_dir().join(format!("naspipe-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (bus, state) = journaled_bus();
        let store = DurableStore::open(&dir, 2, 7).unwrap();
        let mut writer = DurableWriter::start(store, bus.clone(), Instant::now());
        let tx = writer.tx.clone().unwrap();
        for (stage, watermark) in [(1, 8), (0, 16), (1, 24)] {
            hand_over(&tx, stage, empty_cut(watermark), &bus, Instant::now());
        }
        // Having been taken, a drain means everything before it is done.
        writer.drain();
        let all_three = [
            "durable-persist Some(1) 8",
            "durable-persist Some(0) 16",
            "durable-persist Some(1) 24",
        ];
        assert_eq!(durable_lines(&state), all_three);
        drop(tx);
        let report = writer.finish().report(1);
        let counted: Vec<u64> = report.stages.iter().map(|s| s.durable_persists).collect();
        assert_eq!(counted, [1, 2]);
        assert!(writer.tx.is_none() && writer.handle.is_none(), "joined");
        let store = DurableStore::open(&dir, 2, 7).unwrap();
        assert_eq!(store.list_snapshots().unwrap(), [16, 24], "keep 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

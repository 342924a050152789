//! The stage worker: one pipeline stage's Algorithm 1 loop as a
//! non-blocking [`StageWorker::step`] that does no I/O of its own. Its
//! driver hands it the messages delivered to its stage and sends the
//! hand-offs it makes, through [`Io`]: the thread driver
//! (`supervisor.rs`) over channels, the single-thread driver
//! (`replay.rs`) from a record or a seed.

use super::sidecars::DurableWriter;
use super::{elapsed_us, RunSpec, Taken, TrainError};
use crate::checkpoint::{Checkpoint, CheckpointStore, StageSnapshot};
use crate::fault::{FaultInjector, FaultKind, FaultSite, MAX_RETRIES};
use crate::partition::Partition;
use crate::pipeline::TaskRecord;
use crate::stage::{Injection, Pick, StageCore};
use crate::task::{StageId, TaskKind};
use crate::train::TrainConfig;
use naspipe_obs::telemetry::DEFAULT_SAMPLE_INTERVAL_US;
use naspipe_obs::{
    CauseKind, Counter, CspChecker, EventBus, MetricsSnapshot, RunEvent, Sample, SpanDraft, SpanId,
    SpanKind, SpanTracer, TelemetryHub, Tracer, Violation,
};
use naspipe_sim::time::SimTime;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::layers::DenseParams;
use naspipe_tensor::model::{layer_hashes, ForwardCtx, NumericSupernet, ParamStore};
use naspipe_tensor::pool::{self, PoolStats};
use naspipe_tensor::tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The input of a subnet's next task at a neighbour — a forward's
/// activation for the successor, a backward's gradient for the
/// predecessor — tagged with the span that produced it.
pub(super) struct Msg {
    pub kind: TaskKind,
    pub subnet: SubnetId,
    pub payload: Tensor,
    pub span: SpanId,
}

/// The I/O a driver does for its worker's [`StageWorker::step`].
pub(super) trait Io {
    /// The next message delivered to the stage, if one has been; never
    /// waits.
    fn take(&mut self) -> Result<Option<Msg>, Halt>;
    /// Sends a hand-off to the neighbour its kind names: a forward's
    /// downstream, a backward's upstream.
    fn send(&mut self, msg: Msg) -> Result<(), Halt>;
}

/// What a stage worker hands back when it exits without an error,
/// whether every subnet is trained or the supervisor parked it.
pub(super) struct StageOutput {
    pub params: Vec<Vec<DenseParams>>,
    /// The [`layer_hashes`] of `params` if the stream was trained (empty
    /// if the stage was parked): the stage's share of the run's
    /// fingerprint, computed on its own thread.
    pub layer_hashes: Vec<u64>,
    pub losses: BTreeMap<u64, f32>,
    pub tracer: SpanTracer,
    pub tasks: Vec<TaskRecord>,
    /// What the stage had taken from its inbox when it picked each of
    /// `tasks`.
    pub taken: Vec<Taken>,
}

/// Why a worker leaves its loop before its stream is trained. Every
/// worker method returns it through `?`.
pub(super) enum Halt {
    /// The supervisor asked (the shutdown flag, its stop message, a link
    /// lost under an active shutdown): not an error.
    Parked,
    Failed(TrainError),
}

impl From<TrainError> for Halt {
    fn from(err: TrainError) -> Self {
        Halt::Failed(err)
    }
}

/// What every stage worker of a run shares and none of them changes: the
/// [`RunSpec`] resolved once by the supervisor. A worker's own mutable
/// state lives in [`StageWorker`], beside a borrow of this.
pub(super) struct RunContext {
    pub subnets: Vec<Subnet>,
    pub data: SyntheticDataset,
    pub train: TrainConfig,
    pub partition: Partition,
    // `choices[block]`: candidate count of every block of the space.
    choices: Vec<u32>,
    window: u64,
    // Fault tolerance.
    pub injector: FaultInjector,
    // The thread driver's; `Duration::MAX` (no timeout configured) waits
    // forever: std treats a deadline that overflows as none.
    pub recv_timeout: Duration,
    // Shared with the durable writer, which recycles the cuts it persisted.
    pub ckpts: Option<Arc<CheckpointStore>>,
    ckpt_interval: u64,
    // Where a complete cut goes to be persisted (None = in-memory
    // checkpoints only).
    pub writer: Option<DurableWriter>,
    pub epoch: Instant,
    // The run's shared sinks (flight ring, journal, ops-plane gauges).
    pub bus: EventBus,
    // The bus's hub: the run's one counter ledger.
    pub hub: Arc<TelemetryHub>,
    // How often the supervisor samples it (`None`: no exported hub or
    // watchdog reads samples) and the compute pool's counters at `epoch`.
    pub sample_every: Option<Duration>,
    pool_base: PoolStats,
}

impl RunContext {
    /// Resolves `spec` and stamps the run's epoch; a durable run's
    /// supervisor adds the `writer`.
    pub(super) fn new(spec: RunSpec<'_>, bus: EventBus) -> Self {
        let (space, gpus, opts) = (spec.space, spec.gpus, spec.recovery);
        let m = space.num_blocks();
        let telemetry = spec.telemetry.as_ref();
        let every = telemetry.map_or(DEFAULT_SAMPLE_INTERVAL_US, |t| t.interval_us());
        let sampled = telemetry.is_some() || spec.diagnostics.enabled;
        RunContext {
            data: SyntheticDataset::new(spec.train.seed, spec.train.rows, spec.train.dim),
            train: spec.train,
            partition: Partition::balanced(&vec![1.0; m], gpus),
            choices: (0..m).map(|b| space.block(b).num_choices()).collect(),
            window: spec.window,
            injector: FaultInjector::new(opts.fault_plan),
            recv_timeout: (opts.recv_timeout_ms).map_or(Duration::MAX, Duration::from_millis),
            ckpts: (opts.checkpoint_interval > 0)
                .then(|| Arc::new(CheckpointStore::new(gpus as usize))),
            ckpt_interval: opts.checkpoint_interval,
            writer: None,
            epoch: Instant::now(),
            hub: Arc::clone(bus.hub().expect("a wall-clock bus always has a hub")),
            sample_every: sampled.then(|| Duration::from_micros(every)),
            pool_base: pool::shared(spec.train.threads).stats(),
            bus,
            subnets: spec.subnets,
        }
    }

    pub(super) fn total(&self) -> u64 {
        self.subnets.len() as u64
    }

    pub(super) fn gpus(&self) -> u32 {
        self.partition.num_stages()
    }

    /// Seeds the checkpoint store with `stages`, the cut at `watermark`
    /// an incarnation resumes from.
    pub(super) fn resume_from(&self, watermark: u64, stages: Vec<StageSnapshot>) {
        let store = self.ckpts.as_ref().expect("a run that resumes has cuts");
        for (k, s) in stages.into_iter().enumerate() {
            let nothing_since = (watermark, Vec::new());
            store.record(watermark, k, s, SpanId::EXTERNAL, nothing_since);
        }
    }

    /// Subnet `y`'s loss target: its input batch through the teacher. A
    /// pure function of `y`, so who synthesizes it, and when, cannot show.
    fn target(&self, y: u64) -> Tensor {
        self.data.target_of(&self.data.input(y))
    }

    /// This run's share of the shared compute pool's work so far.
    pub(super) fn pool_run(&self) -> PoolStats {
        pool::shared(self.train.threads)
            .stats()
            .since(&self.pool_base)
    }

    /// Snapshots the hub, with the pool's run delta folded in, and hands
    /// the bus the snapshot by reference (it copies it only into an
    /// exported hub's ring; the watchdog reads it in place).
    pub(super) fn sample(&self) -> MetricsSnapshot {
        let run = self.pool_run();
        self.hub.set_pool(run.jobs, run.chunks, run.busy_us);
        let snap = self.hub.snapshot(elapsed_us(self.epoch));
        self.bus.sample(&snap, true);
        snap
    }
}

/// What the workers of one incarnation share: which respawn this is, the
/// cut it resumes from, the supervisor's park request and (debug builds)
/// the CSP invariant checker.
pub(super) struct Incarnation {
    pub number: u32,
    resume: Option<Arc<Checkpoint>>,
    /// Subnets below this are trained in the state the workers start from.
    pub watermark: u64,
    pub shutdown: AtomicBool,
    checker: Option<Mutex<CspChecker>>,
}

impl Incarnation {
    /// Incarnation `number`, resuming from the checkpoint store's newest
    /// complete cut.
    pub(super) fn new(ctx: &RunContext, number: u32) -> Self {
        let resume = ctx.ckpts.as_ref().and_then(|s| s.latest_complete());
        let watermark = resume.as_ref().map_or(0, |c| c.watermark);
        // Debug builds cross-check the runtime's interleaving against
        // the CSP contract — a fresh checker per incarnation, with the
        // already-trained prefix retired.
        let checker = cfg!(debug_assertions).then(|| {
            let mut c = CspChecker::new();
            for s in &ctx.subnets {
                c.register(s.seq_id(), ctx.partition.layer_owners(s))
                    .expect("subnets numbered uniquely");
            }
            c.retire_below(SubnetId(watermark));
            Mutex::new(c)
        });
        let shutdown = AtomicBool::new(false);
        Incarnation {
            number,
            resume,
            watermark,
            shutdown,
            checker,
        }
    }
}

pub(super) struct StageWorker<'a> {
    ctx: &'a RunContext,
    inc: &'a Incarnation,
    stage: usize,
    blocks: Range<usize>,
    engine: NumericSupernet,
    // Owned parameter slice: params[block - blocks.start][choice].
    params: Vec<Vec<DenseParams>>,
    // This stage's queues, `L_SN` as it sees it, its `L_f` and writer
    // marks. Queued work is tagged with the producing span; a forward
    // also with its wall-clock arrival (for causal-edge binding).
    core: StageCore<(Tensor, SpanId, u64), (Tensor, SpanId)>,
    ctxs: BTreeMap<u64, ForwardCtx>,
    // The last stage's loss targets synthesized in idle time, each
    // waiting for its subnet's forward: at most `window` of them. They
    // are made in subnet order: every subnet below `next_target` has a
    // target waiting or its forward done here.
    targets: BTreeMap<u64, Tensor>,
    next_target: u64,
    losses: BTreeMap<u64, f32>,
    tracer: SpanTracer,
    /// The watermark of the next cut this stage takes.
    pub next_ckpt: u64,
    pub tasks: Vec<TaskRecord>,
    /// The messages taken from the driver so far, and what that was when
    /// each of `tasks` was picked.
    pub taken_now: Taken,
    pub taken: Vec<Taken>,
}

impl<'a> StageWorker<'a> {
    /// Stage `stage` as the incarnation's cut left it; without a cut
    /// [`start`](Self::start) initialises the parameters.
    pub(super) fn new(ctx: &'a RunContext, inc: &'a Incarnation, stage: usize) -> Self {
        let blocks = ctx.partition.stage_range(StageId(stage as u32));
        let (params, engine, losses) = match &inc.resume {
            Some(ckpt) => {
                let s = &ckpt.stages[stage];
                (s.params.clone(), s.engine.clone(), s.losses.clone())
            }
            None => (Vec::new(), ctx.train.engine(), BTreeMap::new()),
        };
        let resume_w = inc.watermark;
        // Under the run's one partition every earlier sharer of a slice
        // layer writes it here, so this stage's `L_f` is all it reads.
        let (k, gpus) = (stage as u32, ctx.gpus());
        let window = Injection::Window(ctx.window);
        let core = StageCore::new(k..k + 1, gpus, &ctx.choices, true, window, ctx.total())
            .resumed_at(resume_w, ctx.ckpt_interval);
        // Distinct id namespace per (incarnation, stage) so the merged
        // trace never collides.
        let namespace = u64::from(inc.number) * u64::from(ctx.gpus()) + stage as u64;
        StageWorker {
            ctx,
            inc,
            stage,
            blocks,
            engine,
            params,
            core,
            ctxs: BTreeMap::new(),
            targets: BTreeMap::new(),
            next_target: resume_w,
            losses,
            tracer: SpanTracer::with_namespace(namespace),
            next_ckpt: resume_w + ctx.ckpt_interval,
            tasks: Vec::new(),
            taken_now: Taken::default(),
            taken: Vec::new(),
        }
    }

    /// The incarnation's prologue, on the thread that drives the worker.
    pub(super) fn start(&mut self) {
        if self.inc.resume.is_none() {
            // No cut to resume from: every stage initialises its own
            // block range, all stages at once.
            let (train, choices) = (&self.ctx.train, &self.ctx.choices);
            self.params = (self.blocks.clone())
                .map(|b| ParamStore::init_block(train.dim, train.seed, b, choices[b]))
                .collect();
        }
        if self.inc.number > 0 {
            // Mark the respawn; spans of replayed tasks follow it in
            // time. The causal source is the checkpoint span that
            // completed the cut we resumed from ([`SpanId::EXTERNAL`] for
            // a from-scratch replay), so the recovery chain shows up as
            // a flow in the exported trace.
            let t = self.now_us();
            let resume = self.inc.resume.as_ref();
            let cut_span = resume.map_or(SpanId::EXTERNAL, |c| c.cut_span);
            let incarnation = self.inc.number;
            self.tracer.emit(
                SpanDraft::new(self.stage as u32, SpanKind::Restart, t, t)
                    .caused_by(cut_span, CauseKind::RecoveryReplay { incarnation }),
            );
        }
    }

    fn layer_params(&self, layer: LayerRef) -> &DenseParams {
        &self.params[layer.block as usize - self.blocks.start][layer.choice as usize]
    }

    /// The stage as the core numbers it.
    fn k(&self) -> u32 {
        self.stage as u32
    }

    /// Whether this stage computes the loss.
    fn is_last(&self) -> bool {
        self.k() + 1 == self.ctx.gpus()
    }

    /// Whether every subnet of the stream is trained here.
    pub(super) fn trained(&self) -> bool {
        self.core.done(self.k()) == self.ctx.total()
    }

    /// The first subnet this stage has not finished: what a wait that
    /// timed out was waiting to make progress on.
    pub(super) fn first_unfinished(&self) -> u64 {
        self.core.first_unfinished(self.k()).0
    }

    /// Nothing is runnable until a message arrives: notes a CSP stall if
    /// forwards are queued, and names the counter the wait is idle time
    /// of.
    pub(super) fn idle(&self) -> Counter {
        let (stage, queued) = (self.k(), self.core.depth(self.k()));
        if queued > 0 {
            let stall = RunEvent::CspStall { queued };
            self.ctx.bus.emit(stage, self.now_us(), stall);
        }
        self.core.idle_counter(stage)
    }

    /// Queues `y`'s forward, registering every subnet up to it first.
    fn deliver_forward(&mut self, y: SubnetId, payload: (Tensor, SpanId, u64)) {
        let ctx = self.ctx;
        let entry = |id: SubnetId| (ctx.subnets[id.0 as usize].clone(), ctx.partition.clone());
        self.core.register_through(y, entry);
        self.core.deliver_forward(self.k(), y, payload);
    }

    /// Feeds `event` to the shared invariant checker, if one is active.
    fn check(
        &self,
        event: impl FnOnce(&mut CspChecker) -> Result<(), Violation>,
    ) -> Result<(), TrainError> {
        let stage = self.stage;
        let Some(checker) = &self.inc.checker else {
            return Ok(());
        };
        let mut guard = checker
            .lock()
            .map_err(|_| TrainError::StagePanicked { stage })?;
        event(&mut guard).map_err(|violation| TrainError::Invariant { stage, violation })
    }

    /// The output of a stage whose stream is trained. Its slice is final,
    /// so it is fingerprinted here, on the stage's own thread, while the
    /// other stages do the same with theirs.
    pub(super) fn finish(self) -> StageOutput {
        let hashes = layer_hashes(&self.params).collect();
        self.into_output(hashes)
    }

    pub(super) fn into_output(self, layer_hashes: Vec<u64>) -> StageOutput {
        // Attribute the compute-pool work this stage's kernels fanned
        // out (drained from thread-local accounting; runs on the worker
        // thread, before the pool binding is dropped). Job and chunk
        // counts are shape-derived, so they are identical across worker
        // counts; only busy time is timing-dependent.
        let pool = naspipe_tensor::pool::take_thread_stats();
        if pool.jobs > 0 {
            let (stage, hub) = (self.stage as u32, &self.ctx.hub);
            hub.record(stage, Counter::PoolJob, pool.jobs);
            hub.record(stage, Counter::PoolChunk, pool.chunks);
            hub.record(stage, Counter::PoolBusyUs, pool.busy_us);
            let jobs = pool.jobs;
            self.ctx
                .bus
                .emit(stage, self.now_us(), RunEvent::PoolJob { jobs });
        }
        StageOutput {
            params: self.params,
            layer_hashes,
            losses: self.losses,
            tracer: self.tracer,
            tasks: self.tasks,
            taken: self.taken,
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

    /// Fires any transient channel fault scheduled for this task at
    /// `site`: `failures` consecutive channel errors, simulated with
    /// exponential backoff; exceeding the retry budget escalates to a
    /// fatal [`TrainError::Timeout`] chained to the underlying channel
    /// error.
    fn transient_fault(
        &self,
        site: FaultSite,
        y: SubnetId,
        kind: TaskKind,
        link: &'static str,
    ) -> Result<(), TrainError> {
        let stage = self.stage;
        let failures = match self.ctx.injector.fire(stage as u32, y.0, kind, site) {
            Some(FaultKind::TransientSend { failures } | FaultKind::TransientRecv { failures }) => {
                failures
            }
            _ => return Ok(()),
        };
        let backoff_us = self.ctx.injector.plan().backoff_us();
        for attempt in 1..=failures {
            if attempt > MAX_RETRIES {
                let closed = TrainError::ChannelClosed { stage, link };
                return Err(TrainError::Timeout {
                    stage,
                    task: y.0,
                    cause: Some(Box::new(closed)),
                });
            }
            self.ctx.hub.record(stage as u32, Counter::Retry, 1);
            let backoff = backoff_us.saturating_mul(1 << (attempt - 1).min(10));
            std::thread::sleep(Duration::from_micros(backoff));
        }
        Ok(())
    }

    /// Hands the result of `y`'s task to `io` for the neighbour that runs
    /// its next one — a forward's activation to the successor, a
    /// backward's gradient to the predecessor — after any scheduled
    /// transient send fault.
    fn hand_off(
        &mut self,
        io: &mut impl Io,
        kind: TaskKind,
        y: SubnetId,
        payload: Tensor,
        span: SpanId,
    ) -> Result<(), Halt> {
        let link = match kind {
            TaskKind::Forward => "successor",
            TaskKind::Backward => "predecessor",
        };
        self.transient_fault(FaultSite::Send, y, kind, link)?;
        io.send(Msg {
            kind,
            subnet: y,
            payload,
            span,
        })
    }

    /// Fires any scheduled transient receive fault on `msg`, stamps its
    /// arrival, enqueues it and counts it taken.
    fn accept(&mut self, msg: Msg) -> Result<(), Halt> {
        let Msg {
            kind,
            subnet: y,
            payload,
            span: src,
        } = msg;
        self.transient_fault(FaultSite::Recv, y, kind, "inbound")?;
        let now = self.now_us();
        match kind {
            TaskKind::Forward => {
                self.taken_now.forwards += 1;
                self.deliver_forward(y, (payload, src, now));
            }
            TaskKind::Backward => {
                self.taken_now.backwards += 1;
                self.core.deliver_backward(self.k(), y, (payload, src));
            }
        }
        self.sample_queue_depth();
        Ok(())
    }

    fn now_us(&self) -> u64 {
        elapsed_us(self.ctx.epoch)
    }

    fn sample_queue_depth(&self) {
        let depth = self.core.depth(self.k());
        self.ctx.hub.observe(self.k(), Sample::QueueDepth, depth);
    }

    /// µs since the run's epoch at `at`.
    fn us_at(&self, at: Instant) -> u64 {
        let us = at.duration_since(self.ctx.epoch).as_micros();
        us.min(u64::MAX as u128) as u64
    }

    /// Emits one compute span of `y`'s task here, bound to `cause` if it
    /// has one.
    fn emit_span(
        &mut self,
        kind: SpanKind,
        y: SubnetId,
        (start, end): (u64, u64),
        cause: Option<(SpanId, CauseKind)>,
    ) -> SpanId {
        let draft = SpanDraft::new(self.stage as u32, kind, start, end).subnet(y.0);
        self.tracer.emit(match cause {
            Some((src, why)) => draft.caused_by(src, why),
            None => draft,
        })
    }

    /// Closes `y`'s task, which ran from `start` to `end` µs since the
    /// run's epoch: its [`TaskRecord`] and its latency sample carry the
    /// clock reads its spans start and end on, so the three agree.
    fn complete_task(&mut self, kind: TaskKind, y: SubnetId, (start, end): (u64, u64)) {
        let (latency, count) = match kind {
            TaskKind::Forward => (Sample::ForwardLatencyUs, Counter::ForwardTask),
            TaskKind::Backward => (Sample::BackwardLatencyUs, Counter::BackwardTask),
        };
        let stage = self.stage as u32;
        self.tasks.push(TaskRecord {
            start: SimTime::from_us(start),
            end: SimTime::from_us(end),
            kind,
            subnet: y,
            stage: StageId(stage),
            blocks: self.blocks.clone(),
        });
        self.taken.push(self.taken_now);
        self.ctx.hub.observe(stage, latency, end - start);
        self.ctx.hub.record(stage, count, 1);
    }

    /// Snapshots this stage's state into the checkpoint store when its
    /// finished prefix reaches the next watermark boundary. Thanks to
    /// the core's injection barrier, at
    /// that moment the stage's state is *exactly* the sequential state
    /// after `next_ckpt` subnets — no task of any later subnet has run
    /// anywhere — which the `debug_assert`s below audit.
    ///
    /// The snapshot refills this stage's spare — its snapshot of a
    /// retired cut at `Ws` — with only the layers written since `Ws`
    /// (the core's writer marks name them), and is a fresh clone only when
    /// there is no spare at or above the incarnation's resume watermark.
    /// With a durable writer, the record also names the layers written
    /// since the previous cut, `W − C` (or since the resume watermark,
    /// the earliest this incarnation's marks know), so the cut can be
    /// persisted as a delta on it.
    fn maybe_checkpoint(&mut self) {
        let ctx = self.ctx;
        let Some(store) = &ctx.ckpts else {
            return;
        };
        let prefix = self.core.first_unfinished(self.k()).0;
        if self.next_ckpt <= prefix {
            debug_assert_eq!(
                prefix, self.next_ckpt,
                "stage {}: prefix skipped a watermark boundary",
                self.stage
            );
            debug_assert!(self.ctxs.is_empty(), "in-flight forward at watermark");
            debug_assert_eq!(self.core.depth(self.k()), 0, "queued task at watermark");
            let snap_start = elapsed_us(ctx.epoch);
            let snapshot = match store.take_spare(self.stage, self.inc.watermark) {
                Some((since, mut spare)) => {
                    let written = self
                        .core
                        .written_since(self.k(), since, self.blocks.clone());
                    spare.refill(&self.params, written, &self.engine, &self.losses);
                    debug_assert!(
                        spare.params == self.params,
                        "stage {}: the refilled snapshot at {} differs from the live slice",
                        self.stage,
                        self.next_ckpt
                    );
                    spare
                }
                None => StageSnapshot {
                    params: self.params.clone(),
                    engine: self.engine.clone(),
                    losses: self.losses.clone(),
                },
            };
            let since = (self.next_ckpt.saturating_sub(ctx.ckpt_interval)).max(self.inc.watermark);
            let written = match ctx.writer {
                Some(_) => (self.core)
                    .written_since(self.k(), since, self.blocks.clone())
                    .collect(),
                None => Vec::new(),
            };
            let span = self.tracer.emit(SpanDraft::new(
                self.stage as u32,
                SpanKind::Checkpoint,
                snap_start,
                elapsed_us(ctx.epoch),
            ));
            // The store keeps the completing span per cut; a restart
            // resuming from this watermark names it as its cause.
            let (at, stage) = (self.next_ckpt, self.stage);
            let completed = store.record(at, stage, snapshot, span, (since, written));
            // Reaching a cut boundary proves this stage finished every
            // subnet below it — the per-stage CSP watermark `/status`
            // reports (cut granularity keeps this off the hot path).
            let stage = self.stage as u32;
            let watermark = self.next_ckpt;
            let closes = completed.is_some();
            let cut = RunEvent::CheckpointCut {
                watermark,
                completed: closes,
            };
            ctx.bus.emit(stage, snap_start, cut);
            // The worker whose record completes the cut hands it over to be
            // persisted and goes back to training; no lock is held here.
            if let (Some((cut, written)), Some(writer)) = (completed, &ctx.writer) {
                writer.hand_over(stage, cut, written, &ctx.bus, ctx.epoch);
            }
            self.next_ckpt += ctx.ckpt_interval;
        }
    }

    fn run_forward(
        &mut self,
        io: &mut impl Io,
        y: SubnetId,
        input: Tensor,
        src: SpanId,
        arrival_us: u64,
    ) -> Result<(), Halt> {
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
        if let Some(w) = self.core.last_writer(self.k(), y) {
            if w.at > cause.2 {
                let writer = w.writer;
                cause = (w.span, CauseKind::CspWriterCompletion { writer }, w.at);
            }
        }
        // The last stage: the loss closes the forward pass, against the
        // target idle time prepared or, on a miss, one made here.
        let loss_grad = self.is_last().then(|| {
            let target = self
                .targets
                .remove(&y.0)
                .unwrap_or_else(|| self.ctx.target(y.0));
            let (loss, grad) = naspipe_tensor::loss::mse(&out, &target);
            self.losses.insert(y.0, loss);
            grad
        });
        // One clock read ends the span and the task; the hand-off comes
        // after (a message carries the span's id).
        let ran = (self.us_at(started), self.now_us());
        let span = self.emit_span(SpanKind::Forward, y, ran, Some((cause.0, cause.1)));
        self.complete_task(TaskKind::Forward, y, ran);
        match loss_grad {
            // The gradient "arrives" from the local loss computation.
            Some(grad) => {
                self.core.deliver_backward(self.k(), y, (grad, span));
                self.sample_queue_depth();
            }
            None => self.hand_off(io, TaskKind::Forward, y, out, span)?,
        }
        self.ctxs.insert(y.0, ctx);
        Ok(())
    }

    /// `y`'s backward in two halves with the hand-off between them: the
    /// input-gradient half (span `Backward`) leaves the predecessor
    /// nothing to wait for but its own work, and the weight half (span
    /// `Update`: `dL/dW` and the step) runs while it does. The send, with
    /// any injected retry back-off, is the gap between the two spans;
    /// the task's record and latency sample cover all three. A halt in
    /// the send leaves the Backward span without its Update: the
    /// incarnation is over, and the task runs again after the restart.
    fn run_backward(
        &mut self,
        io: &mut impl Io,
        y: SubnetId,
        grad_out: Tensor,
        src: SpanId,
    ) -> Result<(), Halt> {
        let started = Instant::now();
        self.fire_execute_fault(y, TaskKind::Backward);
        let mut ctx = self.ctxs.remove(&y.0).expect("forward context present");
        let grad = (self.engine).backward_slice_input(|l| self.layer_params(l), &mut ctx, grad_out);
        let (start, split) = (self.us_at(started), self.now_us());
        let cause = (src, CauseKind::GradientArrival);
        let span = self.emit_span(SpanKind::Backward, y, (start, split), Some(cause));
        // Stage 0's slice yields none: nobody reads the subnet input's.
        if let Some(grad) = grad {
            self.hand_off(io, TaskKind::Backward, y, grad, span)?;
        }
        let resumed = self.now_us();
        // The weight half, then the writes in block order.
        let grads = self.engine.backward_slice_weight(ctx);
        for (layer, g) in grads.iter() {
            let params =
                &mut self.params[layer.block as usize - self.blocks.start][layer.choice as usize];
            self.engine.step_layer(*layer, params, g);
        }
        self.check(|c| c.on_backward_done(y, self.stage as u32))?;
        let end = self.now_us();
        let update = self.emit_span(SpanKind::Update, y, (resumed, end), None);
        self.complete_task(TaskKind::Backward, y, (start, end));
        self.core.finished(self.k(), y, Some((update, end)));
        Ok(())
    }

    /// Injects what the core admits. Stage 0's prefix is the global
    /// watermark: a later stage may still be in the weight half of its own
    /// backward, but takes no other task, and cuts, before that is done.
    fn inject(&mut self) {
        for y in self.core.injectable().map(SubnetId) {
            let input = self.ctx.data.input(y.0);
            let now = self.now_us();
            self.deliver_forward(y, (input, SpanId::EXTERNAL, now));
            self.sample_queue_depth();
        }
    }

    /// Idle time at the last stage: synthesizes the loss target of the
    /// lowest subnet in the core's window above the finished prefix that
    /// has neither a target prepared nor its forward done here. `false`
    /// when there is none, or this is not the last stage.
    fn prepare_target(&mut self) -> bool {
        if !self.is_last() {
            return false;
        }
        let (k, end) = (self.k(), self.core.window(self.k()).end);
        // Past the forwards that ran on a miss.
        let mut y = self.next_target;
        while y < end && (self.core.is_finished(k, SubnetId(y)) || self.ctxs.contains_key(&y)) {
            y += 1;
        }
        self.next_target = y;
        if y >= end {
            return false;
        }
        let target = self.ctx.target(y);
        self.targets.insert(y, target);
        self.next_target = y + 1;
        true
    }

    /// One turn of the Algorithm 1 loop, up to — not including — a wait
    /// for a message: `true` when a task ran, `false` when nothing is
    /// runnable until a message arrives. It takes every message `io` has
    /// delivered before it picks, and gives `io` its hand-offs. Never
    /// waits for a peer (it can sleep in an injected `Slow` fault or
    /// retry back-off). The last stage spends what would be the wait
    /// preparing loss targets, one between looks at what `io` delivered.
    pub(super) fn step(&mut self, io: &mut impl Io) -> Result<bool, Halt> {
        if self.inc.shutdown.load(Ordering::Acquire) {
            return Err(Halt::Parked);
        }
        // Snapshot before injecting: at a boundary the queues are
        // provably empty, and injection must not race the cut.
        self.maybe_checkpoint();
        if self.stage == 0 {
            self.inject();
        }
        let stage = self.k();
        loop {
            // Take every delivered message before picking work, so a
            // burst shows up in the queue-depth metrics and a delivered
            // backward takes priority over queued forwards.
            while let Some(msg) = io.take()? {
                self.accept(msg)?;
            }
            self.sample_queue_depth();
            // The lowest-ID backward, else the lowest-ID admissible forward.
            match self.core.pick(stage) {
                Pick::Backward {
                    id,
                    payload: (grad, src),
                    preempted,
                } => {
                    if preempted {
                        self.ctx.hub.record(stage, Counter::BackwardPreemption, 1);
                    }
                    self.run_backward(io, id, grad, src)?;
                }
                Pick::Forward {
                    id,
                    payload: (input, src, arrival),
                } => self.run_forward(io, id, input, src, arrival)?,
                Pick::Idle { .. } if self.prepare_target() => continue,
                Pick::Idle { .. } => return Ok(false),
            }
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::replay::Stepper;
    use super::super::RecoveryOptions;
    use super::*;
    use crate::train::sequential_training;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::rng::DetRng;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;
    use naspipe_tensor::hash::store_hash;

    /// Whether `x`'s forward may run at `w`'s stage: no subnet below it
    /// that is unfinished there shares a layer of the stage's slice. The
    /// worker's own check before it admitted through the scheduler, kept
    /// as an independent oracle: it reads what finished from the stage's
    /// backward records, not from the stage core.
    fn may_run(w: &StageWorker, x: SubnetId) -> bool {
        let subnets = &w.ctx.subnets;
        let reader = &subnets[x.0 as usize];
        let backwards = w.tasks.iter().filter(|t| t.kind == TaskKind::Backward);
        let done: Vec<u64> = backwards.map(|t| t.subnet.0).collect();
        (0..x.0)
            .filter(|v| !done.contains(v))
            .all(|v| !reader.conflicts_within(w.blocks.clone(), &subnets[v as usize]))
    }

    /// Steps `gpus` workers over `list` through the single-thread driver,
    /// one `step` at a time in an order drawn from `seed`, each handed a
    /// seeded part of the messages in flight to it (a prefix of each
    /// side's, as a channel delivers them; the rest stays in flight),
    /// until every stream is trained; returns the final parameter hash
    /// (folded from the stages' layer hashes, as the supervisor does) and
    /// the newest complete cut.
    /// Every forward admission is checked against Algorithm 2's order: no
    /// queued forward below it was admissible.
    /// Every third seed is an extreme order instead of a uniform one: a
    /// fixed priority among the stages, a lower one stepping only when
    /// no higher one can (a late stage racing ahead, stage 0 starved).
    fn stepped(
        space: &SearchSpace,
        list: &[Subnet],
        gpus: u32,
        interval: u64,
        seed: u64,
    ) -> (u64, Option<Arc<Checkpoint>>) {
        let spec = RunSpec {
            window: 4,
            recovery: RecoveryOptions {
                checkpoint_interval: interval,
                ..RecoveryOptions::default()
            },
            ..RunSpec::new(space, list.to_vec(), TrainConfig::default(), gpus)
        };
        let bus = spec.bus();
        let ctx = RunContext::new(spec, bus);
        let inc = Incarnation::new(&ctx, 0);
        let mut s = Stepper::new(&ctx, &inc);
        let mut rng = DetRng::new(seed);
        let mut priority: Vec<usize> = (0..s.workers.len()).collect();
        rng.shuffle(&mut priority);
        // The stages whose last `step`, handed everything in flight to
        // them, found nothing runnable, and that no task has run since:
        // stepping one again cannot find more.
        let mut idle = vec![false; s.workers.len()];
        loop {
            let runnable = |&k: &usize| !idle[k] && !s.workers[k].trained();
            let candidates: Vec<usize> = priority.iter().copied().filter(runnable).collect();
            let Some(&first) = candidates.first() else {
                break;
            };
            let k = match seed % 3 {
                0 => first,
                _ => candidates[rng.index(candidates.len())],
            };
            let sent = s.sent_to(k);
            let hand = sent.map(|n| rng.index(n + 1));
            let ran = s.workers[k].tasks.len();
            match s.step(k, hand) {
                Ok(true) => idle.fill(false),
                Ok(false) => idle[k] = hand == sent,
                Err(Halt::Parked) => panic!("seed {seed}: stage {k} parked unasked"),
                Err(Halt::Failed(err)) => panic!("seed {seed}: {err}"),
            }
            // A forward changes no finished list, so the state after the
            // step is the one it picked from, less the admitted forward.
            let w = &s.workers[k];
            if let Some(t) = w.tasks.get(ran).filter(|t| t.kind == TaskKind::Forward) {
                let y = t.subnet;
                assert!(may_run(w, y), "seed {seed}: stage {k} admitted blocked {y}");
                for &x in w.core.forwards(w.k()).iter().filter(|&&x| x < y) {
                    assert!(
                        !may_run(w, x),
                        "seed {seed}: stage {k} admitted {y} over admissible {x}"
                    );
                }
            }
        }
        // Nothing runnable and nothing in flight, with a stream
        // unfinished, is a deadlock.
        for (k, w) in s.workers.iter().enumerate() {
            assert_eq!(s.sent_to(k), [0, 0], "seed {seed}: left in flight to {k}");
            assert!(w.trained(), "seed {seed}: stage {k} deadlocked");
        }
        let outputs: Vec<StageOutput> = s.workers.into_iter().map(StageWorker::finish).collect();
        let hash = store_hash(
            outputs
                .iter()
                .flat_map(|out| out.layer_hashes.iter().copied()),
        );
        let params = outputs.into_iter().flat_map(|out| out.params).collect();
        let store = ParamStore::from_blocks(ctx.train.dim, params);
        assert_eq!(
            hash,
            store.bitwise_hash(),
            "seed {seed}: the fold is the store's"
        );
        let cut = ctx.ckpts.as_ref().and_then(|s| s.latest_complete());
        (hash, cut)
    }

    #[test]
    fn every_stepped_interleaving_trains_the_sequential_result() {
        // High share (3 choices a block): most in-window pairs conflict,
        // so admission order is what the interleavings race on. Debug
        // builds run the CspChecker and the cut `debug_assert`s inside
        // `step`; either objecting fails the run it happens in.
        let space = SearchSpace::uniform(Domain::Nlp, 6, 3);
        let cfg = TrainConfig::default();
        for seed in 0..200u64 {
            let n = 6 + (seed % 3) as usize;
            let list = UniformSampler::new(&space, seed).take_subnets(n);
            let want = sequential_training(&space, &list, &cfg).final_hash;
            for gpus in [2, 3] {
                let (hash, cut) = stepped(&space, &list, gpus, 0, seed);
                assert_eq!(hash, want, "seed {seed}, {gpus} stages");
                assert!(cut.is_none());
                let (hash, cut) = stepped(&space, &list, gpus, 2, seed);
                assert_eq!(hash, want, "seed {seed}, {gpus} stages, cuts every 2");
                // Cuts close only at boundaries, each one the sequential
                // state after its watermark; the loop ends before one at
                // the stream's end is taken.
                let cut = cut.expect("a stream of 6-8 closes cuts");
                assert_eq!(cut.watermark, (n as u64 - 1) / 2 * 2, "seed {seed}");
                let slices = cut.stages.iter().flat_map(|s| s.params.iter().cloned());
                let at_cut = ParamStore::from_blocks(cfg.dim, slices.collect());
                let prefix = &list[..cut.watermark as usize];
                let want = sequential_training(&space, prefix, &cfg).final_hash;
                assert_eq!(at_cut.bitwise_hash(), want, "seed {seed}, {gpus} stages");
            }
        }
    }

    #[test]
    fn prepared_and_inline_targets_give_the_sequential_losses() {
        // Two stages stepped in turn over a high-share stream. The last
        // stage prepares targets whenever it idles; every odd subnet's is
        // dropped before each of its steps, so that forward makes its
        // own. Both kinds must give the sequential losses, bit for bit,
        // and the stage never holds more than `window` targets.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
        let list = UniformSampler::new(&space, 3).take_subnets(24);
        let cfg = TrainConfig::default();
        let want = sequential_training(&space, &list, &cfg).losses;
        let spec = RunSpec {
            window: 4,
            ..RunSpec::new(&space, list, cfg, 2)
        };
        let bus = spec.bus();
        let ctx = RunContext::new(spec, bus);
        let inc = Incarnation::new(&ctx, 0);
        let mut s = Stepper::new(&ctx, &inc);
        let (mut prepared, mut inline) = (0, 0);
        while s.workers.iter().any(|w| !w.trained()) {
            let mut ran = false;
            for k in 0..s.workers.len() {
                let w = &mut s.workers[k];
                w.targets.retain(|y, _| y % 2 == 0);
                let held: Vec<u64> = w.targets.keys().copied().collect();
                let before = w.tasks.len();
                ran |= match s.step(k, s.sent_to(k)) {
                    Ok(ran) => ran,
                    Err(Halt::Parked) => panic!("stage {k} parked unasked"),
                    Err(Halt::Failed(err)) => panic!("{err}"),
                };
                let w = &s.workers[k];
                assert!(
                    w.targets.len() as u64 <= ctx.window,
                    "{:?}",
                    w.targets.keys()
                );
                let Some(t) = w.tasks.get(before) else {
                    continue;
                };
                if w.is_last() && t.kind == TaskKind::Forward {
                    if held.contains(&t.subnet.0) {
                        prepared += 1;
                    } else {
                        inline += 1;
                    }
                }
            }
            assert!(ran, "deadlock");
        }
        assert!(
            prepared > 0 && inline > 0,
            "{prepared} prepared, {inline} inline"
        );
        let last = s.workers.pop().expect("two stages").finish();
        let got: Vec<(u64, f32)> = last.losses.into_iter().collect();
        let bits = |l: &[(u64, f32)]| l.iter().map(|&(y, v)| (y, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn a_later_arrival_with_a_lower_id_is_admitted_first() {
        // Stage 1 of 2 receives SN6's activation before SN5's. No two
        // subnets share a layer, so both are admissible; Algorithm 2 takes
        // the lower ID, not the earlier arrival.
        let space = SearchSpace::uniform(Domain::Nlp, 4, 8);
        let list = (0..7).map(|i| Subnet::new(SubnetId(i), vec![i as u32; 4]));
        let spec = RunSpec::new(&space, list.collect(), TrainConfig::default(), 2);
        let bus = spec.bus();
        let ctx = RunContext::new(spec, bus);
        let inc = Incarnation::new(&ctx, 0);
        let mut s = Stepper::new(&ctx, &inc);
        for y in [6, 5] {
            s.in_flight[1][0].push_back(Msg {
                kind: TaskKind::Forward,
                subnet: SubnetId(y),
                payload: ctx.data.input(y),
                span: SpanId::EXTERNAL,
            });
        }
        assert!(matches!(s.step(1, [2, 0]), Ok(true)));
        let last = &s.workers[1];
        let admitted: Vec<SubnetId> = last.tasks.iter().map(|t| t.subnet).collect();
        assert_eq!(admitted, [SubnetId(5)]);
        assert_eq!(last.core.forwards(1), [SubnetId(6)]);
    }
}

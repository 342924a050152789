//! The stage worker: one pipeline stage's Algorithm 1 loop, cut at its
//! one blocking point into a non-blocking [`StageWorker::step`] and the
//! wait for the next message.

use super::sidecars::DurableWriter;
use super::{elapsed_us, RunSpec, TrainError};
use crate::checkpoint::{Checkpoint, CheckpointStore, StageSnapshot};
use crate::fault::{FaultInjector, FaultKind, FaultSite, MAX_RETRIES};
use crate::partition::Partition;
use crate::pipeline::TaskRecord;
use crate::scheduler::{CspScheduler, Pick, StageQueues, SubnetTable};
use crate::task::{FinishedSet, StageId, TaskKind};
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
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(super) enum Msg {
    /// The input of a subnet's next task here — a forward's activation
    /// from the predecessor, a backward's gradient from the successor —
    /// tagged with the span that produced it.
    Task(TaskKind, SubnetId, Tensor, SpanId),
    /// Supervisor-initiated shutdown: park, do not treat as a failure.
    Stop,
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
}

/// Why a worker leaves its loop before its stream is trained. Every
/// worker method returns it through `?`.
pub(super) enum Halt {
    /// The supervisor asked (the shutdown flag, a [`Msg::Stop`], a link
    /// lost under an active shutdown): not an error.
    Parked,
    Failed(TrainError),
}

impl From<TrainError> for Halt {
    fn from(err: TrainError) -> Self {
        Halt::Failed(err)
    }
}

/// The last completed backward — `(subnet, its span, its end µs)` — per
/// owned `(block, choice)` layer: what names the binding CSP writer of a
/// later forward, and the layers a checkpoint cut copies into its spare
/// snapshot. One slot per owned layer, so a lookup costs the
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

    /// The owned layers, as slot coordinates, whose last writer is
    /// `watermark` or above: every layer a backward wrote since the cut
    /// at `watermark`, provided no write since then predates the slots
    /// (a respawned worker's start from its resume cut).
    fn written_since(&self, watermark: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slots.iter().enumerate().flat_map(move |(b, block)| {
            let since = move |(c, slot): (usize, &Option<(u64, SpanId, u64)>)| {
                slot.is_some_and(|(x, _, _)| x >= watermark)
                    .then_some((b, c))
            };
            block.iter().enumerate().filter_map(since)
        })
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
/// state lives in [`StageWorker`], beside a borrow of this.
pub(super) struct RunContext {
    pub subnets: Vec<Subnet>,
    data: SyntheticDataset,
    pub train: TrainConfig,
    pub partition: Partition,
    // `choices[block]`: candidate count of every block of the space.
    choices: Vec<u32>,
    window: u64,
    // Fault tolerance.
    pub injector: FaultInjector,
    // `Duration::MAX` (no timeout configured) waits forever: std treats
    // a deadline that overflows as none.
    recv_timeout: Duration,
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
    rx: Receiver<Msg>,
    next_tx: Option<Sender<Msg>>,
    prev_tx: Option<Sender<Msg>>,
    // Queued work, each entry tagged with the producing span; a forward
    // also with its wall-clock arrival (for causal-edge binding).
    queues: StageQueues<(Tensor, SpanId, u64), (Tensor, SpanId)>,
    // `L_SN` as this stage sees it: every subnet up to the highest one
    // queued here (`registered` is the next to add, at stage 0 also the
    // next to inject) that has not yet finished here.
    table: SubnetTable,
    registered: u64,
    scheduler: CspScheduler,
    ctxs: BTreeMap<u64, ForwardCtx>,
    // The last stage's loss targets synthesized in idle time, each
    // waiting for its subnet's forward: at most `window` of them. They
    // are made in subnet order: every subnet below `next_target` has a
    // target waiting or its forward done here.
    targets: BTreeMap<u64, Tensor>,
    next_target: u64,
    // `L_f` per stage, of which this stage writes and reads its own: under
    // the run's one partition every earlier sharer of a slice layer
    // writes it here.
    finished: Vec<FinishedSet>,
    finished_count: u64,
    losses: BTreeMap<u64, f32>,
    tracer: SpanTracer,
    // The CSP admission cause of a forward is the latest of its layers'
    // last writers.
    writers: LastWriters,
    next_ckpt: u64,
    tasks: Vec<TaskRecord>,
}

impl<'a> StageWorker<'a> {
    /// One incarnation's workers, wired stage to stage, and a sender
    /// into every stage's inbox: the supervisor's, to broadcast
    /// [`Msg::Stop`] and wake recv-blocked workers on a failure.
    pub(super) fn wire(ctx: &'a RunContext, inc: &'a Incarnation) -> (Vec<Self>, Vec<Sender<Msg>>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..ctx.gpus()).map(|_| channel()).unzip();
        let workers = rxs.into_iter().enumerate().map(|(k, rx)| {
            let next_tx = txs.get(k + 1).cloned();
            let prev_tx = k.checked_sub(1).map(|p| txs[p].clone());
            StageWorker::new(ctx, inc, k, rx, next_tx, prev_tx)
        });
        (workers.collect(), txs)
    }

    /// Stage `stage` as the incarnation's cut left it; without a cut
    /// [`start`](Self::start) initialises the parameters.
    fn new(
        ctx: &'a RunContext,
        inc: &'a Incarnation,
        stage: usize,
        rx: Receiver<Msg>,
        next_tx: Option<Sender<Msg>>,
        prev_tx: Option<Sender<Msg>>,
    ) -> Self {
        let blocks = ctx.partition.stage_range(StageId(stage as u32));
        let (params, engine, losses) = match &inc.resume {
            Some(ckpt) => {
                let s = &ckpt.stages[stage];
                (s.params.clone(), s.engine.clone(), s.losses.clone())
            }
            None => (Vec::new(), ctx.train.engine(), BTreeMap::new()),
        };
        let resume_w = inc.watermark;
        let mut finished = vec![FinishedSet::new(); ctx.gpus() as usize];
        for y in 0..resume_w {
            finished[stage].insert(SubnetId(y));
        }
        // Distinct id namespace per (incarnation, stage) so the merged
        // trace never collides.
        let namespace = u64::from(inc.number) * u64::from(ctx.gpus()) + stage as u64;
        StageWorker {
            ctx,
            inc,
            stage,
            writers: LastWriters::new(blocks.start, &ctx.choices[blocks.clone()]),
            blocks,
            engine,
            params,
            rx,
            next_tx,
            prev_tx,
            queues: StageQueues::new(true),
            table: SubnetTable::new(),
            registered: resume_w,
            scheduler: CspScheduler::new(),
            ctxs: BTreeMap::new(),
            targets: BTreeMap::new(),
            next_target: resume_w,
            finished,
            finished_count: resume_w,
            losses,
            tracer: SpanTracer::with_namespace(namespace),
            next_ckpt: resume_w + ctx.ckpt_interval,
            tasks: Vec::new(),
        }
    }

    /// The incarnation's prologue, on the worker's own thread.
    fn start(&mut self) {
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

    /// This stage's finished list.
    fn done(&self) -> &FinishedSet {
        &self.finished[self.stage]
    }

    /// Queues `y`'s forward after registering every subnet up to `y` in
    /// the table: injection runs in ID order, so each earlier one is
    /// already in flight or done, and its pending writes bind `y`.
    fn queue_forward(&mut self, y: SubnetId, input: Tensor, src: SpanId, arrival_us: u64) {
        while self.registered <= y.0 {
            let subnet = self.ctx.subnets[self.registered as usize].clone();
            self.table
                .insert(subnet, self.ctx.partition.clone())
                .expect("registered in ID order");
            self.registered += 1;
        }
        self.queues.push_forward(y, (input, src, arrival_us));
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

    /// A link that closed or a receive that timed out: the supervisor's
    /// doing under an active shutdown — a park request — and the failure
    /// `err` otherwise. The one place the two are told apart.
    fn lost(&self, err: TrainError) -> Halt {
        if self.inc.shutdown.load(Ordering::Acquire) {
            Halt::Parked
        } else {
            Halt::Failed(err)
        }
    }

    /// The output of a stage whose stream is trained. Its slice is final,
    /// so it is fingerprinted here, on the stage's own thread, while the
    /// other stages do the same with theirs.
    fn finish(self) -> StageOutput {
        let hashes = layer_hashes(&self.params).collect();
        self.into_output(hashes)
    }

    fn into_output(self, layer_hashes: Vec<u64>) -> StageOutput {
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

    /// Hands the result of `y`'s task to the neighbour that runs its next
    /// one — a forward's activation to the successor, a backward's
    /// gradient to the predecessor — after any scheduled transient send
    /// fault.
    fn hand_off(
        &mut self,
        kind: TaskKind,
        y: SubnetId,
        payload: Tensor,
        span: SpanId,
    ) -> Result<(), Halt> {
        let (link, to_next) = match kind {
            TaskKind::Forward => ("successor", true),
            TaskKind::Backward => ("predecessor", false),
        };
        self.transient_fault(FaultSite::Send, y, kind, link)?;
        let tx = if to_next {
            &self.next_tx
        } else {
            &self.prev_tx
        };
        let tx = tx.as_ref().expect("an inner link has its neighbour");
        let stage = self.stage;
        tx.send(Msg::Task(kind, y, payload, span))
            .map_err(|_| self.lost(TrainError::ChannelClosed { stage, link }))
    }

    /// Blocking receive. Fault injection and enqueueing happen in
    /// [`accept_msg`](Self::accept_msg).
    fn recv_blocking(&mut self) -> Result<Msg, Halt> {
        let stage = self.stage;
        self.rx.recv_timeout(self.ctx.recv_timeout).map_err(|e| {
            self.lost(match e {
                RecvTimeoutError::Disconnected => TrainError::ChannelClosed {
                    stage,
                    link: "inbound",
                },
                RecvTimeoutError::Timeout => TrainError::Timeout {
                    stage,
                    task: self.done().first_unfinished().0,
                    cause: None,
                },
            })
        })
    }

    /// Fires any scheduled transient receive fault on `msg`, stamps its
    /// arrival, and enqueues it; a supervisor [`Msg::Stop`] parks.
    fn accept_msg(&mut self, msg: Msg) -> Result<(), Halt> {
        let Msg::Task(kind, y, payload, src) = msg else {
            return Err(Halt::Parked);
        };
        self.transient_fault(FaultSite::Recv, y, kind, "inbound")?;
        let now = self.now_us();
        match kind {
            TaskKind::Forward => self.queue_forward(y, payload, src, now),
            TaskKind::Backward => self.queues.push_backward(y, (payload, src)),
        }
        self.sample_queue_depth();
        Ok(())
    }

    /// Moves every already-delivered message into the local queues, so
    /// arrival bursts are visible to queue-depth metrics and an arrived
    /// backward can preempt queued forwards without a blocking receive.
    fn drain_inbound(&mut self) -> Result<(), Halt> {
        // A disconnect surfaces through the blocking receive once
        // nothing is runnable; buffered messages drain first.
        while let Ok(msg) = self.rx.try_recv() {
            self.accept_msg(msg)?;
        }
        Ok(())
    }

    fn now_us(&self) -> u64 {
        elapsed_us(self.ctx.epoch)
    }

    fn sample_queue_depth(&self) {
        self.ctx.hub.observe(
            self.stage as u32,
            Sample::QueueDepth,
            self.queues.len() as u64,
        );
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
        self.ctx.hub.observe(stage, latency, end - start);
        self.ctx.hub.record(stage, count, 1);
    }

    /// Snapshots this stage's state into the checkpoint store when its
    /// finished prefix reaches the next watermark boundary. Thanks to
    /// the injection barrier in [`try_inject`](Self::try_inject), at
    /// that moment the stage's state is *exactly* the sequential state
    /// after `next_ckpt` subnets — no task of any later subnet has run
    /// anywhere — which the `debug_assert`s below audit.
    ///
    /// The snapshot refills this stage's spare — its snapshot of a
    /// retired cut at `Ws` — with only the layers written since `Ws`
    /// (the last-writer slots name them), and is a fresh clone only when
    /// there is no spare at or above the incarnation's resume watermark.
    fn maybe_checkpoint(&mut self) {
        let ctx = self.ctx;
        let Some(store) = &ctx.ckpts else {
            return;
        };
        let prefix = self.done().first_unfinished().0;
        if self.next_ckpt <= prefix {
            debug_assert_eq!(
                prefix, self.next_ckpt,
                "stage {}: prefix skipped a watermark boundary",
                self.stage
            );
            debug_assert!(self.ctxs.is_empty(), "in-flight forward at watermark");
            debug_assert!(self.queues.is_empty(), "queued task at watermark");
            let snap_start = elapsed_us(ctx.epoch);
            let snapshot = match store.take_spare(self.stage, self.inc.watermark) {
                Some((since, mut spare)) => {
                    let written = self.writers.written_since(since);
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
            let closes = completed.is_some();
            let cut = RunEvent::CheckpointCut {
                watermark,
                completed: closes,
            };
            ctx.bus.emit(stage, snap_start, cut);
            // The worker whose record completes the cut hands it over to be
            // persisted and goes back to training; no lock is held here.
            if let (Some(cut), Some(writer)) = (completed, &ctx.writer) {
                writer.hand_over(stage, cut, &ctx.bus, ctx.epoch);
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
        if let Some((x, wspan, wend)) = self.writers.latest(subnet) {
            if wend > cause.2 {
                cause = (wspan, CauseKind::CspWriterCompletion { writer: x }, wend);
            }
        }
        // The last stage: the loss closes the forward pass, against the
        // target idle time prepared or, on a miss, one made here.
        let loss_grad = self.next_tx.is_none().then(|| {
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
                self.queues.push_backward(y, (grad, span));
                self.sample_queue_depth();
            }
            None => self.hand_off(TaskKind::Forward, y, out, span)?,
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
    fn run_backward(&mut self, y: SubnetId, grad_out: Tensor, src: SpanId) -> Result<(), Halt> {
        let started = Instant::now();
        self.fire_execute_fault(y, TaskKind::Backward);
        let mut ctx = self.ctxs.remove(&y.0).expect("forward context present");
        let grad = (self.engine).backward_slice_input(|l| self.layer_params(l), &mut ctx, grad_out);
        let (start, split) = (self.us_at(started), self.now_us());
        let cause = (src, CauseKind::GradientArrival);
        let span = self.emit_span(SpanKind::Backward, y, (start, split), Some(cause));
        // Stage 0's slice yields none: nobody reads the subnet input's.
        if let Some(grad) = grad {
            self.hand_off(TaskKind::Backward, y, grad, span)?;
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
        self.writers
            .record(&self.ctx.subnets[y.0 as usize], update, end);
        self.finished[self.stage].insert(y);
        self.finished_count += 1;
        self.table.retire_below(self.done().first_unfinished());
        Ok(())
    }

    fn try_inject(&mut self) {
        debug_assert_eq!(self.stage, 0);
        while self.registered < self.ctx.total()
            && self.registered - self.finished_count < self.ctx.window
        {
            // Injection barrier (no-op when checkpointing is off): a
            // subnet enters the pipeline only once the finished prefix
            // has reached the start of its checkpoint epoch, so every
            // watermark is a consistent cut (no task past it exists
            // anywhere before all stages snapshot it). Stage 0's
            // backward is the causally last task of each subnet to start,
            // so its prefix IS the global watermark: a later stage may
            // still be in the weight half of its own backward, but it
            // takes no other task, and cuts, before that is done.
            if let Some(epochs) = self.registered.checked_div(self.ctx.ckpt_interval) {
                let epoch_start = epochs * self.ctx.ckpt_interval;
                if epoch_start > self.done().first_unfinished().0 {
                    break;
                }
            }
            let y = SubnetId(self.registered);
            let input = self.ctx.data.input(y.0);
            let now = self.now_us();
            self.queue_forward(y, input, SpanId::EXTERNAL, now);
            self.sample_queue_depth();
        }
    }

    /// Idle time at the last stage: synthesizes the loss target of the
    /// lowest in-flight subnet (at most `window` above the finished
    /// prefix) that has neither a target prepared nor its forward done
    /// here. `false` when there is none, or this is not the last stage.
    fn prepare_target(&mut self) -> bool {
        if self.next_tx.is_some() {
            return false;
        }
        let done = &self.finished[self.stage];
        let end = (done.first_unfinished().0 + self.ctx.window).min(self.ctx.total());
        // Past the forwards that ran on a miss.
        let mut y = self.next_target;
        while y < end && (done.contains(SubnetId(y)) || self.ctxs.contains_key(&y)) {
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

    /// One turn of the Algorithm 1 loop, up to — not including — the
    /// blocking receive: `true` when a task ran, `false` when nothing is
    /// runnable until a message arrives. Never waits for a peer (it can
    /// sleep in an injected `Slow` fault or retry back-off). The last
    /// stage spends what would be the wait preparing loss targets, one
    /// between looks at its inbox.
    fn step(&mut self) -> Result<bool, Halt> {
        if self.inc.shutdown.load(Ordering::Acquire) {
            return Err(Halt::Parked);
        }
        // Snapshot before injecting: at a boundary the queues are
        // provably empty, and injection must not race the cut.
        self.maybe_checkpoint();
        if self.stage == 0 {
            self.try_inject();
        }
        let stage = StageId(self.stage as u32);
        loop {
            // Pull every delivered message before picking work, so a
            // burst shows up in the queue-depth metrics and a delivered
            // backward takes priority over queued forwards.
            self.drain_inbound()?;
            self.sample_queue_depth();
            // The lowest-ID backward, else the lowest-ID admissible forward.
            let pick = self
                .queues
                .pick(&mut self.scheduler, &self.finished, &self.table, stage);
            match pick {
                Pick::Backward {
                    id,
                    payload: (grad, src),
                    preempted,
                } => {
                    if preempted {
                        self.ctx.hub.record(stage.0, Counter::BackwardPreemption, 1);
                    }
                    self.run_backward(id, grad, src)?;
                }
                Pick::Forward {
                    id,
                    payload: (input, src, arrival),
                } => self.run_forward(id, input, src, arrival)?,
                Pick::Idle { .. } if self.prepare_target() => continue,
                Pick::Idle { .. } => return Ok(false),
            }
            return Ok(true);
        }
    }

    /// [`step`](Self::step) until the stream is trained, blocking for one
    /// message whenever nothing is runnable.
    fn train(&mut self) -> Result<(), Halt> {
        self.start();
        let stage = self.stage as u32;
        while self.finished_count < self.ctx.total() {
            if self.step()? {
                continue;
            }
            // Idle time with work queued is a causal stall (forwards
            // queued but none admissible); with an empty queue it is a
            // pipeline bubble.
            let queued = self.queues.fwd.len() as u64;
            if queued > 0 {
                self.ctx
                    .bus
                    .emit(stage, self.now_us(), RunEvent::CspStall { queued });
            }
            let waiting = Instant::now();
            let msg = self.recv_blocking()?;
            let idle = if queued > 0 {
                Counter::StallUs
            } else {
                Counter::BubbleUs
            };
            self.ctx.hub.record(stage, idle, elapsed_us(waiting));
            self.accept_msg(msg)?;
        }
        Ok(())
    }

    /// The worker thread's body: hands the stage's state back whether the
    /// stream finished or the supervisor parked it.
    pub(super) fn run(mut self) -> Result<StageOutput, TrainError> {
        match self.train() {
            Ok(()) => Ok(self.finish()),
            // A restart follows and rolls the slice back: no fingerprint.
            Err(Halt::Parked) => Ok(self.into_output(Vec::new())),
            Err(Halt::Failed(err)) => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
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
    /// as an independent oracle.
    fn may_run(w: &StageWorker, x: SubnetId) -> bool {
        let (done, subnets) = (w.done(), &w.ctx.subnets);
        let reader = &subnets[x.0 as usize];
        (done.first_unfinished().0..x.0)
            .filter(|&v| !done.contains(SubnetId(v)))
            .all(|v| !reader.conflicts_within(w.blocks.clone(), &subnets[v as usize]))
    }

    /// Steps `gpus` workers over `list` on this thread, one `step` at a
    /// time in an order drawn from `seed`, until every stream is trained;
    /// returns the final parameter hash (folded from the stages' layer
    /// hashes, as the supervisor does) and the newest complete cut.
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
        let (mut workers, _supervisor_txs) = StageWorker::wire(&ctx, &inc);
        let mut rng = DetRng::new(seed);
        let mut priority: Vec<usize> = (0..workers.len()).collect();
        rng.shuffle(&mut priority);
        for w in &mut workers {
            w.start();
        }
        // The stages whose last `step` found nothing runnable and that no
        // task has run since: stepping one again cannot find more.
        let mut idle = vec![false; workers.len()];
        loop {
            let runnable = |&k: &usize| !idle[k] && workers[k].finished_count < ctx.total();
            let candidates: Vec<usize> = priority.iter().copied().filter(runnable).collect();
            let Some(&first) = candidates.first() else {
                break;
            };
            let k = match seed % 3 {
                0 => first,
                _ => candidates[rng.index(candidates.len())],
            };
            let ran = workers[k].tasks.len();
            match workers[k].step() {
                Ok(true) => idle.fill(false),
                Ok(false) => idle[k] = true,
                Err(Halt::Parked) => panic!("seed {seed}: stage {k} parked unasked"),
                Err(Halt::Failed(err)) => panic!("seed {seed}: {err}"),
            }
            // A forward changes no finished list, so the state after the
            // step is the one it picked from, less the admitted forward.
            let w = &workers[k];
            if let Some(t) = w.tasks.get(ran).filter(|t| t.kind == TaskKind::Forward) {
                let y = t.subnet;
                assert!(may_run(w, y), "seed {seed}: stage {k} admitted blocked {y}");
                for &x in w.queues.fwd.ids().iter().filter(|&&x| x < y) {
                    assert!(
                        !may_run(w, x),
                        "seed {seed}: stage {k} admitted {y} over admissible {x}"
                    );
                }
            }
        }
        // Nothing is in flight between steps (a sent message is delivered),
        // so a full round of `false` with a stream unfinished is a deadlock.
        for (k, w) in workers.iter().enumerate() {
            assert_eq!(
                w.finished_count,
                ctx.total(),
                "seed {seed}: stage {k} deadlocked"
            );
        }
        let outputs: Vec<StageOutput> = workers.into_iter().map(StageWorker::finish).collect();
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
        let (mut workers, _supervisor_txs) = StageWorker::wire(&ctx, &inc);
        for w in &mut workers {
            w.start();
        }
        let (mut prepared, mut inline) = (0, 0);
        while workers.iter().any(|w| w.finished_count < ctx.total()) {
            let mut ran = false;
            for w in &mut workers {
                w.targets.retain(|y, _| y % 2 == 0);
                let held: Vec<u64> = w.targets.keys().copied().collect();
                let before = w.tasks.len();
                ran |= match w.step() {
                    Ok(ran) => ran,
                    Err(Halt::Parked) => panic!("stage {} parked unasked", w.stage),
                    Err(Halt::Failed(err)) => panic!("{err}"),
                };
                assert!(
                    w.targets.len() as u64 <= ctx.window,
                    "{:?}",
                    w.targets.keys()
                );
                let Some(t) = w.tasks.get(before) else {
                    continue;
                };
                if w.next_tx.is_none() && t.kind == TaskKind::Forward {
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
        let last = workers.pop().expect("two stages").finish();
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
        let (mut workers, inboxes) = StageWorker::wire(&ctx, &inc);
        let last = &mut workers[1];
        last.start();
        for y in [6, 5] {
            let activation = ctx.data.input(y);
            let msg = Msg::Task(TaskKind::Forward, SubnetId(y), activation, SpanId::EXTERNAL);
            inboxes[1].send(msg).expect("the worker holds its inbox");
        }
        assert!(matches!(last.step(), Ok(true)));
        let admitted: Vec<SubnetId> = last.tasks.iter().map(|t| t.subnet).collect();
        assert_eq!(admitted, [SubnetId(5)]);
        assert_eq!(last.queues.fwd.ids(), [SubnetId(6)]);
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
}

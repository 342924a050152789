//! The discrete-event pipeline engine.
//!
//! Runs a supernet training workload — an ordered stream of subnets, each
//! split into `D` stages — over the simulated GPU cluster, under one of
//! the three synchronisation policies of Figure 1:
//!
//! * **CSP** (NASPipe): per-stage queues, backward-first priority, and the
//!   CSP scheduler's out-of-order admission; the predictor prefetches
//!   parameter contexts and the context manager swaps them CPU<->GPU.
//! * **BSP** (GPipe, VPipe): subnets run in bulks with a flush barrier
//!   between bulks, FIFO within a bulk.
//! * **ASP** (PipeDream): continuous 1F1B injection, no flush, no
//!   dependency enforcement.
//!
//! Everything the paper measures — throughput, bubble ratio, ALU
//! utilisation, cache hits, per-layer access order — is derived from the
//! resulting event history. The engine is fully deterministic: a run is a
//! pure function of `(space, config)`.

use crate::config::{PipelineConfig, SyncPolicy};
use crate::context::{CacheStats, StageCache};
use crate::memory::{self, MemoryPlan, MemoryVerdict};
use crate::partition::{PartitionMode, Partitioner};
use crate::predictor::{Fetch, PendingBackward, Predictor};
use crate::report::{alu_efficiency, PipelineReport};
use crate::scheduler::{CspScheduler, Pick, StageQueues, SubnetEntry, SubnetTable};
use crate::task::{FinishedSet, StageId, TaskKind};
use naspipe_obs::telemetry::DEFAULT_SAMPLE_INTERVAL_US;
use naspipe_obs::{
    BusConfig, CausalEdge, CauseKind, Counter, CspChecker, EventBus, MetricsRecorder,
    MetricsSnapshot, ObsReport, Recorder, RunEvent, RunMeta, Sample, SpanDraft, SpanId, SpanKind,
    SpanTrace, SpanTracer, TelemetryOptions, Tracer,
};
use naspipe_sim::cluster::Cluster;
use naspipe_sim::event::EventQueue;
use naspipe_sim::gpu::GpuId;
use naspipe_sim::time::{SimDuration, SimTime};
use naspipe_supernet::layer::{Domain, LayerRef};
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use std::fmt;
use std::ops::Range;

/// One executed task with its timing — the raw material for metrics,
/// reproducibility analysis, and numeric training replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// Compute start time.
    pub start: SimTime,
    /// Compute end time.
    pub end: SimTime,
    /// Forward or backward.
    pub kind: TaskKind,
    /// The subnet.
    pub subnet: SubnetId,
    /// The stage it ran on.
    pub stage: StageId,
    /// The block range this stage covered for this subnet.
    pub blocks: Range<usize>,
}

impl TaskRecord {
    /// What [`PipelineOutcome::tasks`] is ordered by.
    fn key(&self) -> (SimTime, SubnetId, StageId) {
        (self.start, self.subnet, self.stage)
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Aggregate metrics (Table 2 row).
    pub report: PipelineReport,
    /// Every executed task, ordered by `(start, subnet, stage)` (ties, if a
    /// zero-length task makes any, in dispatch order). The engine keeps
    /// the order as it records each task; nothing sorts at the end.
    pub tasks: Vec<TaskRecord>,
    /// The subnets trained, in exploration order.
    pub subnets: Vec<Subnet>,
    /// Per-stage observability metrics (queue depth, preemptions,
    /// stall/bubble time, cache behaviour, task latencies).
    pub obs: ObsReport,
    /// Per-task spans with causal edges (simulated time), for Perfetto
    /// export and critical-path analysis. Empty when the run used a
    /// [`naspipe_obs::NullTracer`].
    pub spans: SpanTrace,
}

/// Why a run could not be performed.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Configuration invalid for the space.
    InvalidConfig(String),
    /// The policy cannot hold its parameters in GPU memory (e.g. GPipe on
    /// NLP.c0, §5.1).
    OutOfMemory {
        /// Bytes required per GPU.
        required: u64,
        /// Bytes available per GPU.
        available: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::OutOfMemory {
                required,
                available,
            } => write!(
                f,
                "supernet parameters do not fit in GPU memory ({required} bytes needed, {available} available)"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Injection discipline derived from the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Keep up to `window` subnets in flight.
    Window(u64),
    /// Inject `bulk` subnets, flush, repeat.
    Bulk(u64),
}

#[derive(Debug)]
enum Ev {
    FwdArrive {
        subnet: SubnetId,
        stage: u32,
        /// The span whose completion produced this arrival: the
        /// predecessor stage's forward, or [`SpanId::EXTERNAL`] at
        /// injection.
        src: SpanId,
    },
    BwdArrive {
        subnet: SubnetId,
        stage: u32,
        pending: Vec<PendingBackward>,
        /// The successor stage's backward span (or, at the last stage,
        /// this subnet's own forward span) that produced the gradient.
        src: SpanId,
    },
    TaskDone {
        subnet: SubnetId,
        stage: u32,
        kind: TaskKind,
        /// Span of the completing task.
        span: SpanId,
    },
}

/// How a queued task got there: the causal edge it would start on, and
/// when it arrived.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    edge: CausalEdge,
    at: SimTime,
}

/// A queued backward's payload: the pending-backward list its message
/// carries (Algorithm 3), and the gradient arrival that queued it.
struct QueuedBackward {
    pending: Vec<PendingBackward>,
    arrival: Arrival,
}

/// A backward completion at a stage — a CSP shared-layer writer candidate
/// for the causal edge of a later forward admission there.
#[derive(Debug, Clone, Copy)]
struct WriterDone {
    subnet: u64,
    span: SpanId,
    at: SimTime,
}

struct StageState {
    queues: StageQueues<Arrival, QueuedBackward>,
    busy: bool,
    // Start of the idle interval not yet attributed to bubble/stall
    // (meaningful while `!busy`); see `Engine::settle_idle`.
    idle_since: SimTime,
    // Each layer's `landing` is when its in-flight (pre)fetch lands and
    // the fetch/prefetch span that will have made it resident.
    cache: Option<StageCache>,
    predictor: Predictor,
    pinned: Vec<LayerRef>,
    // Tracing side-state (populated only when the tracer is enabled):
    // writer candidates still able to out-wait a queued forward's arrival.
    bwd_done: Vec<WriterDone>,
}

/// One simulated pipeline run, as data: the space and configuration (the
/// arguments of [`new`](Self::new)), plus every option with its default.
/// Set options by field assignment or struct update, then
/// [`run`](Self::run):
///
/// ```
/// use naspipe_core::config::PipelineConfig;
/// use naspipe_core::pipeline::SimSpec;
/// use naspipe_obs::NullTracer;
/// use naspipe_supernet::space::SearchSpace;
///
/// let space = SearchSpace::nlp_c3();
/// let config = PipelineConfig::naspipe(4, 10);
/// let traced = SimSpec::new(&space, &config).run()?;
/// let untraced = SimSpec {
///     tracer: Box::new(NullTracer),
///     ..SimSpec::new(&space, &config)
/// }
/// .run()?;
/// assert_eq!(traced.report, untraced.report);
/// assert!(untraced.spans.spans().is_empty());
/// # Ok::<(), naspipe_core::pipeline::PipelineError>(())
/// ```
pub struct SimSpec<'a> {
    /// The search space to train.
    pub space: &'a SearchSpace,
    /// Policy, cluster shape and tunables.
    pub config: &'a PipelineConfig,
    /// The subnet stream, so different policies and GPU counts can train
    /// the *same* exploration order. `None` (the default) samples
    /// `config.num_subnets` uniformly from `config.seed`.
    pub subnets: Option<Vec<Subnet>>,
    /// Per-task span emission (default: a [`SpanTracer`]). A
    /// [`naspipe_obs::NullTracer`] proves tracing off the hot path: the
    /// outcome is identical except `spans` is empty.
    pub tracer: Box<dyn Tracer>,
    /// Live telemetry (default `None`): the engine publishes a
    /// [`MetricsSnapshot`] of its recorder whenever simulated time
    /// crosses the options' sampling interval, plus one final snapshot
    /// at the makespan, so a [`naspipe_obs::OpsServer`] scraping the hub
    /// sees the run progress in simulated time. The returned report embeds the published
    /// series. Telemetry never touches the event queue: schedules and
    /// training results are bit-identical with and without a hub.
    pub telemetry: Option<&'a TelemetryOptions>,
    /// The cost hook: every compute reservation's simulated duration, in
    /// milliseconds, given its [`TaskCost`] (default: the catalog price,
    /// unchanged). It is called once per task and once per hoisted
    /// recompute, and is the one place the timing model is replaced or
    /// perturbed: replayed measurements, a slowed stage, seeded noise.
    /// Only the schedule can move; under CSP the training result cannot.
    /// The hook must return a finite, non-negative duration.
    pub cost: &'a dyn Fn(TaskCost) -> f64,
}

/// The default cost hook: the catalog price, unchanged.
fn catalog_price(task: TaskCost) -> f64 {
    task.catalog_ms
}

/// One compute reservation as [`SimSpec::cost`] sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// The subnet.
    pub subnet: SubnetId,
    /// The stage the work runs on.
    pub stage: StageId,
    /// Forward or backward. A hoisted recompute is priced as its subnet's
    /// forward at that stage.
    pub kind: TaskKind,
    /// The catalog price: the slice's Table 5 time scaled to the run's
    /// batch. A backward that rematerialises its activations in place
    /// (the BSP baselines) includes the forward it redoes.
    pub catalog_ms: f64,
}

impl<'a> SimSpec<'a> {
    /// `config` over `space` with every option at its default.
    pub fn new(space: &'a SearchSpace, config: &'a PipelineConfig) -> Self {
        SimSpec {
            space,
            config,
            subnets: None,
            tracer: Box::new(SpanTracer::new()),
            telemetry: None,
            cost: &catalog_price,
        }
    }

    /// Runs the simulation; a pure function of the spec.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for malformed
    /// configurations (including a `subnets` length other than
    /// `config.num_subnets`) and [`PipelineError::OutOfMemory`] when the
    /// policy's resident parameters exceed device memory.
    ///
    /// # Panics
    ///
    /// Panics if any subnet is invalid for `space`, or if the cost hook
    /// returns a negative or non-finite duration.
    pub fn run(self) -> Result<PipelineOutcome, PipelineError> {
        let (space, config) = (self.space, self.config);
        config
            .validate(space)
            .map_err(PipelineError::InvalidConfig)?;
        let subnets = self.subnets.unwrap_or_else(|| {
            UniformSampler::new(space, config.seed).take_subnets(config.num_subnets as usize)
        });
        if subnets.len() as u64 != config.num_subnets {
            return Err(PipelineError::InvalidConfig(format!(
                "{} subnets supplied but config.num_subnets = {}",
                subnets.len(),
                config.num_subnets
            )));
        }
        for s in &subnets {
            assert!(s.is_valid_for(space), "subnet {s} invalid for space");
        }
        Engine::new(
            space,
            config,
            subnets,
            self.tracer,
            self.telemetry,
            self.cost,
        )?
        .run()
    }
}

// The three DES entry points `benchmark/src/workloads.rs` links by name.
// The harness is frozen outside `benchmark` PRs, so they stay until the
// `benchmark` PR that moves it to `SimSpec` (ROADMAP 1b); 1c deletes them.

#[doc(hidden)]
pub fn run_pipeline_with_subnets(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
) -> Result<PipelineOutcome, PipelineError> {
    SimSpec {
        subnets: Some(subnets),
        ..SimSpec::new(space, config)
    }
    .run()
}

#[doc(hidden)]
pub fn run_pipeline_with_tracer(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
    tracer: Box<dyn Tracer>,
) -> Result<PipelineOutcome, PipelineError> {
    SimSpec {
        subnets: Some(subnets),
        tracer,
        ..SimSpec::new(space, config)
    }
    .run()
}

#[doc(hidden)]
pub fn run_pipeline_telemetry(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
    tracer: Box<dyn Tracer>,
    telemetry: Option<&TelemetryOptions>,
) -> Result<PipelineOutcome, PipelineError> {
    SimSpec {
        subnets: Some(subnets),
        tracer,
        telemetry,
        ..SimSpec::new(space, config)
    }
    .run()
}

/// A simulated-time sampling cadence: due whenever the simulation clock
/// crosses `next_us` — the discrete-event analogue of the threaded
/// supervisor's sampling deadline. The watchdog twin observes on one of these,
/// so every verdict — including its trip time — is a pure function of
/// the run's inputs (bitwise reproducible across hosts and
/// `NASPIPE_THREADS`).
struct Cadence {
    interval_us: u64,
    next_us: u64,
}

impl Cadence {
    fn new(interval_us: u64) -> Self {
        Cadence {
            interval_us,
            next_us: interval_us,
        }
    }

    /// Whether a sample is due at `now_us`; if so, schedules the next
    /// (catching up across long event gaps).
    fn due(&mut self, now_us: u64) -> bool {
        let due = now_us >= self.next_us;
        if due {
            self.next_us = now_us - now_us % self.interval_us + self.interval_us;
        }
        due
    }
}

/// Reference pipeline batch of a space's domain when the space is unnamed.
fn domain_reference_batch(domain: Domain) -> u32 {
    match domain {
        Domain::Nlp => 192,
        Domain::Cv => 64,
    }
}

/// The non-skipped layers of `entry`'s stage-`k` slice, in block order.
fn slice_layers(entry: &SubnetEntry, k: u32) -> impl Iterator<Item = LayerRef> + '_ {
    entry
        .partition
        .stage_range(StageId(k))
        .filter(|&b| !entry.subnet.skips(b))
        .map(|b| entry.subnet.layer(b))
}

struct Engine<'a> {
    space: &'a SearchSpace,
    config: &'a PipelineConfig,
    d: u32,
    batch: u32,
    reference_batch: u32,
    plan: MemoryPlan,
    partitioner: Partitioner,
    cluster: Cluster,
    queue: EventQueue<Ev>,
    stages: Vec<StageState>,
    finished: Vec<FinishedSet>,
    table: SubnetTable,
    scheduler: CspScheduler,
    subnets: Vec<Subnet>,
    injected: u64,
    completed: u64,
    records: Vec<TaskRecord>,
    injection: Injection,
    use_csp: bool,
    use_predictor: bool,
    makespan: SimTime,
    // Stages whose admission inputs the current event changed, ascending.
    wake: Vec<u32>,
    // `SimSpec::cost`: catalog price -> simulated duration.
    cost: &'a dyn Fn(TaskCost) -> f64,
    recorder: MetricsRecorder,
    // Per-stage cache stats already folded into the recorder; the next
    // sync emits only the delta.
    cache_seen: Vec<CacheStats>,
    // Debug-mode independent re-check of the CSP contract on CSP runs.
    checker: Option<CspChecker>,
    // Per-task span emission with causal edges (NullTracer = off).
    tracer: Box<dyn Tracer>,
    // The run's shared sinks: flight ring, journal, hub, watchdog twin.
    bus: EventBus,
    // When the hub is due a snapshot (None = no hub attached).
    telemetry: Option<Cadence>,
    // When the watchdog twin is due one (None = diagnostics disabled).
    watchdog: Option<Cadence>,
}

impl<'a> Engine<'a> {
    fn new(
        space: &'a SearchSpace,
        config: &'a PipelineConfig,
        subnets: Vec<Subnet>,
        tracer: Box<dyn Tracer>,
        telemetry: Option<&TelemetryOptions>,
        cost: &'a dyn Fn(TaskCost) -> f64,
    ) -> Result<Self, PipelineError> {
        let d = config.num_gpus;
        let plan = memory::plan(space, config.policy, d, config.cache_factor);
        let batch = if config.batch > 0 {
            config.batch
        } else {
            match plan.verdict {
                MemoryVerdict::Supported { batch } => batch,
                MemoryVerdict::ParametersDontFit {
                    required,
                    available,
                } => {
                    return Err(PipelineError::OutOfMemory {
                        required,
                        available,
                    })
                }
            }
        };
        let reference_batch = space
            .id()
            .map(|id| id.default_batch())
            .unwrap_or_else(|| domain_reference_batch(space.domain()));

        let mode = match config.policy {
            SyncPolicy::Csp { mirroring, .. } if mirroring => PartitionMode::Mirrored,
            _ => PartitionMode::Static,
        };
        let partitioner = Partitioner::new(ProfiledSpace::new(space, reference_batch), d, mode);

        let (use_csp, use_predictor) = match config.policy {
            SyncPolicy::Csp {
                scheduler,
                predictor,
                ..
            } => (scheduler, predictor),
            _ => (false, false),
        };
        let swap = config.policy.swaps_parameters();

        // Cache sizing: `cache_factor` mean subnet stage slices (~3x for
        // NASPipe — current + evicting + prefetched; 2x for VPipe). The
        // capacity is a soft limit: required swap-ins are always admitted,
        // prefetches are refused under pressure.
        let cache = if swap {
            let mean_slice = memory::mean_subnet_param_bytes(space) as f64 / f64::from(d);
            let factor = match config.policy {
                SyncPolicy::Csp { .. } => config.cache_factor,
                _ => 2.0, // VPipe: current + prefetched subnet
            };
            Some(((mean_slice * factor) as u64).max(1))
        } else {
            None
        };

        let stages = (0..d)
            .map(|_| StageState {
                queues: StageQueues::new(use_csp),
                busy: false,
                idle_since: SimTime::ZERO,
                cache: cache.map(StageCache::new),
                predictor: Predictor::new(),
                pinned: Vec::new(),
                bwd_done: Vec::new(),
            })
            .collect();

        let injection = match config.policy {
            SyncPolicy::Csp { scheduler, .. } => Injection::Window(if scheduler {
                config.max_queue as u64
            } else {
                1
            }),
            SyncPolicy::Bsp { .. } => Injection::Bulk(u64::from(config.policy.bulk_size(d))),
            // 1F1B keeps one forward and one backward of distinct batches
            // per stage in flight: 2D batches saturate the pipeline.
            SyncPolicy::Asp => Injection::Window(2 * u64::from(d)),
        };

        Ok(Self {
            space,
            config,
            d,
            batch,
            reference_batch,
            plan,
            partitioner,
            cluster: Cluster::with_hosts(
                d,
                config.gpus_per_host,
                naspipe_sim::cluster::GPU_MEMORY_BYTES,
            ),
            queue: EventQueue::new(),
            stages,
            finished: vec![FinishedSet::new(); d as usize],
            table: SubnetTable::new(),
            scheduler: CspScheduler::new(),
            subnets,
            injected: 0,
            completed: 0,
            records: Vec::new(),
            injection,
            use_csp,
            use_predictor,
            makespan: SimTime::ZERO,
            wake: Vec::new(),
            cost,
            recorder: MetricsRecorder::new(),
            cache_seen: vec![CacheStats::default(); d as usize],
            // Only CSP runs promise the causal contract; debug builds
            // re-verify every admission against it.
            checker: (cfg!(debug_assertions) && use_csp).then(CspChecker::new),
            tracer,
            bus: EventBus::new(BusConfig {
                engine: "des",
                stages: d,
                enabled: config.diagnostics.enabled,
                watchdog: &config.diagnostics.watchdog,
                flight_dump: config.diagnostics.flight_dump.as_deref(),
                ops: config.diagnostics.ops.as_ref(),
                telemetry,
                wall_clock: false,
            }),
            telemetry: telemetry.map(|t| Cadence::new(t.interval_us())),
            watchdog: (config.diagnostics.enabled)
                .then(|| Cadence::new(DEFAULT_SAMPLE_INTERVAL_US)),
        })
    }

    fn batch_scale(&self) -> f64 {
        // Compute time saturates: below the saturation batch the GPU is
        // launch/occupancy bound (this is why small-batch baselines lose
        // throughput even at equal bubble ratios).
        let sat = 2.0 * f64::from(self.reference_batch);
        (f64::from(self.batch) + sat) / (f64::from(self.reference_batch) + sat)
    }

    fn in_flight(&self) -> u64 {
        self.injected - self.completed
    }

    fn try_inject(&mut self, now: SimTime) {
        let total = self.config.num_subnets;
        let want = match self.injection {
            Injection::Window(w) => {
                if self.in_flight() >= w {
                    0
                } else {
                    (w - self.in_flight()).min(total - self.injected)
                }
            }
            Injection::Bulk(b) => {
                if self.in_flight() > 0 {
                    0
                } else {
                    b.min(total - self.injected)
                }
            }
        };
        for _ in 0..want {
            let subnet = &self.subnets[self.injected as usize];
            let id = subnet.seq_id();
            let partition = self.partitioner.partition_for(subnet);
            if let Some(checker) = self.checker.as_mut() {
                checker
                    .register(id, partition.layer_owners(subnet))
                    .unwrap_or_else(|v| panic!("{v}"));
            }
            self.table
                .insert(subnet.clone(), partition)
                .unwrap_or_else(|dup| panic!("injection re-used a sequence ID: {dup}"));
            self.queue.push(
                now,
                Ev::FwdArrive {
                    subnet: id,
                    stage: 0,
                    src: SpanId::EXTERNAL,
                },
            );
            self.injected += 1;
        }
    }

    /// Ensures `subnet`'s stage-`k` context is resident; returns the time
    /// compute may start (after synchronous fetches and pending
    /// prefetches) and pins the layers. The second value is the
    /// latest-finishing fetch/prefetch span gating that start, if any —
    /// the `FetchCompletion` causal-edge candidate.
    fn acquire_context(
        &mut self,
        subnet: SubnetId,
        k: u32,
        now: SimTime,
    ) -> (SimTime, Option<(SpanId, SimTime)>) {
        let stage = &mut self.stages[k as usize];
        let Some(cache) = stage.cache.as_mut() else {
            return (now, None);
        };
        let traced = self.tracer.enabled();
        let entry = self.table.get(subnet).expect("subnet in table");
        let profile = self.partitioner.profile();
        let mut ready = now;
        let mut gate: Option<(SpanId, SimTime)> = None;
        let mut missing_bytes = 0u64;
        let evictions_before = cache.stats().evictions;
        for l in slice_layers(entry, k) {
            let bytes = profile.cost(l).param_bytes;
            let hit = cache.access(l, bytes);
            cache.pin(l);
            stage.pinned.push(l);
            if hit {
                let landing = *cache.landing(l);
                if let Some(r) = landing.at {
                    ready = ready.max(r);
                    // A pending prefetch gates the start: candidate edge.
                    if traced && r > now && gate.is_none_or(|(_, t)| r > t) {
                        gate = Some((landing.span, r));
                    }
                }
            } else {
                missing_bytes += bytes;
            }
        }
        // Only a miss evicts, so what the loop evicted made room for the
        // fetch below and is counted on its span. (A miss moves bytes: every
        // profiled layer has parameters.)
        let evicted = cache.stats().evictions - evictions_before;
        if missing_bytes > 0 {
            let wait = RunEvent::FetchWait {
                bytes: missing_bytes,
            };
            self.bus.emit(k, now.as_us(), wait);
            let (_, end) = self.cluster.pcie_mut(GpuId(k)).transfer(now, missing_bytes);
            let fetch_span = if traced {
                self.tracer.emit(
                    SpanDraft::new(k, SpanKind::Fetch, now.as_us(), end.as_us())
                        .subnet(subnet.0)
                        .evicted(evicted),
                )
            } else {
                SpanId::EXTERNAL
            };
            for l in slice_layers(entry, k) {
                let landing = cache.landing(l);
                if landing.at.is_none() {
                    (landing.at, landing.span) = (Some(end), fetch_span);
                }
            }
            ready = ready.max(end);
            if traced && gate.is_none_or(|(_, t)| end > t) {
                gate = Some((fetch_span, end));
            }
        }
        (ready, gate)
    }

    /// Folds stage `k`'s cache-stat growth since the last sync into the
    /// recorder (one emission site covers accesses, prefetches, and
    /// evictions alike). Only [`sample`](Self::sample) reads the recorder
    /// mid-run, and it syncs every stage first.
    fn sync_cache_metrics(&mut self, k: u32) {
        let Some(cache) = self.stages[k as usize].cache.as_ref() else {
            return;
        };
        let cur = cache.stats();
        let prev = self.cache_seen[k as usize];
        self.recorder
            .incr(k, Counter::CacheHit, cur.hits - prev.hits);
        self.recorder
            .incr(k, Counter::CacheMiss, cur.misses - prev.misses);
        self.recorder
            .incr(k, Counter::CacheEviction, cur.evictions - prev.evictions);
        self.recorder
            .incr(k, Counter::CachePrefetch, cur.prefetches - prev.prefetches);
        self.recorder.incr(
            k,
            Counter::CacheBytesFetched,
            cur.bytes_fetched - prev.bytes_fetched,
        );
        self.recorder.incr(
            k,
            Counter::CacheBytesEvicted,
            cur.bytes_evicted - prev.bytes_evicted,
        );
        self.cache_seen[k as usize] = cur;
    }

    fn release_context(&mut self, k: u32) {
        // Only `acquire_context` on a stage with a cache ever pins.
        let stage = &mut self.stages[k as usize];
        if let Some(cache) = stage.cache.as_mut() {
            for l in stage.pinned.drain(..) {
                cache.unpin(l);
            }
        }
    }

    /// Applies predictor fetches: starts asynchronous prefetches over the
    /// stage's PCIe link.
    fn apply_fetches(&mut self, k: u32, now: SimTime, fetches: &[Fetch]) {
        let traced = self.tracer.enabled();
        for fetch in fetches {
            let Some(entry) = self.table.get(fetch.subnet) else {
                continue;
            };
            let stage = &mut self.stages[k as usize];
            let cache = stage.cache.as_mut().expect("predictor implies cache");
            for l in slice_layers(entry, k) {
                let bytes = self.partitioner.profile().cost(l).param_bytes;
                let evictions_before = cache.stats().evictions;
                if cache.prefetch(l, bytes).is_some() {
                    let evicted = cache.stats().evictions - evictions_before;
                    let (_, end) = self.cluster.pcie_mut(GpuId(k)).transfer(now, bytes);
                    let landing = cache.landing(l);
                    landing.at = Some(end);
                    if traced {
                        landing.span = self.tracer.emit(
                            SpanDraft::new(k, SpanKind::Prefetch, now.as_us(), end.as_us())
                                .subnet(fetch.subnet.0)
                                .evicted(evicted),
                        );
                    }
                }
            }
        }
    }

    /// Pending backwards at the last stage: queued forwards that are
    /// causally blocked, with their first blocker, in arrival order.
    fn pending_backwards(&mut self, k: u32) -> Vec<PendingBackward> {
        if !self.use_predictor {
            return Vec::new();
        }
        let queue = &self.stages[k as usize].queues.fwd;
        let mut pending: Vec<(u64, PendingBackward)> = Vec::new();
        for (y, seq, _) in queue.iter() {
            if CspScheduler::admissible(y, &self.finished, &self.table, StageId(k)) {
                continue;
            }
            if let Some(b) = CspScheduler::first_blocker(y, &self.finished, &self.table, StageId(k))
            {
                pending.push((
                    seq,
                    PendingBackward {
                        id: y,
                        precedence: b,
                    },
                ));
            }
        }
        pending.sort_unstable_by_key(|&(seq, _)| seq);
        pending.into_iter().map(|(_, p)| p).collect()
    }

    /// Attributes stage `k`'s idle time since the last attribution: to
    /// `BubbleUs` if nothing was queued over that interval, to `StallUs`
    /// if work was queued but none admissible. Called before every change
    /// to the stage's queues or busy flag (and before every snapshot), so
    /// the state read here is the one that held over the whole interval —
    /// the per-event `O(D)` accounting loop, done lazily per stage.
    fn settle_idle(&mut self, k: u32, now: SimTime) {
        let st = &mut self.stages[k as usize];
        if st.busy {
            return;
        }
        let dt = now.since(st.idle_since).as_us();
        st.idle_since = now;
        if dt > 0 {
            let counter = if st.queues.is_empty() {
                Counter::BubbleUs
            } else {
                Counter::StallUs
            };
            self.recorder.incr(k, counter, dt);
        }
    }

    fn settle_all_idle(&mut self, now: SimTime) {
        for k in 0..self.d {
            self.settle_idle(k, now);
        }
    }

    /// One dispatch attempt at stage `k`: whatever [`StageQueues::pick`]
    /// takes — the queued backward with the lowest ID, else the forward
    /// the discipline admits — or nothing. Run only for stages the current
    /// event woke (see [`Engine::step`]); samples `QueueDepth` once per
    /// attempt.
    fn dispatch(&mut self, k: u32, now: SimTime) {
        if self.stages[k as usize].busy {
            return;
        }
        self.settle_idle(k, now);
        let st = &mut self.stages[k as usize];
        let depth = st.queues.len() as u64;
        self.recorder.sample(k, Sample::QueueDepth, depth);
        let pick = st
            .queues
            .pick(&mut self.scheduler, &self.finished, &self.table, StageId(k));
        match pick {
            Pick::Backward {
                id,
                payload,
                preempted,
            } => {
                if preempted {
                    self.recorder.incr(k, Counter::BackwardPreemption, 1);
                }
                let (pending, arrival) = (payload.pending, payload.arrival);
                self.run_task(id, k, TaskKind::Backward, now, pending, arrival);
            }
            Pick::Forward { id, payload } => {
                self.run_task(id, k, TaskKind::Forward, now, Vec::new(), payload);
            }
            // Candidates queued but none admissible: every one still waits
            // on an unfinished earlier sharer (a CSP stall).
            Pick::Idle { blocked } if blocked > 0 => {
                let stall = RunEvent::CspStall { queued: blocked };
                self.bus.emit(k, now.as_us(), stall);
            }
            Pick::Idle { .. } => {}
        }
    }

    fn run_task(
        &mut self,
        subnet: SubnetId,
        k: u32,
        kind: TaskKind,
        now: SimTime,
        pending: Vec<PendingBackward>,
        arrival: Arrival,
    ) {
        // Debug-mode CSP assertion: the admission the scheduler just made
        // must be one the sequential exploration order allows.
        if kind == TaskKind::Forward {
            if let Some(checker) = self.checker.as_mut() {
                checker
                    .on_admit_forward(subnet, k)
                    .unwrap_or_else(|v| panic!("{v}"));
            }
            let admission = RunEvent::Admission { subnet: subnet.0 };
            self.bus.emit(k, now.as_us(), admission);
        }
        // Predictor hooks (Algorithm 1 lines 6 and 21).
        if self.use_predictor {
            let stage = &mut self.stages[k as usize];
            let fetches = match kind {
                TaskKind::Backward => stage.predictor.before_backward(
                    &mut self.scheduler,
                    stage.queues.fwd.ids(),
                    &self.finished,
                    &self.table,
                    StageId(k),
                    subnet,
                    &pending,
                ),
                TaskKind::Forward => stage.predictor.before_forward(
                    &mut self.scheduler,
                    stage.queues.fwd.ids(),
                    &self.finished,
                    &self.table,
                    StageId(k),
                    subnet,
                ),
            };
            self.apply_fetches(k, now, &fetches);

            // Pipeline-status passing (§3.3): neighbouring stages can see
            // this dispatch coming and prefetch the same subnet's context
            // a full task ahead — a backward will reach stage k-1 next, a
            // forward will reach stage k+1 next.
            match kind {
                TaskKind::Backward if k > 0 => {
                    let fetch = [Fetch {
                        subnet,
                        kind: TaskKind::Backward,
                    }];
                    self.apply_fetches(k - 1, now, &fetch);
                }
                TaskKind::Forward if k + 1 < self.d => {
                    let fetch = [Fetch {
                        subnet,
                        kind: TaskKind::Forward,
                    }];
                    self.apply_fetches(k + 1, now, &fetch);
                }
                _ => {}
            }
        }

        let (ready, fetch_gate) = self.acquire_context(subnet, k, now);

        // Bind the causal edge: of everything this task waited on — the
        // arrival that queued it, the last CSP shared-layer writer that
        // released its admission, the fetch that made its context
        // resident — the *latest-finishing* one is the cause; earlier
        // candidates were already satisfied by then. Resource ordering
        // (the stage finishing its previous task) is derived by the
        // analyzer, not recorded.
        let cause = self.tracer.enabled().then(|| {
            let mut cause = (arrival.edge, arrival.at);
            if kind == TaskKind::Forward && self.use_csp {
                if let Some(w) = self.last_writer(subnet, k) {
                    if w.at > cause.1 {
                        cause = (
                            CausalEdge {
                                src: w.span,
                                kind: CauseKind::CspWriterCompletion { writer: w.subnet },
                            },
                            w.at,
                        );
                    }
                }
            }
            if let Some((src, t)) = fetch_gate {
                if t > cause.1 {
                    cause = (
                        CausalEdge {
                            src,
                            kind: CauseKind::FetchCompletion,
                        },
                        t,
                    );
                }
            }
            cause.0
        });

        let entry = self.table.get(subnet).expect("subnet in table");
        let blocks = entry.partition.stage_range(StageId(k));
        let duration = self.price(entry, k, kind);
        // The backward wave approaches stage k-1 next: start its
        // recomputation now so the write lands as early as possible.
        if kind == TaskKind::Backward && self.recompute_ahead() && k > 0 {
            self.reserve_recompute(subnet, k - 1, now);
        }
        let (start, end) = self
            .cluster
            .gpu_mut(GpuId(k))
            .compute_mut()
            .reserve_span(ready, duration);
        let (latency, count) = match kind {
            TaskKind::Forward => (Sample::ForwardLatencyUs, Counter::ForwardTask),
            TaskKind::Backward => (Sample::BackwardLatencyUs, Counter::BackwardTask),
        };
        self.recorder.sample(k, latency, end.since(start).as_us());
        self.recorder.incr(k, count, 1);
        let span = if let Some(edge) = cause {
            let span_kind = match kind {
                TaskKind::Forward => SpanKind::Forward,
                TaskKind::Backward => SpanKind::Backward,
            };
            self.tracer.emit(
                SpanDraft::new(k, span_kind, start.as_us(), end.as_us())
                    .subnet(subnet.0)
                    .caused_by(edge.src, edge.kind),
            )
        } else {
            SpanId::EXTERNAL
        };
        self.stages[k as usize].busy = true;
        // Each stage reserves its compute in dispatch order, so a record
        // starts no earlier than its stage's previous one and is placed
        // by a short walk from the back (`PipelineOutcome::tasks` order).
        let record = TaskRecord {
            start,
            end,
            kind,
            subnet,
            stage: StageId(k),
            blocks,
        };
        let later = self.records.iter().rev();
        let at = self.records.len() - later.take_while(|r| r.key() > record.key()).count();
        self.records.insert(at, record);
        self.queue.push(
            end,
            Ev::TaskDone {
                subnet,
                stage: k,
                kind,
                span,
            },
        );
    }

    /// The CSP writer-completion candidate for `subnet`'s forward
    /// admission at stage `k`: the latest backward completion there by an
    /// earlier subnet sharing a layer of the slice. Then drops every
    /// candidate that can never again be the cause of an admission.
    fn last_writer(&mut self, subnet: SubnetId, k: u32) -> Option<WriterDone> {
        let entry = self.table.get(subnet).expect("subnet in table");
        let range = entry.partition.stage_range(StageId(k));
        let stage = &mut self.stages[k as usize];
        let writer = stage
            .bwd_done
            .iter()
            .filter(|w| w.subnet < subnet.0)
            .filter(|w| {
                entry
                    .subnet
                    .conflicts_within(range.clone(), &self.subnets[w.subnet as usize])
            })
            .max_by_key(|w| (w.at, w.subnet))
            .copied();
        // A candidate wins only by completing *after* the admitted
        // forward arrived. Every forward still queued here arrived at or
        // after `horizon` and every future one arrives later still, so a
        // completion at or before it has lost for good.
        match stage.queues.fwd.iter().map(|(_, _, a)| a.at).min() {
            Some(horizon) => stage.bwd_done.retain(|w| w.at > horizon),
            None => stage.bwd_done.clear(),
        }
        writer
    }

    fn boundary_bytes(&self) -> u64 {
        memory::boundary_bytes_per_sample(self.space.domain()) * u64::from(self.batch)
    }

    /// The simulated duration of `entry`'s `kind` work at stage `k`: the
    /// catalog price (`stage_times` × `batch_scale`) through the cost
    /// hook. CSP hoists activation recomputation ahead of the gradient's
    /// arrival (`reserve_recompute`); the BSP baselines rematerialise
    /// inside the backward, so their backward pays the forward again.
    fn price(&self, entry: &SubnetEntry, k: u32, kind: TaskKind) -> SimDuration {
        let (fwd_ms, bwd_ms) =
            self.partitioner
                .stage_times(&entry.subnet, &entry.partition, StageId(k));
        let scale = self.batch_scale();
        let catalog_ms = match kind {
            TaskKind::Forward => fwd_ms * scale,
            TaskKind::Backward => {
                let recompute =
                    if self.config.policy.recomputes_activations() && !self.recompute_ahead() {
                        fwd_ms
                    } else {
                        0.0
                    };
                (bwd_ms + recompute) * scale
            }
        };
        SimDuration::from_ms((self.cost)(TaskCost {
            subnet: entry.subnet.seq_id(),
            stage: StageId(k),
            kind,
            catalog_ms,
        }))
    }

    /// Whether activation recomputation is hoisted ahead of the gradient's
    /// arrival (a CSP context-preparation optimisation; the BSP/ASP
    /// baselines keep standard in-backward rematerialisation).
    fn recompute_ahead(&self) -> bool {
        self.config.recompute_ahead
            && matches!(self.config.policy, SyncPolicy::Csp { .. })
            && self.config.policy.recomputes_activations()
    }

    /// Reserves stage `k`'s compute for recomputing `subnet`'s forward
    /// slice, to overlap with the backward wave still one stage away.
    fn reserve_recompute(&mut self, subnet: SubnetId, k: u32, now: SimTime) {
        let Some(entry) = self.table.get(subnet) else {
            return;
        };
        let duration = self.price(entry, k, TaskKind::Forward);
        let (start, end) = self
            .cluster
            .gpu_mut(GpuId(k))
            .compute_mut()
            .reserve_span(now, duration);
        if self.tracer.enabled() {
            self.tracer.emit(
                SpanDraft::new(k, SpanKind::Recompute, start.as_us(), end.as_us()).subnet(subnet.0),
            );
        }
    }

    fn on_task_done(
        &mut self,
        subnet: SubnetId,
        k: u32,
        kind: TaskKind,
        now: SimTime,
        span: SpanId,
    ) {
        let stage = &mut self.stages[k as usize];
        stage.busy = false;
        stage.idle_since = now;
        self.release_context(k);
        self.makespan = self.makespan.max(now);
        match kind {
            TaskKind::Forward => {
                if k + 1 < self.d {
                    let dt = self
                        .cluster
                        .stage_transfer_time(GpuId(k), self.boundary_bytes());
                    self.queue.push(
                        now + dt,
                        Ev::FwdArrive {
                            subnet,
                            stage: k + 1,
                            src: span,
                        },
                    );
                } else {
                    // Last stage: backward becomes ready immediately,
                    // carrying the pending-backward list (Algorithm 3).
                    if self.recompute_ahead() {
                        self.reserve_recompute(subnet, k, now);
                    }
                    let pending = self.pending_backwards(k);
                    self.queue.push(
                        now,
                        Ev::BwdArrive {
                            subnet,
                            stage: k,
                            pending,
                            src: span,
                        },
                    );
                }
            }
            TaskKind::Backward => {
                // With nothing queued the completion could only matter to
                // forwards that arrive after it — which it cannot cause.
                let stage = &mut self.stages[k as usize];
                if self.tracer.enabled() && self.use_csp && !stage.queues.fwd.is_empty() {
                    stage.bwd_done.push(WriterDone {
                        subnet: subnet.0,
                        span,
                        at: now,
                    });
                }
                if let Some(checker) = self.checker.as_mut() {
                    checker
                        .on_backward_done(subnet, k)
                        .unwrap_or_else(|v| panic!("{v}"));
                }
                self.finished[k as usize].insert(subnet);
                if k > 0 {
                    let dt = self
                        .cluster
                        .stage_transfer_time(GpuId(k - 1), self.boundary_bytes());
                    let pending = if k == self.d - 1 {
                        self.pending_backwards(k)
                    } else {
                        Vec::new()
                    };
                    self.queue.push(
                        now + dt,
                        Ev::BwdArrive {
                            subnet,
                            stage: k - 1,
                            pending,
                            src: span,
                        },
                    );
                } else {
                    self.completed += 1;
                    let min_unfinished = self
                        .finished
                        .iter()
                        .map(|f| f.first_unfinished())
                        .min()
                        .expect("at least one stage");
                    self.table.retire_below(min_unfinished);
                    if let Some(checker) = self.checker.as_mut() {
                        checker.retire_below(min_unfinished);
                    }
                    self.try_inject(now);
                }
            }
        }
    }

    /// Takes the sample due at `now`, if any: the hub and the watchdog
    /// twin each have their own simulated-time cadence.
    fn sample_due(&mut self, now: SimTime) {
        let now_us = now.as_us();
        let publish = self.telemetry.as_mut().is_some_and(|c| c.due(now_us));
        let observe = self.watchdog.as_mut().is_some_and(|c| c.due(now_us));
        if publish || observe {
            // Snapshots read the idle counters: bring them up to `now`.
            self.settle_all_idle(now);
            self.sample(now, publish, observe);
        }
    }

    /// Hands the bus the recorder as of `at`, with every stage's finished
    /// prefix as its `/status` watermark: a [`MetricsSnapshot`] copy for
    /// the hub when it is due one (`publish`, only with a hub attached),
    /// and the recorder's stages in place for the watchdog when it is
    /// (`observe`). The cache counters are brought up to date here, not
    /// after every task: no cache stat moves between events.
    fn sample(&mut self, at: SimTime, publish: bool, observe: bool) {
        for k in 0..self.d {
            self.sync_cache_metrics(k);
        }
        let at_us = at.as_us();
        for (k, done) in self.finished.iter().enumerate() {
            let watermark = done.first_unfinished().0;
            self.bus
                .emit(k as u32, at_us, RunEvent::Watermark { watermark });
        }
        if publish {
            let snap = MetricsSnapshot::from_recorder(&self.recorder, at_us, 0);
            self.bus.sample(&snap, observe);
        } else if observe {
            self.bus.observe(at_us, self.recorder.stages());
        }
    }

    /// Debug-build missed-wake-up detector: after an event's dispatch
    /// pass, no idle stage — woken or skipped as clean — may hold a task
    /// the all-stages dispatch loop would have started.
    fn assert_nothing_dispatchable(&self) {
        for (k, st) in self.stages.iter().enumerate() {
            if st.busy {
                continue;
            }
            assert!(
                st.queues.bwd.is_empty(),
                "missed wake-up: idle stage {k} holds a queued backward"
            );
            if self.use_csp {
                for &y in st.queues.fwd.ids() {
                    assert!(
                        !CspScheduler::admissible(
                            y,
                            &self.finished,
                            &self.table,
                            StageId(k as u32)
                        ),
                        "missed wake-up: idle stage {k} holds admissible forward {y}"
                    );
                }
            } else {
                assert!(
                    st.queues.fwd.is_empty(),
                    "missed wake-up: idle FIFO stage {k} holds a queued forward"
                );
            }
        }
    }

    fn run(mut self) -> Result<PipelineOutcome, PipelineError> {
        self.start();
        while let Some((now, ev)) = self.queue.pop() {
            self.step(now, ev);
        }
        assert_eq!(
            self.completed, self.config.num_subnets,
            "pipeline deadlocked: {}/{} subnets completed",
            self.completed, self.config.num_subnets
        );
        Ok(self.finish())
    }

    /// Everything before the first event: the first window injected.
    fn start(&mut self) {
        // Observation only: publish the run shape and flip `/readyz` to
        // admitting-work before the first injection.
        self.bus.start(self.config.num_subnets);
        // Every stage reports from t = 0, whenever it first does anything.
        for k in 0..self.d {
            self.recorder.incr(k, Counter::BubbleUs, 0);
        }
        self.try_inject(SimTime::ZERO);
    }

    /// Applies one event, then dispatches, ascending, the stages whose
    /// admission decision it can have changed. A stage's decision reads
    /// its own queues and busy flag, the table, and — through the
    /// `min(K, s_w)` owner-stage rule — `finished[j]` for `j <= k`, and
    /// there only for layers written at `j`. So: an arrival wakes its
    /// stage; a completion wakes its stage (now idle) and, if it was `w`'s
    /// backward at `j`, every idle stage `k > j` with forwards queued at
    /// which a later in-flight sharer of a layer in `w`'s stage-`j` slice
    /// reads that layer ([`SubnetTable::readers_above`]). Injection and
    /// retirement change the table only for IDs no queued forward waits
    /// on, and wake nobody.
    fn step(&mut self, now: SimTime, ev: Ev) {
        self.sample_due(now);
        let mut wake = std::mem::take(&mut self.wake);
        match ev {
            Ev::FwdArrive { subnet, stage, src } => {
                self.settle_idle(stage, now);
                let kind = if src.is_external() {
                    CauseKind::Injection
                } else {
                    CauseKind::ActivationArrival
                };
                let arrival = Arrival {
                    edge: CausalEdge { src, kind },
                    at: now,
                };
                self.stages[stage as usize]
                    .queues
                    .push_forward(subnet, arrival);
                wake.push(stage);
            }
            Ev::BwdArrive {
                subnet,
                stage,
                pending,
                src,
            } => {
                self.settle_idle(stage, now);
                let queues = &mut self.stages[stage as usize].queues;
                let edge = CausalEdge {
                    src,
                    kind: CauseKind::GradientArrival,
                };
                let arrival = Arrival { edge, at: now };
                queues.push_backward(subnet, QueuedBackward { pending, arrival });
                wake.push(stage);
            }
            Ev::TaskDone {
                subnet,
                stage,
                kind,
                span,
            } => {
                wake.push(stage);
                // Asked before `on_task_done` can retire `subnet`. A FIFO
                // stage never idles with a forward queued: nothing to ask.
                if kind == TaskKind::Backward && self.use_csp {
                    self.table.readers_above(subnet, StageId(stage), &mut wake);
                }
                self.on_task_done(subnet, stage, kind, now, span);
                wake.sort_unstable();
                wake.dedup();
                wake.retain(|&k| {
                    let st = &self.stages[k as usize];
                    k == stage || (!st.busy && !st.queues.fwd.is_empty())
                });
            }
        }
        for &k in &wake {
            self.dispatch(k, now);
        }
        wake.clear();
        self.wake = wake;
        if cfg!(debug_assertions) {
            self.assert_nothing_dispatchable();
        }
    }

    fn finish(mut self) -> PipelineOutcome {
        // Idle time runs to the last event, as the per-event loop had it.
        let last_event = self.queue.now();
        self.settle_all_idle(last_event);
        let makespan = self.makespan.max(SimTime::from_us(1));
        // One last sample at the makespan boundary, which syncs the cache
        // counters: the hub's last published state equals the report
        // totals, and a straggler that only becomes visible in the
        // closing window is still caught deterministically.
        self.sample(makespan, self.telemetry.is_some(), true);
        let obs = self
            .recorder
            .report(makespan.as_us())
            .with_meta(RunMeta::new("des", self.d).seed(self.config.seed));
        let obs = self.bus.finish(obs, self.completed, None);
        let eff = alu_efficiency(self.batch, self.reference_batch);
        let busy: Vec<f64> = self
            .cluster
            .gpus()
            .iter()
            .map(|g| g.compute().utilization(makespan))
            .collect();
        let bubble = 1.0 - busy.iter().sum::<f64>() / busy.len() as f64;
        let total_alu: f64 = busy.iter().map(|b| b * eff).sum();

        let cache_stats = self
            .stages
            .iter()
            .map(|s| s.cache.as_ref().map(|c| c.stats()).unwrap_or_default())
            .fold(CacheStats::default(), |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.bytes_fetched += s.bytes_fetched;
                acc.bytes_evicted += s.bytes_evicted;
                acc.evictions += s.evictions;
                acc.prefetches += s.prefetches;
                acc
            });
        let swap = self.config.policy.swaps_parameters();

        // Per-GPU memory: resident parameters (cache high-water for
        // swapping systems, the full stage slice otherwise) plus the
        // activation working set at the supported batch.
        let act = self.plan.act_bytes_per_sample * u64::from(self.batch);
        let mem_factor: f64 = (0..self.d as usize)
            .map(|k| {
                let params = match &self.stages[k].cache {
                    Some(c) => c.high_water(),
                    None => self.plan.param_bytes_per_gpu,
                };
                let used = params + act + memory::WORKSPACE_BYTES;
                used.min(naspipe_sim::cluster::GPU_MEMORY_BYTES) as f64
                    / naspipe_sim::cluster::GPU_MEMORY_BYTES as f64
            })
            .sum();

        let busy_total_secs: f64 = busy.iter().map(|b| b * makespan.as_secs()).sum();
        let avg_exec = if self.completed == 0 {
            0.0
        } else {
            busy_total_secs / self.completed as f64
        };

        let report = PipelineReport {
            space: self.space.id(),
            policy: self.config.policy,
            num_gpus: self.d,
            batch: self.batch,
            makespan_secs: makespan.as_secs(),
            subnets_completed: self.completed,
            samples_processed: self.completed * u64::from(self.batch),
            bubble_ratio: bubble,
            total_alu,
            gpu_mem_factor: mem_factor,
            cpu_mem_gib: self.plan.cpu_bytes as f64 / 1_073_741_824.0,
            avg_subnet_exec_secs: avg_exec,
            cache_hit_rate: if swap {
                Some(cache_stats.hit_rate())
            } else {
                None
            },
            reported_param_bytes: self.plan.reported_param_bytes,
            cache_stats,
            scheduler_stats: self.scheduler.stats(),
            // The recorder's idle counters are the one ledger.
            stage_idle_blocked_secs: obs.stages.iter().map(|s| s.stall_us as f64 / 1e6).collect(),
            stage_idle_empty_secs: obs
                .stages
                .iter()
                .map(|s| s.bubble_us as f64 / 1e6)
                .collect(),
        };
        debug_assert!(
            self.records.windows(2).all(|w| w[0].key() <= w[1].key()),
            "task records left (start, subnet, stage) order"
        );
        PipelineOutcome {
            report,
            tasks: self.records,
            subnets: self.subnets,
            obs,
            spans: self.tracer.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::NullTracer;
    use naspipe_supernet::layer::Domain;
    use std::collections::{BTreeMap, HashMap};

    fn small_space() -> SearchSpace {
        SearchSpace::uniform(Domain::Nlp, 8, 6)
    }

    fn run(policy: SyncPolicy, gpus: u32, n: u64) -> PipelineOutcome {
        let cfg = PipelineConfig::naspipe(gpus, n)
            .with_batch(32)
            .with_policy(policy)
            .with_seed(42);
        SimSpec::new(&small_space(), &cfg)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn naspipe_completes_all_subnets() {
        let out = run(SyncPolicy::naspipe(), 4, 25);
        assert_eq!(out.report.subnets_completed, 25);
        assert_eq!(out.tasks.len(), 25 * 4 * 2);
        assert!(out.report.makespan_secs > 0.0);
        assert!(out.report.bubble_ratio >= 0.0 && out.report.bubble_ratio < 1.0);
    }

    #[test]
    fn all_policies_complete() {
        for policy in [
            SyncPolicy::naspipe(),
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
            SyncPolicy::Asp,
        ] {
            let out = run(policy, 4, 12);
            assert_eq!(out.report.subnets_completed, 12, "{policy:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(SyncPolicy::naspipe(), 4, 20);
        let b = run(SyncPolicy::naspipe(), 4, 20);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.report, b.report);
        assert_eq!(a.obs, b.obs, "observability metrics must be deterministic");
        assert_eq!(a.spans, b.spans, "span traces must be deterministic");
    }

    #[test]
    fn null_tracer_run_is_identical_except_spans() {
        // Tracing must stay off the hot path: a NullTracer run matches a
        // traced run in every observable output, only `spans` differs.
        let space = small_space();
        let subnets = UniformSampler::new(&space, 42).take_subnets(20);
        let cfg = PipelineConfig::naspipe(4, 20).with_batch(32).with_seed(42);
        let traced = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        let untraced = SimSpec {
            subnets: Some(subnets),
            tracer: Box::new(NullTracer),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        assert_eq!(traced.tasks, untraced.tasks);
        assert_eq!(traced.report, untraced.report);
        assert_eq!(traced.obs, untraced.obs);
        assert!(
            untraced.spans.spans().is_empty(),
            "NullTracer emits nothing"
        );
        assert!(!traced.spans.spans().is_empty(), "default run is traced");
    }

    #[test]
    fn telemetry_run_is_identical_and_final_snapshot_matches_report() {
        use naspipe_obs::telemetry::diff_against_report;
        use naspipe_obs::TelemetryHub;
        use std::sync::Arc;

        let space = small_space();
        let subnets = UniformSampler::new(&space, 42).take_subnets(20);
        let cfg = PipelineConfig::naspipe(4, 20).with_batch(32).with_seed(42);
        let plain = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();

        let hub = Arc::new(TelemetryHub::new(4, 0));
        let opts = TelemetryOptions::new(Arc::clone(&hub));
        let live = SimSpec {
            subnets: Some(subnets),
            telemetry: Some(&opts),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();

        // Telemetry must be off the schedule path entirely.
        assert_eq!(plain.tasks, live.tasks);
        assert_eq!(plain.report, live.report);
        assert_eq!(plain.obs.stages, live.obs.stages);

        // Snapshots were published in simulated time, the final one at
        // the makespan agreeing exactly with the report totals.
        assert!(hub.published() >= 2, "expected interval + final snapshots");
        let last = hub.latest().expect("final snapshot");
        let diffs = diff_against_report(&last, &live.obs);
        assert!(diffs.is_empty(), "snapshot != report: {diffs:?}");

        // The report embeds the published series; the plain run has none.
        assert_eq!(live.obs.series.len(), hub.published() as usize);
        assert!(plain.obs.series.is_empty());
        let times: Vec<u64> = live.obs.series.iter().map(|p| p.at_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "series unsorted");
    }

    #[test]
    fn span_trace_covers_every_task_with_causes() {
        let out = run(SyncPolicy::naspipe(), 4, 20);
        let compute: Vec<_> = out
            .spans
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Forward | SpanKind::Backward))
            .collect();
        assert_eq!(
            compute.len(),
            out.tasks.len(),
            "one forward/backward span per task record"
        );
        // Every span's (stage, subnet, kind, start, end) matches a task.
        for s in &compute {
            let kind = if s.kind == SpanKind::Forward {
                TaskKind::Forward
            } else {
                TaskKind::Backward
            };
            assert!(
                out.tasks.iter().any(|t| t.stage.0 == s.stage
                    && Some(t.subnet.0) == s.subnet
                    && t.kind == kind
                    && t.start.as_us() == s.start_us
                    && t.end.as_us() == s.end_us),
                "span {s:?} has no matching task record"
            );
        }
        // Causal edges: every compute span except stage-0 injections has a
        // recorded cause, and every referenced span id exists.
        for s in &compute {
            if s.stage > 0 || s.kind == SpanKind::Backward {
                assert!(s.cause.is_some(), "span {s:?} should have a cause");
            }
            if let Some(edge) = &s.cause {
                if !edge.src.is_external() {
                    assert!(
                        out.spans.get(edge.src).is_some(),
                        "cause of {s:?} points at an unknown span"
                    );
                }
            }
        }
        // CSP admission gates show up as writer-completion edges somewhere
        // in a contended 20-subnet stream.
        assert!(
            out.spans.spans().iter().any(|s| matches!(
                s.cause,
                Some(CausalEdge {
                    kind: CauseKind::CspWriterCompletion { .. },
                    ..
                })
            )),
            "expected at least one CSP writer-completion edge"
        );
    }

    #[test]
    fn critical_path_matches_makespan_and_counters() {
        for (gpus, n) in [(2, 8), (4, 20), (8, 30)] {
            let out = run(SyncPolicy::naspipe(), gpus, n);
            let cp = naspipe_obs::critical_path(&out.spans);
            let makespan = out.spans.makespan_us();
            assert_eq!(
                cp.total_us, makespan,
                "critical path must span the whole run ({gpus} gpus)"
            );
            assert_eq!(cp.attributed_us(), cp.total_us, "every µs attributed");
            let report_us = (out.report.makespan_secs * 1e6).round() as u64;
            assert!(
                makespan.abs_diff(report_us) <= 1,
                "span makespan {makespan} vs report {report_us}"
            );
            // Path idle per stage can never exceed what the recorder saw
            // as that stage's total idle (stall + bubble).
            for (k, &idle) in cp.stage_idle_us.iter().enumerate() {
                let recorded = out.obs.stages[k].stall_us + out.obs.stages[k].bubble_us;
                assert!(
                    idle <= recorded + 1,
                    "stage {k}: path idle {idle} > recorded idle {recorded}"
                );
            }
        }
    }

    #[test]
    fn obs_report_counts_tasks_and_covers_every_stage() {
        let out = run(SyncPolicy::naspipe(), 4, 25);
        assert_eq!(out.obs.stages.len(), 4);
        let fwd: u64 = out.obs.stages.iter().map(|s| s.forward_tasks).sum();
        let bwd: u64 = out.obs.stages.iter().map(|s| s.backward_tasks).sum();
        assert_eq!(fwd, 25 * 4);
        assert_eq!(bwd, 25 * 4);
        let makespan_us = (out.report.makespan_secs * 1e6).round() as u64;
        assert!(out.obs.wall_us.abs_diff(makespan_us) <= 1);
        // The recorder's idle attribution mirrors the report's.
        for (k, s) in out.obs.stages.iter().enumerate() {
            let blocked = (out.report.stage_idle_blocked_secs[k] * 1e6).round() as u64;
            let empty = (out.report.stage_idle_empty_secs[k] * 1e6).round() as u64;
            assert_eq!(s.stall_us, blocked, "stage {k} stall");
            assert_eq!(s.bubble_us, empty, "stage {k} bubble");
        }
        // CSP at this scale swaps contexts: cache activity must show up.
        let lookups: u64 = out
            .obs
            .stages
            .iter()
            .map(|s| s.cache_hits + s.cache_misses)
            .sum();
        assert!(lookups > 0, "cache metrics were never synced");
    }

    #[test]
    fn invariant_checker_catches_a_corrupted_schedule() {
        // Rebuild a checker from a real CSP run's layer placement, then
        // corrupt the schedule: admit a conflicting later subnet's
        // forward before the earlier subnet wrote the shared layer.
        let out = run(SyncPolicy::naspipe(), 4, 15);
        // Per-subnet layer -> owner stage, from the forward records.
        let mut owners: BTreeMap<u64, Vec<(LayerRef, u32)>> = BTreeMap::new();
        for t in out.tasks.iter().filter(|t| t.kind == TaskKind::Forward) {
            let subnet = &out.subnets[t.subnet.0 as usize];
            let entry = owners.entry(t.subnet.0).or_default();
            for b in t.blocks.clone() {
                if !subnet.skips(b) {
                    entry.push((subnet.layer(b), t.stage.0));
                }
            }
        }
        let mut checker = CspChecker::new();
        for (id, layers) in &owners {
            checker
                .register(SubnetId(*id), layers.iter().copied())
                .unwrap();
        }
        // Find a conflicting pair (the sampled stream is dense enough to
        // guarantee one) and the stage at which the later subnet reads
        // the shared layer.
        let (w, y, layer) = out
            .subnets
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                out.subnets[i + 1..].iter().find_map(|b| {
                    a.layers()
                        .find(|l| b.layers().any(|m| m == *l))
                        .map(|l| (a.seq_id(), b.seq_id(), l))
                })
            })
            .expect("stream contains a causal conflict");
        let stage = owners[&y.0]
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|&(_, s)| s)
            .expect("y activates the shared layer");
        let err = checker.on_admit_forward(y, stage).unwrap_err();
        match &err {
            naspipe_obs::Violation::PrematureForward {
                later,
                earlier,
                layer: shared,
                ..
            } => {
                assert_eq!(*later, y);
                assert!(*earlier < y, "blames an earlier subnet");
                // The blamed earlier subnet really shares the layer.
                let e = &out.subnets[earlier.0 as usize];
                assert!(e.layers().any(|l| l == *shared));
                let _ = w; // any earlier sharer is a valid blame target
            }
            other => panic!("expected a premature-forward violation, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{y}")) && msg.contains("shared layer"),
            "violation names the pair and the layer: {msg}"
        );
    }

    #[test]
    fn csp_preserves_per_layer_access_order() {
        let out = run(SyncPolicy::naspipe(), 4, 30);
        assert_csp_order(&out);
    }

    #[test]
    fn csp_order_holds_on_eight_gpus() {
        let out = run(SyncPolicy::naspipe(), 8, 30);
        assert_csp_order(&out);
    }

    /// For every layer, accesses ordered by task start time must be
    /// `fwd(x), bwd(x), fwd(y), bwd(y), ...` with x < y — sequential
    /// equivalence.
    fn assert_csp_order(out: &PipelineOutcome) {
        let arch: HashMap<u64, &Subnet> = out.subnets.iter().map(|s| (s.seq_id().0, s)).collect();
        let mut per_layer: HashMap<LayerRef, Vec<(SimTime, TaskKind, u64)>> = HashMap::new();
        for t in &out.tasks {
            let subnet = arch[&t.subnet.0];
            for b in t.blocks.clone() {
                per_layer
                    .entry(subnet.layer(b))
                    .or_default()
                    .push((t.start, t.kind, t.subnet.0));
            }
        }
        for (layer, mut accesses) in per_layer {
            accesses.sort_by_key(|&(t, kind, id)| (t, id, kind));
            let mut expect: Vec<(TaskKind, u64)> =
                accesses.iter().map(|&(_, kind, id)| (kind, id)).collect();
            // Sequential order: by subnet id, forward before backward.
            expect.sort_by_key(|&(kind, id)| (id, kind != TaskKind::Forward));
            // Wait: TaskKind::Forward < Backward in enum order already.
            let got: Vec<(TaskKind, u64)> =
                accesses.iter().map(|&(_, kind, id)| (kind, id)).collect();
            assert_eq!(got, expect, "layer {layer} access order violates CSP");
        }
    }

    #[test]
    fn bsp_bulk_groups_forwards() {
        // Under BSP the forwards of a bulk all read the pre-bulk weights:
        // at stage 0 the forwards of the bulk run before any backward.
        let out = run(
            SyncPolicy::Bsp {
                bulk: 3,
                swap: false,
            },
            4,
            6,
        );
        let stage0: Vec<&TaskRecord> = out.tasks.iter().filter(|t| t.stage == StageId(0)).collect();
        let kinds: Vec<TaskKind> = stage0.iter().map(|t| t.kind).collect();
        assert_eq!(
            &kinds[..3],
            &[TaskKind::Forward; 3],
            "first bulk's forwards should precede its backwards at stage 0"
        );
    }

    #[test]
    fn asp_keeps_pipeline_fuller_than_bsp() {
        let asp = run(SyncPolicy::Asp, 4, 40);
        let bsp = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            4,
            40,
        );
        assert!(
            asp.report.bubble_ratio < bsp.report.bubble_ratio,
            "ASP {} !< BSP {}",
            asp.report.bubble_ratio,
            bsp.report.bubble_ratio
        );
    }

    #[test]
    fn without_scheduler_bubble_grows() {
        let with = run(SyncPolicy::naspipe(), 4, 30);
        let without = run(
            SyncPolicy::Csp {
                scheduler: false,
                predictor: true,
                mirroring: true,
            },
            4,
            30,
        );
        assert!(
            without.report.bubble_ratio > with.report.bubble_ratio,
            "w/o scheduler {} !> with {}",
            without.report.bubble_ratio,
            with.report.bubble_ratio
        );
    }

    #[test]
    fn cache_hit_rate_present_only_when_swapping() {
        let nas = run(SyncPolicy::naspipe(), 4, 20);
        assert!(nas.report.cache_hit_rate.is_some());
        let gpipe = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            4,
            20,
        );
        assert!(gpipe.report.cache_hit_rate.is_none());
    }

    #[test]
    fn predictor_raises_hit_rate_over_vpipe() {
        let nas = run(SyncPolicy::naspipe(), 4, 40);
        let vpipe = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
            4,
            40,
        );
        let nas_hit = nas.report.cache_hit_rate.unwrap();
        let vpipe_hit = vpipe.report.cache_hit_rate.unwrap();
        assert!(
            nas_hit > vpipe_hit,
            "NASPipe hit {nas_hit} !> VPipe hit {vpipe_hit}"
        );
    }

    #[test]
    fn oom_for_policies_that_cannot_swap() {
        // NLP.c0's supernet does not fit in GPU memory without swapping.
        let space = SearchSpace::nlp_c0();
        let cfg = PipelineConfig::naspipe(8, 4).with_policy(SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        });
        match SimSpec::new(&space, &cfg).run() {
            Err(PipelineError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn explicit_subnets_must_match_count() {
        let space = small_space();
        let cfg = PipelineConfig::naspipe(2, 3).with_batch(8);
        let err = SimSpec {
            subnets: Some(vec![]),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn single_gpu_pipeline_works() {
        let out = run(SyncPolicy::naspipe(), 1, 10);
        assert_eq!(out.report.subnets_completed, 10);
        // On one GPU there is no pipeline overlap: tasks are serial.
        for w in out.tasks.windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn more_stages_than_blocks_yields_empty_stage_tasks() {
        // D = 8 over 4 blocks: some stages own no blocks; their tasks are
        // zero-cost pass-throughs but must still flow for the pipeline to
        // make progress.
        let space = SearchSpace::uniform(Domain::Nlp, 4, 4);
        let cfg = PipelineConfig::naspipe(8, 10).with_batch(8);
        let out = SimSpec::new(&space, &cfg).run().unwrap();
        assert_eq!(out.report.subnets_completed, 10);
        assert_eq!(out.tasks.len(), 10 * 8 * 2);
        assert!(out.tasks.iter().any(|t| t.blocks.is_empty()));
    }

    #[test]
    fn single_subnet_fill_drain() {
        let out = run(SyncPolicy::naspipe(), 4, 1);
        assert_eq!(out.report.subnets_completed, 1);
        // One subnet cannot overlap with anything: high bubble.
        assert!(out.report.bubble_ratio > 0.5);
    }

    #[test]
    fn queue_cap_one_is_strictly_sequential() {
        let space = small_space();
        let subnets = UniformSampler::new(&space, 2).take_subnets(8);
        let mut cfg = PipelineConfig::naspipe(4, 8).with_batch(8).with_seed(2);
        cfg.max_queue = 1;
        let out = SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        // With one subnet in flight at a time, completions are in order
        // and never overlap.
        let mut completions: Vec<(u64, SimTime, SimTime)> = out
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Backward && t.stage == StageId(0))
            .map(|t| (t.subnet.0, t.start, t.end))
            .collect();
        completions.sort_by_key(|&(_, s, _)| s);
        let ids: Vec<u64> = completions.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn replaying_recorded_costs_reproduces_the_run() {
        // Run B prices every reservation at what run A took for it: a
        // task at its recorded length, a hoisted recompute at its
        // subnet's recorded forward there. CSP hoists its recompute;
        // GPipe redoes the forward inside the backward.
        let space = small_space();
        let gpipe = SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        };
        for policy in [SyncPolicy::naspipe(), gpipe] {
            let cfg = PipelineConfig::naspipe(4, 20)
                .with_batch(32)
                .with_policy(policy)
                .with_seed(42);
            let a = SimSpec::new(&space, &cfg).run().unwrap();
            let recorded: HashMap<(SubnetId, StageId, TaskKind), u64> = a
                .tasks
                .iter()
                .map(|t| ((t.subnet, t.stage, t.kind), t.end.since(t.start).as_us()))
                .collect();
            let b = SimSpec {
                cost: &|t| recorded[&(t.subnet, t.stage, t.kind)] as f64 / 1e3,
                ..SimSpec::new(&space, &cfg)
            }
            .run()
            .unwrap();
            assert!(!a.spans.spans().is_empty());
            assert_eq!(a.tasks, b.tasks, "{policy:?}");
            assert_eq!(a.report, b.report, "{policy:?}");
            assert_eq!(a.spans, b.spans, "{policy:?}");
        }
    }

    #[test]
    fn the_cost_hook_prices_every_task_and_hoisted_recompute() {
        let space = small_space();
        let cfg = PipelineConfig::naspipe(4, 10).with_batch(32).with_seed(42);
        let calls = std::cell::Cell::new(0u64);
        let out = SimSpec {
            cost: &|t| {
                calls.set(calls.get() + 1);
                t.catalog_ms
            },
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        let recomputes = |o: &PipelineOutcome, stage: u32| {
            let spans = o.spans.spans().iter();
            let on_stage = spans.filter(|s| s.kind == SpanKind::Recompute && s.stage == stage);
            on_stage.fold((0, 0), |(n, us), s| (n + 1, us + s.end_us - s.start_us))
        };
        let count: u64 = (0..4).map(|k| recomputes(&out, k).0).sum();
        assert!(count > 0);
        assert_eq!(calls.get(), out.tasks.len() as u64 + count);
        // One price: a slowed stage also recomputes slowly.
        let slow = SimSpec {
            cost: &|t| t.catalog_ms * if t.stage == StageId(1) { 8.0 } else { 1.0 },
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        assert!(recomputes(&slow, 1).1 > 7 * recomputes(&out, 1).1);
        assert_eq!(recomputes(&slow, 2), recomputes(&out, 2));
    }

    #[test]
    fn csp_admission_is_event_driven() {
        // A stage is re-dispatched only when one of its inputs changed, so
        // SCHEDULE() runs a handful of times per task (two of them the
        // predictor's), not once per stage per event. The all-stages loop
        // this replaced made 15 calls per task on this configuration.
        let out = run(SyncPolicy::naspipe(), 8, 60);
        let stats = out.report.scheduler_stats;
        let tasks = out.tasks.len() as u64;
        assert!(
            stats.calls < 4 * tasks,
            "{} scheduler calls for {tasks} tasks",
            stats.calls
        );
        // Every forward was admitted by exactly one hit; the predictor's
        // hits come on top.
        assert!(stats.hits >= tasks / 2);
    }

    #[test]
    fn a_backward_no_later_subnet_reads_dispatches_no_later_stage() {
        // CSP without the predictor: `calls` moves only when a woken idle
        // stage with no backward queued asks the scheduler, so one event's
        // change in `calls` counts its dispatch attempts past backwards.
        let space = small_space();
        let policy = SyncPolicy::Csp {
            scheduler: true,
            predictor: false,
            mirroring: true,
        };
        let cfg = PipelineConfig::naspipe(8, 60)
            .with_batch(32)
            .with_policy(policy)
            .with_seed(42);
        let subnets = UniformSampler::new(&space, 42).take_subnets(60);
        let tracer = Box::new(NullTracer);
        let mut engine = Engine::new(&space, &cfg, subnets, tracer, None, &catalog_price).unwrap();
        engine.start();
        let (mut unread, mut skipped) = (0, 0);
        while let Some((now, ev)) = engine.queue.pop() {
            // A backward at `j` whose slice no later in-flight subnet
            // reads: stage `j` asks the scheduler once unless a backward
            // is queued there, and the idle later stages with forwards
            // queued (which the wake once re-dispatched) not at all.
            let quiet = match ev {
                Ev::TaskDone {
                    subnet,
                    stage,
                    kind: TaskKind::Backward,
                    ..
                } => {
                    let mut readers = Vec::new();
                    let table = &engine.table;
                    table.readers_above(subnet, StageId(stage), &mut readers);
                    readers.is_empty().then(|| {
                        let own = u64::from(engine.stages[stage as usize].queues.bwd.is_empty());
                        let waiting = |k: &u32| {
                            let st = &engine.stages[*k as usize];
                            !st.busy && !st.queues.fwd.is_empty()
                        };
                        (own, (stage + 1..engine.d).filter(waiting).count())
                    })
                }
                _ => None,
            };
            let before = engine.scheduler.stats().calls;
            engine.step(now, ev);
            if let Some((own, waiting)) = quiet {
                let calls = engine.scheduler.stats().calls - before;
                assert_eq!(calls, own, "{waiting} later stages waiting at {now:?}");
                unread += 1;
                skipped += waiting;
            }
        }
        assert_eq!(engine.completed, 60);
        assert!(
            unread > 0 && skipped > 0,
            "{unread} quiet backwards, {skipped} skipped"
        );
    }

    #[test]
    fn idle_time_is_fully_attributed() {
        // Lazy accounting must still cover every idle microsecond: per
        // stage, stall + bubble is the makespan minus the time the stage
        // held a task (dispatch to completion).
        let out = run(SyncPolicy::naspipe(), 4, 25);
        for s in &out.obs.stages {
            let idle = s.stall_us + s.bubble_us;
            assert!(
                idle > 0 && idle < out.obs.wall_us,
                "stage {}: {idle}",
                s.stage
            );
            let computing: u64 = out
                .tasks
                .iter()
                .filter(|t| t.stage.0 == s.stage)
                .map(|t| t.end.since(t.start).as_us())
                .sum();
            // Holding a task includes waiting for its context, so idle
            // time can only be at most the non-computing time.
            assert!(idle + computing <= out.obs.wall_us, "stage {}", s.stage);
        }
    }

    #[test]
    fn forward_precedes_backward_per_stage() {
        let out = run(SyncPolicy::naspipe(), 4, 15);
        let mut fwd_end: HashMap<(u64, u32), SimTime> = HashMap::new();
        for t in &out.tasks {
            match t.kind {
                TaskKind::Forward => {
                    fwd_end.insert((t.subnet.0, t.stage.0), t.end);
                }
                TaskKind::Backward => {
                    let f = fwd_end[&(t.subnet.0, t.stage.0)];
                    assert!(t.start >= f, "backward before forward for {:?}", t);
                }
            }
        }
    }
}

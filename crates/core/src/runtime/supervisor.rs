//! The supervisor behind [`RunSpec::run`]: resolve the spec, then per
//! incarnation spawn the stage workers, collect what they hand back —
//! sampling the run's hub while it waits — and classify it; and either
//! assemble the result or account the failure and respawn from the
//! newest complete cut.

use super::sidecars::DurableWriter;
use super::worker::{Incarnation, Msg, RunContext, StageOutput, StageWorker};
use super::{elapsed_us, RecoveryReport, RunSpec, SupervisedRun, TrainError};
use crate::checkpoint::Checkpoint;
use crate::durable::{run_fingerprint, DurableError, DurableStore};
use crate::fault::FiredFault;
use crate::partition::Partition;
use crate::pipeline::TaskRecord;
use crate::task::{StageId, TaskKind};
use crate::train::TrainResult;
use naspipe_obs::{
    Counter, EventBus, MetricsSnapshot, PoolWorkerObs, RunEvent, RunMeta, SpanId, SpanTrace, Tracer,
};
use naspipe_sim::time::SimTime;
use naspipe_supernet::subnet::SubnetId;
use naspipe_tensor::hash::store_hash;
use naspipe_tensor::model::ParamStore;
use naspipe_tensor::pool;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

/// What the stages that finished or parked handed back, by ascending stage.
type Outputs = Vec<(usize, StageOutput)>;

/// Runs `spec`: one incarnation after another until one finishes or a
/// failure is not recovered from.
pub(super) fn supervise(spec: RunSpec<'_>) -> Result<SupervisedRun, TrainError> {
    let mut run = Supervisor::resolve(spec)?;
    loop {
        let inc = Incarnation::new(&run.ctx, run.recovery.restarts);
        let (handback, failed_at) = run_incarnation(&run.ctx, &inc, &mut run.next_sample);
        run.attribute_faults(inc.number);
        match classify(handback) {
            (None, outputs) => return Ok(run.assemble(outputs, inc.watermark)),
            (Some(err), salvaged) => run.restart(err, salvaged, failed_at)?,
        }
    }
}

/// One incarnation: a scoped thread per stage, then the one loop in
/// which the supervisor waits for them, taking each sample that falls
/// due meanwhile. Every worker sends its result — a panic, caught at the
/// thread root, included — as it exits; the first `Err` raises the
/// shutdown flag and wakes every worker, so survivors park instead of
/// cascading. Returns the results by stage and when the first failure
/// was seen.
fn run_incarnation(
    ctx: &RunContext,
    inc: &Incarnation,
    next_sample: &mut Option<Instant>,
) -> (Vec<Result<StageOutput, TrainError>>, Option<Instant>) {
    let (workers, txs) = StageWorker::wire(ctx, inc);
    let mut handback: Vec<_> = workers.iter().map(|_| None).collect();
    let mut failed_at = None;
    let threads = ctx.train.threads;
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel();
        let mut handles = Vec::new();
        for (stage, worker) in workers.into_iter().enumerate().rev() {
            let done = done_tx.clone();
            handles.push(scope.spawn(move || {
                // Each stage worker runs its numeric kernels on the
                // configured compute pool — the software analogue of
                // each pipeline stage owning one GPU.
                let body = || pool::with_threads(threads, || worker.run());
                let result = catch_unwind(AssertUnwindSafe(body))
                    .unwrap_or(Err(TrainError::StagePanicked { stage }));
                let _ = done.send((stage, result));
            }));
        }
        drop(done_tx);
        loop {
            // Until the next sample is due (std waits forever on `MAX`).
            let until = |at: Instant| at.saturating_duration_since(Instant::now());
            let wait = next_sample.map_or(Duration::MAX, until);
            let (stage, result) = match done_rx.recv_timeout(wait) {
                Ok(handed_back) => handed_back,
                Err(RecvTimeoutError::Timeout) => {
                    ctx.sample();
                    *next_sample = ctx.sample_every.map(|every| Instant::now() + every);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            if result.is_err() && failed_at.is_none() {
                failed_at = Some(Instant::now());
                inc.shutdown.store(true, Ordering::Release);
                for tx in &txs {
                    let _ = tx.send(Msg::Stop);
                }
            }
            handback[stage] = Some(result);
        }
        // The scope waits for each thread's closure, not for the OS
        // thread: join, so that a worker's allocator arena is back before
        // the threads of the next incarnation (or run) take theirs — else
        // one of them grows a small arena while a grown one sits empty.
        for handle in handles {
            let _ = handle.join();
        }
    });
    // The workers are gone, nothing more is handed over: the cut in
    // flight lands before this incarnation's restart, end or failure
    // notice.
    if let Some(w) = &ctx.writer {
        w.drain();
    }
    let reported = |r: Option<_>| r.expect("every worker reports once");
    (handback.into_iter().map(reported).collect(), failed_at)
}

/// The root cause of an incarnation, if any stage failed, and the state
/// of the stages that did not. Errors are noted in descending stage
/// order; the first wins, except that anything beats a secondary channel
/// closure (a panic, invariant breach or timeout cascades into those).
fn classify(handback: Vec<Result<StageOutput, TrainError>>) -> (Option<TrainError>, Outputs) {
    let mut first: Option<TrainError> = None;
    let mut outputs = Vec::new();
    for (stage, result) in handback.into_iter().enumerate().rev() {
        match result {
            Ok(out) => outputs.push((stage, out)),
            Err(err) => {
                let beats = |noted: &TrainError| noted.is_secondary() && !err.is_secondary();
                if first.as_ref().is_none_or(beats) {
                    first = Some(err);
                }
            }
        }
    }
    outputs.reverse();
    (first, outputs)
}

/// One run under supervision: the resolved spec and what accumulates
/// across incarnations (but the counters: those are in `ctx.hub`).
struct Supervisor {
    ctx: RunContext,
    // When the next sample is due: one deadline across incarnations.
    next_sample: Option<Instant>,
    max_restarts: u32,
    spans: SpanTrace,
    recovery: RecoveryReport,
    attributed: BTreeSet<usize>,
}

impl Supervisor {
    /// Validates and resolves `spec` into the run context, starts the
    /// snapshot writer and seeds the checkpoint store with a durable
    /// resume.
    fn resolve(spec: RunSpec<'_>) -> Result<Self, TrainError> {
        spec.validate()?;
        for (i, s) in spec.subnets.iter().enumerate() {
            assert_eq!(s.seq_id().0, i as u64, "subnets must be numbered from 0");
            assert!(s.is_valid_for(spec.space), "subnet {s} invalid for space");
        }
        if spec.recovery.fault_plan.fatal_faults().next().is_some() {
            crate::fault::silence_injected_panics();
        }
        // The run's shared sinks. Built first: the durable resume
        // already has notices to emit.
        let bus = spec.bus();
        let (durable, initial_resume) = open_durable(&spec, &bus)?;
        let max_restarts = spec.recovery.max_restarts;
        let mut ctx = RunContext::new(spec, bus);
        // Publish the run shape and flip `/readyz` to admitting-work before
        // any stage thread starts.
        ctx.bus.start(ctx.total());
        // Started before the workers, because it ends after them: a thread
        // that dies leaves its allocator arena to the next one that starts,
        // and in this order each thread of the next run finds the arena its
        // twin grew (see the join in `run_incarnation`).
        ctx.writer = durable.map(|store| {
            let ckpts = ctx.ckpts.clone().expect("validated: durable has cuts");
            DurableWriter::start(store, ckpts, ctx.bus.clone(), ctx.epoch)
        });
        // Seed the in-memory checkpoint store with the durable cut: every
        // incarnation resumes from the store's newest complete cut, so
        // incarnation 0 starts exactly as the uninterrupted run's workers
        // stood after that watermark and no restart falls below it.
        if let Some(cut) = initial_resume {
            let store = ctx.ckpts.as_ref().expect("validated: durable has cuts");
            for (k, s) in cut.stages.into_iter().enumerate() {
                store.record(cut.watermark, k, s, SpanId::EXTERNAL);
                ctx.hub.record(k as u32, Counter::DurableResume, 1);
            }
        }
        Ok(Supervisor {
            next_sample: ctx.sample_every.map(|every| Instant::now() + every),
            ctx,
            max_restarts,
            spans: SpanTrace::default(),
            recovery: RecoveryReport::default(),
            attributed: BTreeSet::new(),
        })
    }

    /// Attributes the faults that fired since the last call to the
    /// incarnation that just ended.
    fn attribute_faults(&mut self, incarnation: u32) {
        let injector = &self.ctx.injector;
        for i in injector.fired_indices() {
            if self.attributed.insert(i) {
                let fault = injector.fault(i);
                let fired = FiredFault { incarnation, fault };
                self.recovery.faults_fired.push(fired);
            }
        }
    }

    /// The run's last sample, on either exit path: the workers have
    /// joined and the writer is joined here, so nothing writes any more.
    fn last_sample(&mut self) -> MetricsSnapshot {
        if let Some(w) = self.ctx.writer.as_mut() {
            w.finish();
        }
        self.ctx.sample()
    }

    /// Success: every stage finished. Moves the slices (stage ranges are
    /// contiguous and ascending) into one store, folds the stages' layer
    /// hashes in stage order into its fingerprint (each stage hashed its
    /// own slice; no pass over the whole store here) and assembles the
    /// effective task stream over the resume watermark's prefix.
    fn assemble(mut self, outputs: Outputs, resume_w: u64) -> SupervisedRun {
        let (gpus, cfg) = (self.ctx.gpus(), self.ctx.train);
        debug_assert_eq!(outputs.len(), gpus as usize);
        let final_hash = store_hash(outputs.iter().flat_map(|(k, out)| {
            let layers: usize = out.params.iter().map(Vec::len).sum();
            debug_assert_eq!(out.layer_hashes.len(), layers, "stage {k} hashed its slice");
            out.layer_hashes.iter().copied()
        }));
        let mut params = Vec::new();
        let mut losses = Vec::new();
        let mut real_tasks: Vec<TaskRecord> = Vec::new();
        for (k, mut out) in outputs {
            let range = self.ctx.partition.stage_range(StageId(k as u32));
            debug_assert_eq!(range.start, params.len());
            self.spans.merge(out.tracer.take());
            params.extend(out.params);
            losses.extend(out.losses);
            real_tasks.extend(out.tasks);
        }
        // Stable by-start sort keeps each stage's (already ordered)
        // stream in order; cross-stage ties don't affect per-layer
        // access order because each layer has one owner stage.
        real_tasks.sort_by_key(|t| t.start);
        let mut tasks = sequential_prefix_tasks(resume_w, &self.ctx.partition, gpus);
        tasks.extend(real_tasks);
        let wall_us = elapsed_us(self.ctx.epoch);
        let pool_run = self.ctx.pool_run();
        // The report is the last sample, which ends the series it embeds.
        let report = (self.last_sample().report(wall_us))
            .with_meta(RunMeta::new("threaded", gpus).seed(cfg.seed))
            .with_pool(pool_worker_obs(&pool_run, wall_us));
        let restarts = Some(self.recovery.restarts);
        let report = self.ctx.bus.finish(report, self.ctx.total(), restarts);
        let store = ParamStore::from_blocks(cfg.dim, params);
        SupervisedRun {
            result: TrainResult {
                losses,
                final_hash,
                store,
            },
            report,
            recovery: self.recovery,
            tasks,
            subnets: self.ctx.subnets,
            spans: self.spans,
        }
    }

    /// A failed incarnation: gives up with the root cause (unrecoverable,
    /// or recovery disabled) or [`TrainError::RecoveryExhausted`], or
    /// accounts the failure for the respawn that follows — the spans of
    /// the workers that survived (every worker's counters, the failed
    /// one's included, are in the hub already), and the tasks past the
    /// resume watermark whose effects the rollback discards.
    fn restart(
        &mut self,
        err: TrainError,
        salvaged: Outputs,
        failed_at: Option<Instant>,
    ) -> Result<(), TrainError> {
        let (restarts, stage) = (self.recovery.restarts, err.stage());
        if !err.is_recoverable() || restarts >= self.max_restarts {
            self.last_sample();
            let failed = RunEvent::RunFailed { error: &err };
            let at_us = elapsed_us(self.ctx.epoch);
            self.ctx.bus.emit(stage as u32, at_us, failed);
            return Err(if !err.is_recoverable() || self.max_restarts == 0 {
                err
            } else {
                TrainError::RecoveryExhausted {
                    stage,
                    attempts: restarts,
                    last: Box::new(err),
                }
            });
        }
        // Nothing records a cut until the respawn, which resumes here.
        let resume = self.ctx.ckpts.as_ref().and_then(|s| s.latest_complete());
        let watermark = resume.map_or(0, |c| c.watermark);
        self.recovery.resume_watermarks.push(watermark);
        for (k, mut out) in salvaged {
            self.spans.merge(out.tracer.take());
            let past = out.tasks.iter().filter(|t| t.subnet.0 >= watermark);
            let replayed = past.count() as u64;
            self.recovery.replayed_tasks += replayed;
            self.ctx
                .hub
                .record(k as u32, Counter::ReplayedTask, replayed);
        }
        self.recovery.restarts += 1;
        for k in 0..self.ctx.gpus() {
            self.ctx.hub.record(k, Counter::Restart, 1);
        }
        let restart = RunEvent::Restart {
            incarnation: self.recovery.restarts,
            watermark,
            error: &err,
        };
        let at_us = elapsed_us(self.ctx.epoch);
        self.ctx.bus.emit(stage as u32, at_us, restart);
        if let Some(at) = failed_at {
            self.recovery.recovery_latency_us += elapsed_us(at);
        }
        Ok(())
    }
}

/// Durable persistence: opens the on-disk store before any worker starts,
/// so a bad snapshot directory fails fast, and for a `--resume` loads the
/// newest valid cut — which seeds every incarnation — reporting skipped
/// files, the resume or the fall back to a fresh start on `bus`.
fn open_durable(
    spec: &RunSpec<'_>,
    bus: &EventBus,
) -> Result<(Option<DurableStore>, Option<Checkpoint>), TrainError> {
    let Some(d) = &spec.durable else {
        return Ok((None, None));
    };
    let (gpus, total) = (spec.gpus, spec.subnets.len() as u64);
    let interval = spec.recovery.checkpoint_interval;
    let fp = run_fingerprint(spec.space, &spec.subnets, &spec.train, gpus, interval);
    let store =
        DurableStore::open(&d.dir, d.keep, fp).map_err(|cause| TrainError::Durable { cause })?;
    if !d.resume {
        return Ok((Some(store), None));
    }
    let skip = |skipped: &[(std::path::PathBuf, String)]| {
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
            Ok((Some(store), Some(cut)))
        }
        Err(DurableError::NoSnapshot { dir, skipped }) => {
            skip(&skipped);
            bus.emit(0, 0, RunEvent::DurableScratch { dir: &dir });
            Ok((Some(store), None))
        }
        Err(cause) => Err(TrainError::Durable { cause }),
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
    use super::super::RecoveryOptions;
    use super::*;
    use crate::fault::FaultPlan;
    use crate::repro::verify_csp_order_parts;
    use crate::train::{sequential_training, TrainConfig};
    use naspipe_obs::telemetry::diff_against_report;
    use naspipe_obs::{CauseKind, SpanKind, TelemetryHub, TelemetryOptions};
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;
    use naspipe_supernet::subnet::Subnet;
    use std::collections::BTreeMap;
    use std::error::Error as _;
    use std::sync::Arc;

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
            // The stages' folded layer hashes are the store's.
            assert_eq!(res.final_hash, res.store.bitwise_hash());
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
    #[should_panic(expected = "numbered from 0")]
    fn misnumbered_subnets_panic() {
        let space = space();
        let list = vec![Subnet::new(SubnetId(3), vec![0; 8])];
        let _ = RunSpec::new(&space, list, TrainConfig::default(), 2).run();
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
    fn a_restarted_run_fingerprints_the_sequential_store() {
        // Only the last incarnation's stages hash their slices (the
        // parked ones of the first do not); their fold is the assembled
        // store's fingerprint and the sequential one, with the restart
        // on the last stage of 2, 3 and 4.
        let space = space();
        let list = subnets(&space, 12);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        for gpus in [2u32, 3, 4] {
            let run = RunSpec {
                recovery: RecoveryOptions {
                    fault_plan: FaultPlan::new().panic_on(gpus - 1, 6, TaskKind::Backward),
                    checkpoint_interval: 4,
                    max_restarts: 1,
                    recv_timeout_ms: None,
                },
                ..RunSpec::new(&space, list.clone(), cfg, gpus)
            }
            .run()
            .expect("recovers from one panic");
            assert_eq!(run.recovery.restarts, 1, "{gpus} stages");
            assert_eq!(
                run.result.store.first_divergence(&seq.store),
                None,
                "{gpus} stages"
            );
            assert_eq!(run.result.final_hash, run.result.store.bitwise_hash());
            assert_eq!(run.result.final_hash, seq.final_hash, "{gpus} stages");
        }
    }

    #[test]
    fn a_restarted_run_reports_what_its_hub_counted_the_dead_worker_included() {
        // One ledger: the report is the hub's final snapshot, so it also
        // counts what the panicked worker did before it died.
        let space = space();
        let hub = Arc::new(TelemetryHub::new(2, 0));
        let run = RunSpec {
            recovery: RecoveryOptions {
                fault_plan: FaultPlan::new().panic_on(1, 6, TaskKind::Backward),
                checkpoint_interval: 4,
                max_restarts: 2,
                recv_timeout_ms: None,
            },
            telemetry: Some(TelemetryOptions::new(Arc::clone(&hub))),
            ..RunSpec::new(&space, subnets(&space, 12), TrainConfig::default(), 2)
        }
        .run()
        .expect("recovers from one panic");
        assert_eq!(run.recovery.restarts, 1);
        let last = hub.latest().expect("the final sample is published");
        assert_eq!(run.report.series.last().map(|p| p.at_us), Some(last.at_us));
        assert_eq!(
            diff_against_report(&last, &run.report),
            Vec::<String>::new()
        );
        // Stage 1 re-ran SN4..SN11 after the restart (the survivors-only
        // count); before dying it had run the forwards of SN0..SN6.
        let s1 = &run.report.stages[1];
        assert!(s1.forward_tasks >= 8 + 7, "saw {}", s1.forward_tasks);
        assert!(s1.backward_tasks >= 8 + 6, "saw {}", s1.backward_tasks);
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
        let task = |kind| {
            let mut keys: Vec<_> = (run.spans.of_kind(kind))
                .map(|s| (s.stage, s.subnet))
                .collect();
            keys.sort_unstable();
            keys
        };
        let bwd = task(SpanKind::Backward);
        assert_eq!(fwd, n * u64::from(gpus), "one forward span per task");
        assert_eq!(
            bwd.len() as u64,
            n * u64::from(gpus),
            "one backward span per task"
        );
        assert_eq!(task(SpanKind::Update), bwd, "one update span per backward");
        assert_eq!(run.spans.num_stages(), gpus);
        for s in run.spans.spans() {
            if s.kind == SpanKind::Update {
                // It follows its own backward's hand-off: nothing
                // released it.
                assert_eq!(s.cause, None, "an update span carries no cause");
                continue;
            }
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
    fn a_task_ends_once_for_its_span_its_record_and_its_latency_sample() {
        // One clock read per task end: the transcript, the trace and the
        // histogram of one run agree about when its tasks ran.
        let space = space();
        let run = RunSpec::new(&space, subnets(&space, 40), TrainConfig::default(), 2)
            .run()
            .unwrap();
        let key = |stage: u32, subnet: u64, forward: bool, start: u64, end: u64| {
            (stage, subnet, forward, start, end)
        };
        let mut records: Vec<_> = (run.tasks.iter())
            .map(|t| {
                let forward = t.kind == TaskKind::Forward;
                key(
                    t.stage.0,
                    t.subnet.0,
                    forward,
                    t.start.as_us(),
                    t.end.as_us(),
                )
            })
            .collect();
        // A forward is one span; a backward is its Backward span, the
        // gradient's hand-off, and its Update span.
        let mut updates: BTreeMap<(u32, u64), (u64, u64)> = (run.spans.of_kind(SpanKind::Update))
            .map(|s| ((s.stage, s.subnet.unwrap()), (s.start_us, s.end_us)))
            .collect();
        let tasks =
            |s: &&naspipe_obs::Span| matches!(s.kind, SpanKind::Forward | SpanKind::Backward);
        let mut spans: Vec<_> = (run.spans.spans().iter().filter(tasks))
            .map(|s| {
                let (stage, subnet) = (s.stage, s.subnet.unwrap());
                if s.kind == SpanKind::Forward {
                    return key(stage, subnet, true, s.start_us, s.end_us);
                }
                let (split, end) = updates.remove(&(stage, subnet)).expect("its update span");
                assert!(
                    s.end_us <= split,
                    "SN{subnet}@P{stage}: the update starts after the backward"
                );
                key(stage, subnet, false, s.start_us, end)
            })
            .collect();
        assert!(updates.is_empty(), "an update span without its backward");
        records.sort_unstable();
        spans.sort_unstable();
        assert_eq!(records.len(), 40 * 2 * 2);
        assert_eq!(records, spans, "every task span has its one equal record");
        for stage in &run.report.stages {
            let summed = |forward: bool| -> u64 {
                let mine = spans
                    .iter()
                    .filter(|s| s.0 == stage.stage && s.2 == forward);
                mine.map(|s| s.4 - s.3).sum()
            };
            // The report keeps a histogram's sum as its mean and count.
            let sampled = |mean_us: f64, count: u64| (mean_us * count as f64).round() as u64;
            let fwd = sampled(stage.fwd_latency_mean_us, stage.forward_tasks);
            let bwd = sampled(stage.bwd_latency_mean_us, stage.backward_tasks);
            assert_eq!(
                (fwd, bwd),
                (summed(true), summed(false)),
                "stage {}",
                stage.stage
            );
        }
    }

    #[test]
    fn every_causal_edge_leaves_a_closed_span() {
        // A hand-off sent before the span it names is closed shows up as
        // an edge whose source ends after the span it releases starts.
        // Clean, with checkpoints, and restarted from one: a worker that
        // died loses its buffered spans, so only then may a source be
        // missing from the trace.
        let space = space();
        let list = subnets(&space, 16);
        let cuts = RecoveryOptions {
            checkpoint_interval: 4,
            ..RecoveryOptions::default()
        };
        let restart = RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(1, 6, TaskKind::Backward),
            max_restarts: 2,
            ..cuts.clone()
        };
        for (recovery, restarted) in [
            (RecoveryOptions::default(), false),
            (cuts, false),
            (restart, true),
        ] {
            let run = RunSpec {
                recovery,
                ..RunSpec::new(&space, list.clone(), TrainConfig::default(), 3)
            }
            .run()
            .unwrap();
            assert_eq!(run.recovery.restarts, u32::from(restarted));
            let mut edges = 0;
            for s in run.spans.spans() {
                let Some(edge) = s.cause.filter(|e| !e.src.is_external()) else {
                    continue;
                };
                let Some(src) = run.spans.get(edge.src) else {
                    assert!(restarted, "dangling edge into {}", s.label());
                    continue;
                };
                assert!(
                    src.end_us <= s.start_us,
                    "{} ends at {} us, after {} it released starts at {} us",
                    src.label(),
                    src.end_us,
                    s.label(),
                    s.start_us
                );
                edges += 1;
            }
            assert!(edges > 16 * 3, "edges checked: {edges}");
            // Each Update follows its Backward. A parked worker halted in
            // the hand-off between them keeps a lone Backward, allowed
            // only if the restart ran that backward again, in full.
            let mut runs: BTreeMap<(u32, u64), Vec<(u64, bool)>> = BTreeMap::new();
            for s in run.spans.spans() {
                if matches!(s.kind, SpanKind::Backward | SpanKind::Update) {
                    let update = s.kind == SpanKind::Update;
                    let key = (s.stage, s.subnet.unwrap());
                    runs.entry(key).or_default().push((s.start_us, update));
                }
            }
            for ((stage, subnet), mut halves) in runs {
                halves.sort_unstable();
                let (mut open, mut lone) = (false, 0);
                for (_, update) in halves {
                    match (update, open) {
                        (true, true) => open = false,
                        (true, false) => panic!("SN{subnet}@P{stage}: update without backward"),
                        (false, true) => lone += 1,
                        (false, false) => open = true,
                    }
                }
                assert!(
                    !open,
                    "SN{subnet}@P{stage}: its last backward has no update"
                );
                assert!(
                    restarted || lone == 0,
                    "SN{subnet}@P{stage}: {lone} lone backwards"
                );
            }
        }
    }

    #[test]
    fn a_backwards_send_and_its_back_off_are_the_gap_before_its_update() {
        // SN5's gradient fails to leave stage 1 twice: the retries sleep
        // 20 + 40 ms, between its Backward and Update spans — outside
        // both compute spans, inside its task record.
        let space = space();
        let recovery = RecoveryOptions {
            fault_plan: (FaultPlan::new())
                .transient_send(1, 5, TaskKind::Backward, 2)
                .with_backoff_us(20_000),
            ..RecoveryOptions::default()
        };
        let run = RunSpec {
            recovery,
            ..RunSpec::new(&space, subnets(&space, 8), TrainConfig::default(), 2)
        }
        .run()
        .unwrap();
        assert_eq!(run.report.retries(), 2);
        let half = |kind| {
            let mut it = run.spans.of_kind(kind);
            let s = it.find(|s| (s.stage, s.subnet) == (1, Some(5))).unwrap();
            (s.start_us, s.end_us)
        };
        let (backward, update) = (half(SpanKind::Backward), half(SpanKind::Update));
        let backoff_us = 60_000;
        assert!(
            update.0 - backward.1 >= backoff_us,
            "{backward:?} then {update:?}"
        );
        let record = (run.tasks.iter())
            .find(|t| (t.stage.0, t.subnet.0, t.kind) == (1, 5, TaskKind::Backward))
            .unwrap();
        assert_eq!(
            (record.start.as_us(), record.end.as_us()),
            (backward.0, update.1)
        );
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
}

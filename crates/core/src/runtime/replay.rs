//! The single-thread driver: every stage worker of one incarnation on the
//! calling thread, each step handed a chosen part of the messages in
//! flight to its stage. [`replay`] chooses from a threaded run's record;
//! `worker::tests` choose by seed.

use super::worker::{Halt, Incarnation, Io, Msg, RunContext, StageOutput, StageWorker};
use super::{elapsed_us, RecoveryOptions, ReplayDivergence, Replayed, RunSpec};
use crate::checkpoint::StageSnapshot;
use crate::config::DiagnosticsOptions;
use crate::fault::FaultPlan;
use crate::task::{StageId, TaskKind};
use crate::transcript::Transcript;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SearchSpace;
use naspipe_tensor::hash::store_hash;
use naspipe_tensor::model::ParamStore;
use naspipe_tensor::pool;
use std::collections::{BTreeMap, VecDeque};

/// One incarnation's workers and the messages in flight between them.
pub(super) struct Stepper<'a> {
    pub workers: Vec<StageWorker<'a>>,
    /// Per stage, what was sent to it and not yet handed over:
    /// `[forwards from its predecessor, backwards from its successor]`,
    /// each in send order.
    pub in_flight: Vec<[VecDeque<Msg>; 2]>,
}

impl<'a> Stepper<'a> {
    /// The incarnation's workers, started.
    pub(super) fn new(ctx: &'a RunContext, inc: &'a Incarnation) -> Self {
        let mut workers: Vec<_> = (0..ctx.gpus() as usize)
            .map(|k| StageWorker::new(ctx, inc, k))
            .collect();
        for w in &mut workers {
            w.start();
        }
        let in_flight = workers.iter().map(|_| Default::default()).collect();
        Stepper { workers, in_flight }
    }

    /// How many forwards and backwards are in flight to stage `k`.
    pub(super) fn sent_to(&self, k: usize) -> [usize; 2] {
        self.in_flight[k].each_ref().map(VecDeque::len)
    }

    /// Steps stage `k`, handing it the first `hand[0]` forwards and
    /// `hand[1]` backwards in flight to it.
    pub(super) fn step(&mut self, k: usize, hand: [usize; 2]) -> Result<bool, Halt> {
        let in_flight = &mut self.in_flight;
        self.workers[k].step(&mut Hands { in_flight, k, hand })
    }
}

/// What one step of stage `k` may take, and where its hand-offs go.
struct Hands<'s> {
    in_flight: &'s mut [[VecDeque<Msg>; 2]],
    k: usize,
    hand: [usize; 2],
}

impl Io for Hands<'_> {
    fn take(&mut self) -> Result<Option<Msg>, Halt> {
        let queues = self.in_flight[self.k].iter_mut();
        for (left, queue) in self.hand.iter_mut().zip(queues) {
            if *left > 0 {
                *left -= 1;
                return Ok(queue.pop_front());
            }
        }
        Ok(None)
    }

    fn send(&mut self, msg: Msg) -> Result<(), Halt> {
        let (to, side) = match msg.kind {
            TaskKind::Forward => (self.k + 1, 0),
            TaskKind::Backward => (self.k - 1, 1),
        };
        self.in_flight[to][side].push_back(msg);
        Ok(())
    }
}

/// [`RunSpec::replay`]: steps whichever stage has the messages its next
/// recorded task was picked with in flight, hands it exactly those, and
/// checks it ran that task, until every record is replayed.
pub(super) fn replay(
    spec: RunSpec<'_>,
    transcript: &Transcript,
) -> Result<Replayed, ReplayDivergence> {
    let unfit = |why: &str| Err(ReplayDivergence::Unfit(why.to_string()));
    let (tasks, taken) = (&transcript.tasks, &transcript.taken);
    let gpus = spec.gpus as usize;
    if transcript.subnets != spec.subnets {
        return unfit("its subnets are not the spec's");
    }
    if taken.is_empty() {
        return unfit("it holds no inbox counts (not a threaded run)");
    }
    // The tasks without counts are the sequential prefix a restart
    // resumed over: whole subnets, a forward and a backward per stage.
    let Some(prefix) = tasks.len().checked_sub(taken.len()) else {
        return unfit("more inbox counts than tasks");
    };
    let watermark = (prefix / 2).checked_div(gpus).unwrap_or(0) as u64;
    let interval = spec.recovery.checkpoint_interval;
    let on_a_cut = watermark.checked_rem(interval).unwrap_or(watermark) == 0;
    let whole = gpus > 0 && prefix % (2 * gpus) == 0;
    if !whole || !on_a_cut || watermark > spec.subnets.len() as u64 {
        return unfit("its sequential prefix is not a cut of the spec's run");
    }
    let mut recorded: Vec<Vec<usize>> = vec![Vec::new(); gpus];
    for (i, t) in tasks.iter().enumerate().skip(prefix) {
        let Some(stage) = recorded.get_mut(t.stage.0 as usize) else {
            return unfit("a task on a stage the spec does not have");
        };
        stage.push(i);
    }
    let space = spec.space;
    let spec = RunSpec {
        recovery: RecoveryOptions {
            fault_plan: FaultPlan::new(),
            ..spec.recovery
        },
        telemetry: None,
        durable: None,
        diagnostics: DiagnosticsOptions {
            enabled: false,
            ..DiagnosticsOptions::default()
        },
        ..spec
    };
    spec.validate().map_err(ReplayDivergence::Failed)?;
    let bus = spec.bus();
    let ctx = RunContext::new(spec, bus);
    if watermark > 0 {
        ctx.resume_from(watermark, sequential_cut(&ctx, space, watermark));
    }
    let inc = Incarnation::new(&ctx, 0);
    let mut stepper = Stepper::new(&ctx, &inc);
    let mut next = vec![0; gpus];
    let mut cuts = vec![Vec::new(); gpus];
    loop {
        let mut ran = false;
        for k in 0..gpus {
            let Some(&i) = recorded[k].get(next[k]) else {
                continue;
            };
            let w = &stepper.workers[k];
            let (want, have) = (taken[i - prefix], w.taken_now);
            let diverged = |ran| Err(ReplayDivergence::Task { index: i, ran });
            let owed = |want: u64, have: u64| want.checked_sub(have).map(|n| n as usize);
            let (Some(forwards), Some(backwards)) = (
                owed(want.forwards, have.forwards),
                owed(want.backwards, have.backwards),
            ) else {
                return diverged(None);
            };
            let [f, b] = stepper.sent_to(k);
            if f < forwards || b < backwards {
                continue;
            }
            let (before, cut) = (w.tasks.len(), w.next_ckpt);
            match stepper.step(k, [forwards, backwards]) {
                Ok(_) => {}
                Err(Halt::Failed(err)) => return Err(ReplayDivergence::Failed(err)),
                Err(Halt::Parked) => unreachable!("nothing parks a replayed worker"),
            }
            let w = &stepper.workers[k];
            if w.next_ckpt != cut {
                cuts[k].push((cut, before));
            }
            let got = w.tasks.get(before).map(|t| (t.kind, t.subnet));
            if got != Some((tasks[i].kind, tasks[i].subnet)) {
                return diverged(got);
            }
            next[k] += 1;
            ran = true;
        }
        if !ran {
            break;
        }
    }
    // A record left is one whose messages no stage sent.
    let left = (0..gpus).filter_map(|k| recorded[k].get(next[k]).copied());
    if let Some(index) = left.min() {
        return Err(ReplayDivergence::Task { index, ran: None });
    }
    if stepper.workers.iter().any(|w| !w.trained()) {
        return unfit("a stage's record ends before its stream is trained");
    }
    let wall_us = elapsed_us(ctx.epoch);
    let report = ctx.hub.snapshot(wall_us).report(wall_us);
    let outputs: Vec<StageOutput> = stepper
        .workers
        .into_iter()
        .map(StageWorker::finish)
        .collect();
    Ok(Replayed {
        final_hash: store_hash(outputs.iter().flat_map(|o| o.layer_hashes.iter().copied())),
        tasks: outputs.into_iter().flat_map(|o| o.tasks).collect(),
        cuts,
        report,
    })
}

/// Every stage's state after `0..watermark` is trained sequentially: the
/// cut a restarted run resumed from. Each stage gets the whole engine; it
/// steps only its own layers.
fn sequential_cut(ctx: &RunContext, space: &SearchSpace, watermark: u64) -> Vec<StageSnapshot> {
    let cfg = ctx.train;
    pool::with_threads(cfg.threads, || {
        let mut store = ParamStore::init(space, cfg.dim, cfg.seed);
        let mut engine = cfg.engine();
        let mut losses = BTreeMap::new();
        for s in &ctx.subnets[..watermark as usize] {
            let step = s.seq_id().0;
            let (x, y) = ctx.data.step_batch(step);
            losses.insert(step, engine.train_step(&mut store, s, &x, &y));
        }
        let gpus = ctx.gpus();
        let slice = |k: u32| {
            let blocks = ctx.partition.stage_range(StageId(k));
            let layer = |b: usize, c: u32| store.layer(LayerRef::new(b as u32, c)).clone();
            let choices = |b: usize| (0..space.block(b).num_choices()).map(move |c| layer(b, c));
            blocks.map(|b| choices(b).collect()).collect()
        };
        (0..gpus)
            .map(|k| StageSnapshot {
                params: slice(k),
                engine: engine.clone(),
                losses: if k + 1 == gpus {
                    losses.clone()
                } else {
                    BTreeMap::new()
                },
            })
            .collect()
    })
}

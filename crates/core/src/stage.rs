//! The stage core: Algorithm 1's per-stage bookkeeping, once for both
//! engines.
//!
//! A [`StageCore`] holds the stages one engine drives: all `D` for the
//! DES (`crate::pipeline`), one per threaded stage worker
//! (`crate::runtime`). It owns `L_SN` (the [`SubnetTable`]) and its
//! registration, the queues, `L_f`, the [`CspScheduler`], injection and
//! the writer marks, with no clock, channel or tensor. An engine
//! registers, delivers and finishes tasks and runs what
//! [`StageCore::pick`] hands it: the lowest-ID backward, else the forward
//! Algorithm 2 admits (FIFO for the non-CSP policies). The engines keep
//! their `CspChecker` calls, so the checker audits the core from outside.
//!
//! IDs register in order: the DES's at injection, a worker's lazily up to
//! the forward that just arrived (each lower one is in flight or done). A
//! finish retires the table below the minimum finished prefix over the
//! driven stages: a backward that hands its gradient down before its
//! weight update can finish at stage 0 while a later stage's update still
//! runs. Every window ends at `min(base + w, total)`, saturating.
//!
//! # Writer marks
//!
//! A forward's causal edge names the latest-finishing earlier backward
//! that wrote a layer it reads, if that finished after the forward
//! arrived. A backward at stage `k` writes the layers of its stage-`k`
//! slice, and under mirroring a reader at any stage waits for exactly that
//! write (the owner-stage rule of `crate::scheduler`). So a core marks
//! every `(block, choice)` layer once, with its last writer by
//! `(end, writer)`, whichever driven stage wrote it. A worker's marks are
//! its own slice, and tell a checkpoint cut which layers changed.

use crate::partition::Partition;
use crate::predictor::{Fetch, PendingBackward, Predictor};
use crate::scheduler::{CspScheduler, SchedulerStats, SubnetEntry, SubnetTable};
use crate::task::{FinishedSet, StageId, TaskKind};
use naspipe_obs::{Counter, SpanId};
use naspipe_supernet::subnet::{Subnet, SubnetId, SKIP_CHOICE};
use std::ops::Range;

/// How subnets enter the pipeline. "In flight" counts the IDs registered
/// and not yet finished at stage 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Keep up to `w` subnets in flight.
    Window(u64),
    /// Inject `b` subnets once none is in flight.
    Bulk(u64),
}

/// A backward's write of a layer at a stage, ending at `at` µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) writer: u64,
    pub(crate) span: SpanId,
    pub(crate) at: u64,
}

/// A stage's queued tasks of one kind with their payloads: ascending by
/// ID under CSP, so [`CspScheduler::schedule`] scans it in place, else in
/// arrival order. Each entry remembers its arrival sequence number.
#[derive(Debug)]
struct ReadyQueue<T> {
    ids: Vec<SubnetId>,
    // Parallel to `ids`: (arrival sequence number, payload).
    entries: Vec<(u64, T)>,
    next_seq: u64,
}

impl<T> ReadyQueue<T> {
    fn new() -> Self {
        ReadyQueue {
            ids: Vec::new(),
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    fn insert(&mut self, id: SubnetId, payload: T, by_id: bool) {
        let idx = match by_id {
            true => self.ids.partition_point(|&q| q < id),
            false => self.ids.len(),
        };
        self.ids.insert(idx, id);
        self.entries.insert(idx, (self.next_seq, payload));
        self.next_seq += 1;
    }

    fn remove(&mut self, idx: usize) -> (SubnetId, T) {
        (self.ids.remove(idx), self.entries.remove(idx).1)
    }
}

/// What [`StageCore::pick`] took off a stage's queues.
pub(crate) enum Pick<F, B> {
    /// The lowest-ID queued backward; `preempted` if forwards were queued.
    Backward {
        id: SubnetId,
        payload: B,
        preempted: bool,
    },
    /// The admitted forward.
    Forward { id: SubnetId, payload: F },
    /// Nothing runnable: `blocked` forwards are queued, none admissible.
    Idle { blocked: u64 },
}

/// The bookkeeping of the stages one engine drives; `F` and `B` are its
/// forward and backward payloads.
pub(crate) struct StageCore<F, B> {
    // Driven stage `first + i` owns `fwd[i]` (`L_q`) and `bwd[i]`.
    first: u32,
    fwd: Vec<ReadyQueue<F>>,
    bwd: Vec<ReadyQueue<B>>,
    // Forwards are admitted by `CspScheduler::schedule`, else FIFO.
    csp: bool,
    // `L_f` of every stage; only the driven ones are written.
    finished: Vec<FinishedSet>,
    table: SubnetTable,
    scheduler: CspScheduler,
    // The next ID to register.
    registered: u64,
    total: u64,
    injection: Injection,
    // Subnets per checkpoint epoch of the injection barrier (0: none).
    epoch: u64,
    // `offsets[b]`: where block `b`'s layers start in a stage's marks.
    offsets: Vec<usize>,
    // One per layer, allocated by the first mark: an untraced DES run
    // never reads them.
    marks: Vec<Option<Mark>>,
}

impl<F, B> StageCore<F, B> {
    /// A core driving `stages` of `d` over blocks of `choices` candidates,
    /// for a stream of `total` subnets.
    pub(crate) fn new(
        stages: Range<u32>,
        d: u32,
        choices: &[u32],
        csp: bool,
        injection: Injection,
        total: u64,
    ) -> Self {
        let mut offsets = vec![0];
        for &c in choices {
            offsets.push(offsets[offsets.len() - 1] + c as usize);
        }
        StageCore {
            first: stages.start,
            fwd: stages.clone().map(|_| ReadyQueue::new()).collect(),
            bwd: stages.map(|_| ReadyQueue::new()).collect(),
            csp,
            finished: vec![FinishedSet::new(); d as usize],
            table: SubnetTable::new(),
            scheduler: CspScheduler::new(),
            registered: 0,
            total,
            injection,
            epoch: 0,
            marks: Vec::new(),
            offsets,
        }
    }

    /// Starts from the cut at `watermark`. Stage 0 injects each epoch of
    /// `epoch` subnets (0: none) once it finished every subnet before it,
    /// so every watermark is a consistent cut.
    pub(crate) fn resumed_at(mut self, watermark: u64, epoch: u64) -> Self {
        for k in self.first..self.first + self.fwd.len() as u32 {
            for y in 0..watermark {
                self.finished[k as usize].insert(SubnetId(y));
            }
        }
        (self.registered, self.epoch) = (watermark, epoch);
        self
    }

    fn at(&self, k: u32) -> usize {
        (k - self.first) as usize
    }

    /// Layer `(b, choice)`'s place in a stage's marks.
    fn layer(&self, b: usize, choice: u32) -> usize {
        self.offsets[b] + choice as usize
    }

    /// Registers every unregistered ID up to `y`, in order, as `entry`
    /// describes it.
    pub(crate) fn register_through(
        &mut self,
        y: SubnetId,
        mut entry: impl FnMut(SubnetId) -> (Subnet, Partition),
    ) {
        while self.registered <= y.0 {
            let id = SubnetId(self.registered);
            let (subnet, partition) = entry(id);
            assert_eq!(subnet.seq_id(), id, "registered out of order");
            self.table.insert(subnet, partition).expect("a fresh ID");
            self.registered += 1;
        }
    }

    fn window_end(&self, base: u64, w: u64) -> u64 {
        base.saturating_add(w).min(self.total)
    }

    /// The IDs stage 0 may inject now; the engine registers each.
    pub(crate) fn injectable(&self) -> Range<u64> {
        debug_assert_eq!(self.first, 0, "only stage 0 injects");
        let (from, done) = (self.registered, self.done(0));
        let mut end = match self.injection {
            Injection::Window(w) => self.window_end(done, w),
            Injection::Bulk(b) if from == done => self.window_end(done, b),
            Injection::Bulk(_) => from,
        };
        if let Some(epochs) = self.first_unfinished(0).0.checked_div(self.epoch) {
            end = end.min((epochs + 1).saturating_mul(self.epoch));
        }
        from..end.max(from)
    }

    /// The IDs at most one window above stage `k`'s finished prefix.
    pub(crate) fn window(&self, k: u32) -> Range<u64> {
        let (Injection::Window(w) | Injection::Bulk(w)) = self.injection;
        let prefix = self.first_unfinished(k).0;
        prefix..self.window_end(prefix, w)
    }

    /// Queues registered `y`'s forward at stage `k`.
    pub(crate) fn deliver_forward(&mut self, k: u32, y: SubnetId, payload: F) {
        debug_assert!(self.table.get(y).is_some(), "{y} is not registered");
        let i = self.at(k);
        self.fwd[i].insert(y, payload, self.csp);
    }

    pub(crate) fn deliver_backward(&mut self, k: u32, y: SubnetId, payload: B) {
        let i = self.at(k);
        self.bwd[i].insert(y, payload, true);
    }

    /// Algorithm 1's next task at stage `k`, taken off its queue.
    pub(crate) fn pick(&mut self, k: u32) -> Pick<F, B> {
        let i = self.at(k);
        let (fwd, bwd) = (&mut self.fwd[i], &mut self.bwd[i]);
        if !bwd.ids.is_empty() {
            let (id, payload) = bwd.remove(0);
            let preempted = !fwd.ids.is_empty();
            return Pick::Backward {
                id,
                payload,
                preempted,
            };
        }
        let admitted = match self.csp {
            true => {
                let (finished, table) = (&self.finished, &self.table);
                let pick = self
                    .scheduler
                    .schedule(&fwd.ids, finished, table, StageId(k));
                pick.map(|(qidx, _)| qidx)
            }
            false => (!fwd.ids.is_empty()).then_some(0),
        };
        match admitted {
            Some(qidx) => {
                let (id, payload) = fwd.remove(qidx);
                Pick::Forward { id, payload }
            }
            None => Pick::Idle {
                blocked: fwd.ids.len() as u64,
            },
        }
    }

    /// Whether [`pick`](Self::pick) at stage `k` would take a task; asks
    /// the scheduler nothing.
    pub(crate) fn runnable(&self, k: u32) -> bool {
        let (finished, table) = (&self.finished, &self.table);
        let admits =
            |&y: &SubnetId| !self.csp || CspScheduler::admissible(y, finished, table, StageId(k));
        !self.bwd[self.at(k)].ids.is_empty() || self.forwards(k).iter().any(admits)
    }

    /// `y`'s backward at stage `k` is done: `mark` (its span and end µs)
    /// marks what it wrote, `y` joins `L_f`, and the table retires.
    pub(crate) fn finished(&mut self, k: u32, y: SubnetId, mark: Option<(SpanId, u64)>) {
        if let Some((span, at)) = mark {
            let writer = y.0;
            self.mark(k, Mark { writer, span, at });
        }
        self.finished[k as usize].insert(y);
        self.table.retire_below(self.settled());
    }

    /// The lowest ID some driven stage has not finished: every backward
    /// below it, the last update included, is done on every driven stage.
    pub(crate) fn settled(&self) -> SubnetId {
        let driven = self.first..self.first + self.fwd.len() as u32;
        let prefixes = driven.map(|k| self.first_unfinished(k));
        prefixes.min().expect("a core drives a stage")
    }

    /// Records `mark` on the layers its writer writes at stage `k`.
    fn mark(&mut self, k: u32, mark: Mark) {
        if self.marks.is_empty() {
            self.marks = vec![None; self.offsets[self.offsets.len() - 1]];
        }
        let entry = self.table.get(SubnetId(mark.writer)).expect("registered");
        let choices = entry.subnet.choices();
        let written = entry.partition.stage_range(StageId(k));
        for b in written.filter(|&b| choices[b] != SKIP_CHOICE) {
            let slot = &mut self.marks[self.offsets[b] + choices[b] as usize];
            if slot.is_none_or(|m| (m.at, m.writer) <= (mark.at, mark.writer)) {
                *slot = Some(mark);
            }
        }
    }

    /// The latest mark, by `(at, writer)`, of an earlier writer on a layer
    /// `y` reads at stage `k`.
    pub(crate) fn last_writer(&self, k: u32, y: SubnetId) -> Option<Mark> {
        let entry = self.table.get(y)?;
        let choices = entry.subnet.choices();
        let read = entry.partition.stage_range(StageId(k));
        read.filter(|&b| choices[b] != SKIP_CHOICE)
            .filter_map(|b| *self.marks.get(self.layer(b, choices[b]))?)
            .filter(|m| m.writer < y.0)
            .max_by_key(|m| (m.at, m.writer))
    }

    /// The layers in `blocks` last written by subnet `since` or a later
    /// one, as `(block - blocks.start, choice)`.
    pub(crate) fn written_since(
        &self,
        since: u64,
        blocks: Range<usize>,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first = blocks.start;
        blocks.flat_map(move |b| {
            let layers = self.marks.get(self.offsets[b]..self.offsets[b + 1]);
            let layers = layers.unwrap_or_default();
            let since = move |(c, m): (usize, &Option<Mark>)| {
                m.is_some_and(|m| m.writer >= since)
                    .then_some((b - first, c))
            };
            layers.iter().enumerate().filter_map(since)
        })
    }

    /// Algorithm 3's pending backwards at stage `k`: the queued forwards
    /// causally blocked, each with its first blocker, in arrival order.
    pub(crate) fn pending_backwards(&self, k: u32) -> Vec<PendingBackward> {
        let (finished, table, stage) = (&self.finished, &self.table, StageId(k));
        let queue = &self.fwd[self.at(k)];
        let mut pending: Vec<(u64, PendingBackward)> = Vec::new();
        for (&id, &(seq, _)) in queue.ids.iter().zip(&queue.entries) {
            if !CspScheduler::admissible(id, finished, table, stage) {
                let blocker = CspScheduler::first_blocker(id, finished, table, stage);
                pending.extend(blocker.map(|precedence| (seq, PendingBackward { id, precedence })));
            }
        }
        pending.sort_unstable_by_key(|&(seq, _)| seq);
        pending.into_iter().map(|(_, p)| p).collect()
    }

    /// What `predictor` prefetches before `subnet`'s `kind` task at stage
    /// `k` (Algorithm 3), from that stage's queue.
    pub(crate) fn predict(
        &mut self,
        predictor: &mut Predictor,
        k: u32,
        kind: TaskKind,
        subnet: SubnetId,
        pending: &[PendingBackward],
    ) -> Vec<Fetch> {
        let (queue, stage) = (&self.fwd[self.at(k)].ids, StageId(k));
        let (scheduler, finished, table) = (&mut self.scheduler, &self.finished, &self.table);
        match kind {
            TaskKind::Backward => {
                predictor.before_backward(scheduler, queue, finished, table, stage, subnet, pending)
            }
            TaskKind::Forward => {
                predictor.before_forward(scheduler, queue, finished, table, stage, subnet)
            }
        }
    }

    /// Stage `k`'s idle time: a causal stall while anything is queued
    /// (nothing admissible), a bubble otherwise.
    pub(crate) fn idle_counter(&self, k: u32) -> Counter {
        match self.depth(k) {
            0 => Counter::BubbleUs,
            _ => Counter::StallUs,
        }
    }

    /// Tasks queued at stage `k`.
    pub(crate) fn depth(&self, k: u32) -> u64 {
        let i = self.at(k);
        (self.fwd[i].ids.len() + self.bwd[i].ids.len()) as u64
    }

    pub(crate) fn forwards(&self, k: u32) -> &[SubnetId] {
        &self.fwd[self.at(k)].ids
    }

    /// How many subnets finished at stage `k`.
    pub(crate) fn done(&self, k: u32) -> u64 {
        let finished = &self.finished[k as usize];
        finished.first_unfinished().0 + finished.retained() as u64
    }

    pub(crate) fn is_finished(&self, k: u32, y: SubnetId) -> bool {
        self.finished[k as usize].contains(y)
    }

    pub(crate) fn first_unfinished(&self, k: u32) -> SubnetId {
        self.finished[k as usize].first_unfinished()
    }

    pub(crate) fn entry(&self, y: SubnetId) -> Option<&SubnetEntry> {
        self.table.get(y)
    }

    pub(crate) fn readers(&self, writer: SubnetId, k: u32, out: &mut Vec<u32>) {
        self.table.readers(writer, StageId(k), out);
    }

    pub(crate) fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionMode, Partitioner};
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::profile::ProfiledSpace;
    use naspipe_supernet::rng::DetRng;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;
    use std::collections::BTreeMap;

    fn core(stages: Range<u32>, d: u32, injection: Injection, total: u64) -> StageCore<(), ()> {
        StageCore::new(stages, d, &[3; 8], true, injection, total)
    }

    fn register(core: &mut StageCore<(), ()>, list: &[Subnet], partition: &Partition, y: u64) {
        core.register_through(SubnetId(y), |id| {
            (list[id.0 as usize].clone(), partition.clone())
        });
    }

    #[test]
    fn ready_queues_order_by_id_or_by_arrival() {
        let (mut by_id, mut fifo) = (ReadyQueue::new(), ReadyQueue::new());
        for (i, id) in [5u64, 2, 9].into_iter().enumerate() {
            by_id.insert(SubnetId(id), 10 * (i + 1), true);
            fifo.insert(SubnetId(id), 10 * (i + 1), false);
        }
        assert_eq!(by_id.ids, [SubnetId(2), SubnetId(5), SubnetId(9)]);
        assert_eq!(fifo.ids, [SubnetId(5), SubnetId(2), SubnetId(9)]);
        // Arrival sequence numbers and payloads travel with their entries.
        assert_eq!(by_id.entries, [(1, 20), (0, 10), (2, 30)]);
        assert_eq!(by_id.remove(1), (SubnetId(5), 10));
        assert_eq!(by_id.ids.len(), 2);
    }

    #[test]
    fn pick_takes_the_lowest_backward_then_the_lowest_admissible_forward() {
        // SN1 conflicts with the unfinished SN0 at stage 0; SN2 is free.
        let rows = [[0, 0, 0, 0], [0, 1, 1, 1], [2, 2, 2, 2]];
        let list: Vec<Subnet> = (0..3)
            .map(|i| Subnet::new(SubnetId(i), rows[i as usize].to_vec()))
            .collect();
        let halves = Partition::from_boundaries(vec![0, 2, 4]);
        let window = Injection::Window(8);
        let mut csp = StageCore::<&str, &str>::new(0..2, 2, &[3; 4], true, window, 8);
        csp.register_through(SubnetId(2), |id| {
            (list[id.0 as usize].clone(), halves.clone())
        });
        for (id, name) in [(2, "fwd2"), (1, "fwd1")] {
            csp.deliver_forward(0, SubnetId(id), name);
        }
        for (id, name) in [(7, "bwd7"), (3, "bwd3")] {
            csp.deliver_backward(0, SubnetId(id), name);
        }
        assert_eq!((csp.depth(0), csp.idle_counter(0)), (4, Counter::StallUs));
        let mut picks = Vec::new();
        loop {
            match csp.pick(0) {
                Pick::Backward {
                    id,
                    payload,
                    preempted,
                } => picks.push(format!("{id} {payload} {preempted}")),
                Pick::Forward { id, payload } => picks.push(format!("{id} {payload}")),
                Pick::Idle { blocked } => {
                    picks.push(format!("idle {blocked}"));
                    break;
                }
            }
        }
        // SN1 waits on SN0's write; SN2 leapfrogs it.
        assert_eq!(
            picks,
            ["SN3 bwd3 true", "SN7 bwd7 true", "SN2 fwd2", "idle 1"]
        );
        assert_eq!(csp.scheduler_stats().calls, 2);
        assert!(!csp.runnable(0));
        // FIFO: the oldest arrival, whatever the table says.
        let mut fifo = StageCore::<(), ()>::new(0..1, 1, &[3; 4], false, window, 8);
        fifo.register_through(SubnetId(2), |id| {
            (list[id.0 as usize].clone(), halves.clone())
        });
        fifo.deliver_forward(0, SubnetId(2), ());
        fifo.deliver_forward(0, SubnetId(1), ());
        assert!(fifo.runnable(0));
        assert_eq!(seen(fifo.pick(0)), "fwd SN2");
        assert_eq!(seen(fifo.pick(0)), "fwd SN1");
        assert_eq!(seen(fifo.pick(0)), "idle 0");
        assert_eq!(fifo.idle_counter(0), Counter::BubbleUs);
        assert_eq!(
            fifo.scheduler_stats().calls,
            0,
            "FIFO never asks the scheduler"
        );
    }

    #[test]
    fn windows_saturate_bulks_flush_and_epochs_wait_for_the_prefix() {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 3);
        let list = UniformSampler::new(&space, 1).take_subnets(9);
        let one = Partition::balanced(&[1.0; 8], 1);
        let huge = core(0..1, 1, Injection::Window(u64::MAX), 5);
        assert_eq!((huge.injectable(), huge.window(0)), (0..5, 0..5));

        let mut bulk = core(0..1, 1, Injection::Bulk(2), 5);
        assert_eq!(bulk.injectable(), 0..2);
        register(&mut bulk, &list, &one, 1);
        bulk.finished(0, SubnetId(1), None);
        assert_eq!(bulk.injectable(), 2..2, "SN0 is still in flight");
        bulk.finished(0, SubnetId(0), None);
        assert_eq!(bulk.injectable(), 2..4);

        let mut epochs = core(0..1, 1, Injection::Window(6), 9).resumed_at(0, 4);
        assert_eq!(epochs.injectable(), 0..4);
        register(&mut epochs, &list, &one, 3);
        for y in [3, 1, 2] {
            epochs.finished(0, SubnetId(y), None);
        }
        assert_eq!(epochs.injectable(), 4..4, "SN0 holds the next epoch");
        epochs.finished(0, SubnetId(0), None);
        assert_eq!(epochs.injectable(), 4..8);
        let resumed = core(0..1, 1, Injection::Window(6), 9).resumed_at(4, 4);
        assert_eq!((resumed.injectable(), resumed.done(0)), (4..8, 4));
    }

    #[test]
    fn last_writer_marks_name_the_writer_a_full_scan_would() {
        // A high-share stream (3 choices per block) driven through one
        // stage's admit / finish events in a seeded CSP-legal order, with
        // backwards completing out of sequence order. The oracle is the
        // bookkeeping the marks replaced: every finished backward kept,
        // all of them scanned per forward.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 3);
        let list = UniformSampler::new(&space, 5).take_subnets(400);
        let partition = Partition::from_boundaries(vec![0, 2, 6, 8]);
        let blocks = 2..6usize;
        let mut core = core(1..2, 3, Injection::Window(12), 400);
        let mut done: BTreeMap<u64, (SpanId, u64)> = BTreeMap::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let mut rng = DetRng::new(17);
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
                register(&mut core, &list, &partition, next);
                let scan = done
                    .iter()
                    .filter(|(&x, _)| x < next)
                    .filter(|(&x, _)| y.conflicts_within(blocks.clone(), &list[x as usize]))
                    .max_by_key(|(&x, &(_, at))| (at, x))
                    .map(|(&writer, &(span, at))| Mark { writer, span, at });
                assert_eq!(core.last_writer(1, SubnetId(next)), scan, "SN{next}");
                named += u32::from(scan.is_some());
                in_flight.push(next);
                next += 1;
            } else {
                let x = in_flight.swap_remove(rng.index(in_flight.len()));
                let span = SpanId(now);
                core.finished(1, SubnetId(x), Some((span, now)));
                done.insert(x, (span, now));
            }
        }
        assert!(named > 300, "the stream must share layers, named {named}");
        // Under one partition the marks stay on the stage's own slice.
        let written: Vec<usize> = core.written_since(0, 0..8).map(|(b, _)| b).collect();
        assert!(written.iter().all(|b| blocks.contains(b)), "{written:?}");
        assert_eq!(written.len(), 4 * 3);
    }

    /// One step of a seeded CSP-legal event order over `d` stages, as the
    /// DES produces one.
    enum Event {
        Deliver(u32, TaskKind, SubnetId),
        Finish(u32, TaskKind, SubnetId),
        Pick(u32),
    }

    /// Draws events: forwards flow up, a last stage's forward turns into
    /// its backward there, backwards flow down, and a stage picks only
    /// while idle. The test applies each to its cores and reports back
    /// what a pick took.
    struct Events {
        rng: DetRng,
        d: u32,
        transit: Vec<(u32, TaskKind, SubnetId)>,
        running: Vec<Option<(TaskKind, SubnetId)>>,
        // Stages whose last pick was idle with nothing changed since.
        stuck: Vec<bool>,
        now: u64,
    }

    impl Events {
        fn new(seed: u64, d: u32) -> Self {
            Events {
                rng: DetRng::new(seed),
                d,
                transit: Vec::new(),
                running: vec![None; d as usize],
                stuck: vec![false; d as usize],
                now: 0,
            }
        }

        /// The next event, given which stages have tasks queued; `None`
        /// once nothing can happen.
        fn next(&mut self, queued: impl Fn(u32) -> bool) -> Option<Event> {
            let busy: Vec<u32> = (0..self.d)
                .filter(|&k| self.running[k as usize].is_some())
                .collect();
            let idle: Vec<u32> = (0..self.d)
                .filter(|&k| self.running[k as usize].is_none() && !self.stuck[k as usize])
                .filter(|&k| queued(k))
                .collect();
            let actions = self.transit.len() + busy.len() + idle.len();
            if actions == 0 {
                return None;
            }
            self.now += 1;
            let mut a = self.rng.index(actions);
            if a < self.transit.len() {
                let (k, kind, y) = self.transit.swap_remove(a);
                self.stuck[k as usize] = false;
                return Some(Event::Deliver(k, kind, y));
            }
            a -= self.transit.len();
            let Some(&k) = busy.get(a) else {
                return Some(Event::Pick(idle[a - busy.len()]));
            };
            let (kind, y) = self.running[k as usize].take().expect("busy");
            match kind {
                TaskKind::Forward if k + 1 < self.d => {
                    self.transit.push((k + 1, TaskKind::Forward, y))
                }
                TaskKind::Forward => self.transit.push((k, TaskKind::Backward, y)),
                TaskKind::Backward => {
                    self.stuck.fill(false);
                    if k > 0 {
                        self.transit.push((k - 1, TaskKind::Backward, y));
                    }
                }
            }
            Some(Event::Finish(k, kind, y))
        }

        fn injected(&mut self) {
            self.stuck[0] = false;
        }

        fn picked(&mut self, k: u32, task: Option<(TaskKind, SubnetId)>) {
            self.stuck[k as usize] = task.is_none();
            self.running[k as usize] = task;
        }
    }

    #[test]
    fn mirrored_marks_bind_the_writer_a_scan_of_every_completion_would() {
        // One D-stage core under per-subnet mirrored partitions, so a
        // shared block sits at different stages for different subnets,
        // driven through seeded deliveries and finishes as the DES drives
        // it. At every admitted forward the oracle is a scan: of every
        // backward finished, at any stage, by an earlier subnet whose
        // slice there writes a layer of the reader's slice, the latest by
        // `(at, writer)`, binding if it finished after the reader arrived.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 3);
        let d = 3u32;
        let profile = ProfiledSpace::new(&space, 192);
        let mut partitioner = Partitioner::new(profile, d, PartitionMode::Mirrored);
        let (mut moved, mut named) = (false, 0u32);
        for seed in 0..32u64 {
            let n = 24u64;
            let list = UniformSampler::new(&space, seed).take_subnets(n as usize);
            let parts: Vec<Partition> = list.iter().map(|s| partitioner.partition_for(s)).collect();
            moved |= parts.iter().any(|p| *p != parts[0]);
            let entry = |id: SubnetId| (list[id.0 as usize].clone(), parts[id.0 as usize].clone());
            // A forward's payload is when it arrived.
            let window = Injection::Window(6);
            let mut core = StageCore::<u64, ()>::new(0..d, d, &[3; 8], true, window, n);
            let mut finished: Vec<(u32, Mark)> = Vec::new();
            let mut events = Events::new(seed, d);
            loop {
                for y in core.injectable().map(SubnetId) {
                    core.register_through(y, entry);
                    core.deliver_forward(0, y, events.now);
                    events.injected();
                }
                let Some(event) = events.next(|k| core.depth(k) > 0) else {
                    break;
                };
                let now = events.now;
                match event {
                    Event::Deliver(k, TaskKind::Forward, y) => core.deliver_forward(k, y, now),
                    Event::Deliver(k, TaskKind::Backward, y) => core.deliver_backward(k, y, ()),
                    Event::Finish(k, TaskKind::Backward, y) => {
                        core.finished(k, y, Some((SpanId(now), now)));
                        let span = SpanId(now);
                        let mark = Mark {
                            writer: y.0,
                            span,
                            at: now,
                        };
                        finished.push((k, mark));
                    }
                    Event::Finish(..) => {}
                    Event::Pick(k) => {
                        let task = match core.pick(k) {
                            Pick::Backward { id, .. } => Some((TaskKind::Backward, id)),
                            Pick::Forward { id, payload } => {
                                let reader = &list[id.0 as usize];
                                let range = parts[id.0 as usize].stage_range(StageId(k));
                                let shares = |&&(j, m): &&(u32, Mark)| {
                                    let writer = &list[m.writer as usize];
                                    let wrote = parts[m.writer as usize].stage_range(StageId(j));
                                    let both =
                                        range.start.max(wrote.start)..range.end.min(wrote.end);
                                    m.writer < id.0 && reader.conflicts_within(both, writer)
                                };
                                let scan = finished.iter().filter(shares).map(|&(_, m)| m);
                                let scan = scan.max_by_key(|m| (m.at, m.writer));
                                let binds = |m: Option<Mark>| m.filter(|m| m.at > payload);
                                let got = binds(core.last_writer(k, id));
                                assert_eq!(got, binds(scan), "seed {seed}: {id} at stage {k}");
                                named += u32::from(got.is_some());
                                Some((TaskKind::Forward, id))
                            }
                            Pick::Idle { .. } => None,
                        };
                        events.picked(k, task);
                    }
                }
            }
            assert_eq!(core.done(0), n, "seed {seed} deadlocked");
        }
        assert!(moved, "mirroring must move some slice");
        assert!(named > 50, "the streams must share layers, named {named}");
    }

    /// What a pick took, comparably.
    fn seen(pick: Pick<(), ()>) -> String {
        match pick {
            Pick::Backward { id, preempted, .. } => format!("bwd {id} {preempted}"),
            Pick::Forward { id, .. } => format!("fwd {id}"),
            Pick::Idle { blocked } => format!("idle {blocked}"),
        }
    }

    #[test]
    fn one_core_of_d_stages_picks_as_d_cores_of_one_stage() {
        // The DES drives all D stages with one core, registering at
        // injection and retiring below stage 0's prefix; each worker
        // drives one stage with its own, registering lazily and retiring
        // below its own prefix. Fed the same seeded CSP-legal deliveries
        // and finishes, the two must pick identically at every step.
        let space = SearchSpace::uniform(Domain::Nlp, 6, 3);
        let choices = [3u32; 6];
        for seed in 0..48u64 {
            let mut rng = DetRng::new(seed);
            let d = 2 + rng.index(2) as u32;
            let n = 8 + rng.next_below(8);
            let list = UniformSampler::new(&space, seed).take_subnets(n as usize);
            let partition = Partition::balanced(&[1.0; 6], d);
            let entry = |id: SubnetId| (list[id.0 as usize].clone(), partition.clone());
            let window = Injection::Window(1 + rng.next_below(6));
            let mut all = StageCore::<(), ()>::new(0..d, d, &choices, true, window, n);
            let mut one: Vec<StageCore<(), ()>> = (0..d)
                .map(|k| StageCore::new(k..k + 1, d, &choices, true, window, n))
                .collect();
            let mut events = Events::new(seed, d);
            loop {
                let ids = all.injectable();
                assert_eq!(ids, one[0].injectable(), "seed {seed}");
                for y in ids.map(SubnetId) {
                    all.register_through(y, entry);
                    all.deliver_forward(0, y, ());
                    one[0].register_through(y, entry);
                    one[0].deliver_forward(0, y, ());
                    events.injected();
                }
                let Some(event) = events.next(|k| all.depth(k) > 0) else {
                    break;
                };
                let now = events.now;
                match event {
                    Event::Deliver(k, TaskKind::Forward, y) => {
                        all.deliver_forward(k, y, ());
                        one[k as usize].register_through(y, entry);
                        one[k as usize].deliver_forward(k, y, ());
                    }
                    Event::Deliver(k, TaskKind::Backward, y) => {
                        all.deliver_backward(k, y, ());
                        one[k as usize].deliver_backward(k, y, ());
                    }
                    Event::Finish(k, TaskKind::Backward, y) => {
                        let mark = Some((SpanId(now), now));
                        all.finished(k, y, mark);
                        one[k as usize].finished(k, y, mark);
                    }
                    Event::Finish(..) => {}
                    Event::Pick(k) => {
                        let (want, got) = (all.pick(k), one[k as usize].pick(k));
                        let task = match want {
                            Pick::Backward { id, .. } => Some((TaskKind::Backward, id)),
                            Pick::Forward { id, .. } => {
                                let writer = all.last_writer(k, id);
                                assert_eq!(writer, one[k as usize].last_writer(k, id));
                                Some((TaskKind::Forward, id))
                            }
                            Pick::Idle { .. } => None,
                        };
                        assert_eq!(seen(want), seen(got), "seed {seed}, stage {k}");
                        events.picked(k, task);
                    }
                }
            }
            for k in 0..d {
                assert_eq!(
                    (all.done(k), one[k as usize].done(k)),
                    (n, n),
                    "seed {seed}"
                );
            }
            let calls: u64 = one.iter().map(|c| c.scheduler_stats().calls).sum();
            assert_eq!(all.scheduler_stats().calls, calls, "seed {seed}");
        }
    }
}

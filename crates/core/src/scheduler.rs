//! The CSP scheduler — Algorithm 2 of the paper.
//!
//! `SCHEDULE(L_q, L_f, L_SN, K)` scans the forward-task queue in order and
//! returns the first task whose causal dependencies are all resolved: a
//! forward of subnet `y` at stage `K` is admissible iff **no unfinished
//! subnet `w < y` activates any of the layers `y` uses at stage `K`**.
//! Backward tasks always take priority (they resolve dependencies,
//! enlarging the scheduling search space) and need no check of their own:
//! `y`'s backward at `K` runs after `y`'s forward at `K`, which the check
//! already ordered after every conflicting earlier write.
//!
//! # Soundness refinement over the paper's Algorithm 2
//!
//! With layer mirroring, a layer shared by subnets `w < y` may live at
//! stage `s_w` in `w`'s partition and stage `K != s_w` in `y`'s. `w`
//! writes it in its backward at `s_w`, so checking only stage `K`'s
//! finished list could admit `y`'s read before `w`'s write. We therefore
//! check the finished list of `s_w`, the stage that writes the layer; with
//! a static partition (`s_w == K` always) this reduces exactly to the
//! paper's local check. (`min(K, s_w)` would do while a backward at `K`
//! could only finish after the one at every later stage. A backward that
//! hands its gradient down before its weight update, as both engines run
//! it, breaks that order: the stage below can finish first.)
//!
//! # The per-layer writer index
//!
//! The check above only ever asks one question of the table: *which
//! in-flight subnets below `y` activate this layer, and at which stage do
//! they write it?* [`SubnetTable`] therefore keeps, per `(block, choice)`,
//! the in-flight subnets activating it — ascending by sequence ID, each
//! with the stage owning that block in its own partition — maintained on
//! [`SubnetTable::insert`] and [`SubnetTable::retire_below`]. An
//! admission check walks `layers in the slice x in-flight sharers of that
//! layer` entries instead of `in-flight subnets x slice`. Invariants:
//!
//! * a subnet is in the list of `(b, choices[b])` for every block `b` it
//!   has, from `insert` until `retire_below` passes its ID, and in no
//!   other list;
//! * every list is strictly ascending by sequence ID;
//! * the recorded owner stage is `partition.stage_of_block(b)` of the
//!   subnet's *own* partition (`None` when no stage covers the block).
//!
//! IDs enter the table ascending and leave it ascending, so each list is a
//! FIFO: all lists live in one flat array indexed by `block x choice`, an
//! insert appends and a retirement advances the list's head. Each list
//! stays one contiguous slice for the admission scan: the dead prefix a
//! retirement leaves is dropped in place once it is as long as the live
//! part, which moves every sharer at most once per retirement that paid
//! for it, and holds a list's buffer under twice its largest occupancy —
//! once the table is warm neither operation touches the heap. (An ID below
//! one already tracked is still placed in order, by shifting that one
//! list.)
//!
//! Like the scan it replaces, the index keys on the raw choice value: two
//! subnets that both *skip* a block are treated as sharing it.
//!
//! The same lists say whom a backward can release. Subnet `w`'s backward
//! at stage `j` adds `w` to `finished[j]`, which a check at any stage
//! reads only for a layer `w` writes at `j`. So beyond stage `j` it can
//! change a decision only at a stage where a later in-flight sharer of a
//! layer in `w`'s stage-`j` slice owns that layer: `SubnetTable::readers`
//! lists those stages, and the DES wakes nothing else. Both engines reach
//! the scheduler through the stage core (`crate::stage`).

use crate::partition::Partition;
use crate::task::{FinishedSet, StageId};
use naspipe_supernet::subnet::{Subnet, SubnetId, SKIP_CHOICE};
use std::collections::VecDeque;
use std::fmt;

/// The paper's `|L_q|` ("usually less than 30", §3.2): how many subnets
/// may be in flight at once. The default of both the DES's
/// `PipelineConfig::max_queue` and the threaded runtime's `RunSpec::window`.
pub const DEFAULT_WINDOW: u64 = 30;

/// A sequence ID was registered in a [`SubnetTable`] twice. Admitting two
/// in-flight subnets under one ID would let the scheduler check the wrong
/// architecture's layers, so registration refuses rather than overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateSubnet(pub SubnetId);

impl fmt::Display for DuplicateSubnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subnet {} is already registered in-flight", self.0)
    }
}

impl std::error::Error for DuplicateSubnet {}

/// One in-flight activation of a layer: who, and the stage that writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sharer {
    /// The subnet activating the layer.
    id: SubnetId,
    /// The stage owning the layer's block in `id`'s own partition — where
    /// `id`'s backward writes it. `None` if no stage covers the block.
    owner: Option<StageId>,
}

/// The runtime's view of in-flight subnets (`L_SN`): each entry pairs the
/// subnet's layer choices with the partition it executes under.
///
/// Entries live in a dense window of slots offset by the lowest tracked
/// ID, so storage is proportional to the *span* of in-flight IDs — the
/// scheduling window in practice — and a lookup is one indexed load.
#[derive(Debug, Clone, Default)]
pub struct SubnetTable {
    // ID of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<SubnetEntry>>,
    len: usize,
    // `layers[block * stride + choice slot]`: that layer's sharers (see
    // the module docs).
    layers: Vec<Lane>,
    // Choice slots per block in `layers`; grows to the largest seen.
    stride: usize,
}

/// One layer's in-flight sharers, a FIFO ascending by ID: `sharers[head..]`
/// are live, the prefix before `head` has retired.
#[derive(Debug, Clone, Default)]
struct Lane {
    sharers: Vec<Sharer>,
    head: usize,
}

impl Lane {
    fn live(&self) -> &[Sharer] {
        &self.sharers[self.head..]
    }

    /// Appends `sharer`, or places it in order if a later ID is tracked.
    fn push(&mut self, sharer: Sharer) {
        match self.sharers.last() {
            Some(last) if last.id > sharer.id => {
                let at = self.head + self.live().partition_point(|s| s.id < sharer.id);
                self.sharers.insert(at, sharer);
            }
            _ => self.sharers.push(sharer),
        }
    }

    /// Retires the head, dropping the dead prefix once it is as long as
    /// the live part.
    fn pop(&mut self) -> Option<Sharer> {
        let head = *self.sharers.get(self.head)?;
        self.head += 1;
        if 2 * self.head >= self.sharers.len() {
            self.sharers.drain(..self.head);
            self.head = 0;
        }
        Some(head)
    }
}

/// One in-flight subnet.
#[derive(Debug, Clone)]
pub struct SubnetEntry {
    /// The architecture.
    pub subnet: Subnet,
    /// The stage partition this subnet executes with.
    pub partition: Partition,
}

/// Index of `choice` in a block's list of sharer lists: slot 0 is the
/// skip choice, candidate `c` is slot `c + 1`.
fn choice_slot(choice: u32) -> usize {
    if choice == SKIP_CHOICE {
        0
    } else {
        choice as usize + 1
    }
}

impl SubnetTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a retrieved subnet and its partition.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateSubnet`] (and leaves the existing entry
    /// untouched) if the sequence ID is already registered.
    pub fn insert(&mut self, subnet: Subnet, partition: Partition) -> Result<(), DuplicateSubnet> {
        let id = subnet.seq_id();
        if self.get(id).is_some() {
            return Err(DuplicateSubnet(id));
        }
        if self.slots.is_empty() {
            self.base = id.0;
        }
        while id.0 < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let slot = (id.0 - self.base) as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let choices = subnet.choices();
        let widest = choices.iter().map(|&c| choice_slot(c) + 1).max();
        self.reserve(choices.len(), widest.unwrap_or(0));
        for ((b, &choice), owner) in choices.iter().enumerate().zip(partition.owners()) {
            self.layers[b * self.stride + choice_slot(choice)].push(Sharer { id, owner });
        }
        self.slots[slot] = Some(SubnetEntry { subnet, partition });
        self.len += 1;
        Ok(())
    }

    /// Grows `layers` to cover `blocks` blocks of `stride` choice slots,
    /// moving every list to its new index (warm-up only: a stream soon
    /// shows every block and its widest choice).
    fn reserve(&mut self, blocks: usize, stride: usize) {
        let old_blocks = self.layers.len().checked_div(self.stride).unwrap_or(0);
        if blocks <= old_blocks && stride <= self.stride {
            return;
        }
        let (blocks, stride) = (blocks.max(old_blocks), stride.max(self.stride));
        let mut layers = Vec::with_capacity(blocks * stride);
        layers.resize_with(blocks * stride, Lane::default);
        for (i, list) in self.layers.drain(..).enumerate() {
            layers[i / self.stride * stride + i % self.stride] = list;
        }
        (self.layers, self.stride) = (layers, stride);
    }

    /// Looks up an in-flight subnet.
    #[inline]
    pub fn get(&self, id: SubnetId) -> Option<&SubnetEntry> {
        let slot = id.0.checked_sub(self.base)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    /// In-flight subnets whose block `block` carries `choice`, ascending
    /// by sequence ID (the per-layer writer index of the module docs).
    #[inline]
    fn sharers(&self, block: usize, choice: u32) -> &[Sharer] {
        let c = choice_slot(choice);
        match self.layers.get(block * self.stride + c) {
            Some(lane) if c < self.stride => lane.live(),
            _ => &[],
        }
    }

    /// The stages whose admission decisions `writer`'s backward at `stage`
    /// can change, pushed onto `out` (unordered, with repeats): where each
    /// later in-flight sharer of a layer in `writer`'s stage-`stage` slice
    /// owns that layer. See the module docs; nothing is pushed for an
    /// untracked `writer`.
    pub(crate) fn readers(&self, writer: SubnetId, stage: StageId, out: &mut Vec<u32>) {
        let Some(entry) = self.get(writer) else {
            return;
        };
        let choices = entry.subnet.choices();
        for b in entry.partition.stage_range(stage) {
            let later = self
                .sharers(b, choices[b])
                .iter()
                .skip_while(|s| s.id <= writer);
            out.extend(later.filter_map(|s| s.owner).map(|k| k.0));
        }
    }

    /// Drops subnets below `bound` (they finished everywhere and can no
    /// longer participate in dependency checks).
    pub fn retire_below(&mut self, bound: SubnetId) {
        while self.base < bound.0 {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            let id = SubnetId(self.base);
            self.base += 1;
            let Some(entry) = slot else { continue };
            self.len -= 1;
            for (b, &choice) in entry.subnet.choices().iter().enumerate() {
                let lane = &mut self.layers[b * self.stride + choice_slot(choice)];
                // Retirement proceeds in ID order and lists ascend, so the
                // retiree heads its lists.
                let head = lane.pop();
                debug_assert_eq!(head.map(|s| s.id), Some(id));
            }
        }
    }

    /// Number of tracked subnets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Statistics of scheduler invocations (for the overhead bench; the paper
/// reports <0.01 s per call against second-scale subnet executions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of `schedule()` calls.
    pub calls: u64,
    /// Total queue entries scanned.
    pub scanned: u64,
    /// Calls that found an admissible task.
    pub hits: u64,
}

/// The CSP scheduling policy.
#[derive(Debug, Clone, Default)]
pub struct CspScheduler {
    stats: SchedulerStats,
}

impl CspScheduler {
    /// Creates a scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invocation statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Algorithm 2: returns `(qidx, qval)` of the admissible forward task
    /// with the **lowest sequence ID** in `queue`, or `None` if every
    /// queued task is causally blocked.
    ///
    /// Lower IDs get priority (§3.1): earlier subnets head the causal
    /// dependency chains, so finishing them soonest unblocks the most
    /// downstream work.
    ///
    /// `queue` holds the queued subnet IDs; `finished[k]` is stage `k`'s
    /// `L_f`; `table` is `L_SN`; `stage` is `K`. A queue kept ascending by
    /// ID (as the engine keeps its ready queues) is scanned in place; any
    /// other order is still answered correctly, without allocating, by
    /// selecting the next-lowest ID per step.
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub fn schedule(
        &mut self,
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> Option<(usize, SubnetId)> {
        self.schedule_assuming(queue, finished, table, stage, None)
    }

    /// [`schedule`](Self::schedule) with `assumed` treated as already
    /// finished at `stage` — the predictor's "hypothetically finish the
    /// received backward" (Algorithm 3 lines 4–9) as an overlay instead
    /// of a copy of every finished list.
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub(crate) fn schedule_assuming(
        &mut self,
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
        assumed: Option<SubnetId>,
    ) -> Option<(usize, SubnetId)> {
        self.stats.calls += 1;
        let ascending = queue.windows(2).all(|w| w[0] < w[1]);
        let mut floor = None;
        for step in 0..queue.len() {
            let (qidx, qval) = if ascending {
                (step, queue[step])
            } else {
                // The lowest ID above the last one tried.
                queue
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, id)| floor.is_none_or(|f| id > f))
                    .min_by_key(|&(_, id)| id)?
            };
            floor = Some(qval);
            self.stats.scanned += 1;
            if Self::admissible_assuming(qval, finished, table, stage, assumed) {
                self.stats.hits += 1;
                return Some((qidx, qval));
            }
        }
        None
    }

    /// The dependency-preservation check for one candidate (Algorithm 2
    /// lines 3–12, with the cross-stage soundness refinement described in
    /// the module docs): admissible iff every earlier subnet sharing a
    /// layer of `candidate`'s stage-`stage` slice has already written that
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub fn admissible(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> bool {
        Self::admissible_assuming(candidate, finished, table, stage, None)
    }

    fn admissible_assuming(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
        assumed: Option<SubnetId>,
    ) -> bool {
        let Some(entry) = table.get(candidate) else {
            // Unknown subnets cannot be checked; treat as blocked.
            return false;
        };
        let k = stage.0 as usize;
        assert!(k < finished.len(), "stage {stage} out of range");
        let choices = entry.subnet.choices();
        for b in entry.partition.stage_range(stage) {
            for sharer in table.sharers(b, choices[b]) {
                if sharer.id >= candidate {
                    break;
                }
                // `sharer`'s write happens in its backward at the stage
                // owning block `b` in *its* partition.
                let need = sharer.owner.map_or(k, |s| s.0 as usize);
                let written =
                    finished[need].contains(sharer.id) || (need == k && assumed == Some(sharer.id));
                if !written {
                    return false;
                }
            }
        }
        true
    }

    /// The lowest-ID unfinished-at-`stage` subnet below `candidate` that
    /// activates a (non-skipped) layer of `candidate`'s stage-`stage`
    /// slice — the `precedence` of a pending backward (Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub(crate) fn first_blocker(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> Option<SubnetId> {
        let entry = table.get(candidate)?;
        let done = &finished[stage.0 as usize];
        let choices = entry.subnet.choices();
        entry
            .partition
            .stage_range(stage)
            .filter(|&b| choices[b] != SKIP_CHOICE)
            .filter_map(|b| {
                table
                    .sharers(b, choices[b])
                    .iter()
                    .map(|s| s.id)
                    .take_while(|&id| id < candidate)
                    .find(|&id| !done.contains(id))
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    /// Builds a table of subnets over 4 blocks split into 2 stages of 2
    /// blocks each.
    fn table(choice_rows: &[&[u32]]) -> SubnetTable {
        let mut t = SubnetTable::new();
        for (i, row) in choice_rows.iter().enumerate() {
            t.insert(
                Subnet::new(SubnetId(i as u64), row.to_vec()),
                Partition::from_boundaries(vec![0, 2, 4]),
            )
            .expect("fresh sequence IDs");
        }
        t
    }

    /// Tracked subnets with sequence ID strictly below `bound`, ascending.
    fn entries_below(
        table: &SubnetTable,
        bound: SubnetId,
    ) -> impl Iterator<Item = (SubnetId, &SubnetEntry)> {
        let slots = (table.base..).map(SubnetId).zip(&table.slots);
        let entries = slots.filter_map(|(id, e)| Some((id, e.as_ref()?)));
        entries.take_while(move |&(id, _)| id < bound)
    }

    fn fresh(stages: usize) -> Vec<FinishedSet> {
        vec![FinishedSet::new(); stages]
    }

    /// The scan the writer index replaced, kept as the oracle the
    /// differential tests compare against: walk every tracked subnet
    /// below the candidate and every block of the candidate's slice.
    fn reference_admissible(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> bool {
        let Some(entry) = table.get(candidate) else {
            return false;
        };
        let k = stage.0 as usize;
        let range = entry.partition.stage_range(stage);
        for (wid, earlier) in entries_below(table, candidate) {
            for b in range.clone() {
                if b >= earlier.subnet.num_layers()
                    || entry.subnet.choices()[b] != earlier.subnet.choices()[b]
                {
                    continue;
                }
                let owner = earlier
                    .partition
                    .stage_of_block(b)
                    .map(|s| s.0 as usize)
                    .unwrap_or(k);
                if !finished[owner].contains(wid) {
                    return false;
                }
            }
        }
        true
    }

    /// Reference `schedule`: sort a copy of the queue, scan it.
    fn reference_schedule(
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> Option<(usize, SubnetId)> {
        let mut order: Vec<(usize, SubnetId)> = queue.iter().copied().enumerate().collect();
        order.sort_by_key(|&(_, id)| id);
        order
            .into_iter()
            .find(|&(_, id)| reference_admissible(id, finished, table, stage))
    }

    /// Reference `first_blocker`: the first tracked subnet below the
    /// candidate, unfinished at `stage`, that conflicts within the slice.
    fn reference_first_blocker(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> Option<SubnetId> {
        let e = table.get(candidate)?;
        entries_below(table, candidate)
            .find(|(wid, w)| {
                !finished[stage.0 as usize].contains(*wid)
                    && e.subnet
                        .conflicts_within(e.partition.stage_range(stage), &w.subnet)
            })
            .map(|(wid, _)| wid)
    }

    #[test]
    fn empty_queue_schedules_nothing() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0]]);
        assert_eq!(s.schedule(&[], &fresh(2), &t, StageId(0)), None);
        assert_eq!(s.stats().calls, 1);
        assert_eq!(s.stats().hits, 0);
    }

    #[test]
    fn lowest_id_is_always_admissible() {
        let mut s = CspScheduler::new();
        // SN0 and SN1 fully conflict.
        let t = table(&[&[0, 0, 0, 0], &[0, 0, 0, 0]]);
        let q = vec![SubnetId(0), SubnetId(1)];
        let got = s.schedule(&q, &fresh(2), &t, StageId(0));
        assert_eq!(got, Some((0, SubnetId(0))));
    }

    #[test]
    fn conflicting_later_subnet_is_blocked() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]); // share block 0
        let q = vec![SubnetId(1)];
        // SN0 unfinished and shares stage-0 block 0 -> SN1 blocked at stage 0.
        assert_eq!(s.schedule(&q, &fresh(2), &t, StageId(0)), None);
        // At stage 1 (blocks 2..4) there is no sharing -> admissible.
        assert_eq!(
            s.schedule(&q, &fresh(2), &t, StageId(1)),
            Some((0, SubnetId(1)))
        );
    }

    #[test]
    fn finishing_the_blocker_unblocks() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]);
        let mut f = fresh(2);
        f[0].insert(SubnetId(0));
        assert_eq!(
            s.schedule(&[SubnetId(1)], &f, &t, StageId(0)),
            Some((0, SubnetId(1)))
        );
    }

    #[test]
    fn scheduler_skips_blocked_and_takes_independent() {
        let mut s = CspScheduler::new();
        // SN1 conflicts with SN0 at stage 0; SN2 is disjoint from both.
        let t = table(&[&[0, 0, 0, 0], &[0, 1, 1, 1], &[2, 2, 2, 2]]);
        let q = vec![SubnetId(1), SubnetId(2)];
        // SN0 is unfinished and not in the queue (already running).
        let got = s.schedule(&q, &fresh(2), &t, StageId(0));
        assert_eq!(
            got,
            Some((1, SubnetId(2))),
            "should leapfrog the blocked SN1"
        );
    }

    #[test]
    fn dependency_is_stage_local() {
        // SN1 shares only block 3 with SN0: blocked at stage 1, free at 0.
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[9, 9, 9, 0]]);
        let q = vec![SubnetId(1)];
        assert!(s.schedule(&q, &fresh(2), &t, StageId(0)).is_some());
        assert!(s.schedule(&q, &fresh(2), &t, StageId(1)).is_none());
    }

    #[test]
    fn mirrored_partitions_wait_for_owner_stage() {
        // SN0's partition places block 2 at stage 0; SN1's places it at
        // stage 1. SN1's stage-1 read of the shared block must wait for
        // SN0's *stage-0* backward even once SN0's stage-1 backward is
        // done (the write happens at stage 0 in SN0's partition).
        let mut t = SubnetTable::new();
        t.insert(
            Subnet::new(SubnetId(0), vec![0, 0, 7, 0]),
            Partition::from_boundaries(vec![0, 3, 4]), // block 2 -> stage 0
        )
        .unwrap();
        t.insert(
            Subnet::new(SubnetId(1), vec![1, 1, 7, 1]),
            Partition::from_boundaries(vec![0, 2, 4]), // block 2 -> stage 1
        )
        .unwrap();
        let mut f = fresh(2);
        f[1].insert(SubnetId(0)); // SN0 backward done at stage 1 only
        assert!(
            !CspScheduler::admissible(SubnetId(1), &f, &t, StageId(1)),
            "read must wait for the owner stage's write"
        );
        f[0].insert(SubnetId(0));
        assert!(CspScheduler::admissible(SubnetId(1), &f, &t, StageId(1)));
        // The converse: SN1 owns block 2 at stage 1 and SN2 reads it at
        // stage 0. SN1's stage-0 backward can finish before its stage-1
        // update lands, so only the stage-1 finish releases the read.
        t.insert(
            Subnet::new(SubnetId(2), vec![2, 2, 7, 2]),
            Partition::from_boundaries(vec![0, 3, 4]), // block 2 -> stage 0
        )
        .unwrap();
        f[0].insert(SubnetId(1));
        assert!(!CspScheduler::admissible(SubnetId(2), &f, &t, StageId(0)));
        f[1].insert(SubnetId(1));
        assert!(CspScheduler::admissible(SubnetId(2), &f, &t, StageId(0)));
    }

    #[test]
    fn admissible_unknown_subnet_is_blocked() {
        let t = table(&[]);
        assert!(!CspScheduler::admissible(
            SubnetId(7),
            &fresh(2),
            &t,
            StageId(0)
        ));
    }

    #[test]
    fn retire_below_drops_entries() {
        let mut t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1], &[2, 2, 2, 2]]);
        assert_eq!(t.len(), 3);
        t.retire_below(SubnetId(2));
        assert_eq!(t.len(), 1);
        assert!(t.get(SubnetId(0)).is_none());
        assert!(t.get(SubnetId(2)).is_some());
        assert!(!t.is_empty());
    }

    #[test]
    fn entries_below_is_ascending_and_bounded() {
        let t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1], &[2, 2, 2, 2]]);
        let ids: Vec<u64> = entries_below(&t, SubnetId(2)).map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn double_insert_is_refused_and_keeps_the_original() {
        let mut t = table(&[&[0, 0, 0, 0]]);
        let err = t
            .insert(
                Subnet::new(SubnetId(0), vec![1, 1, 1, 1]),
                Partition::from_boundaries(vec![0, 2, 4]),
            )
            .unwrap_err();
        assert_eq!(err, DuplicateSubnet(SubnetId(0)));
        assert!(err.to_string().contains("SN0"));
        // The original registration survives the refused overwrite.
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(SubnetId(0)).unwrap().subnet.choices(), &[0, 0, 0, 0]);
    }

    #[test]
    fn schedule_refuses_mirrored_forward_until_owner_stage_write() {
        // Satellite of mirrored_partitions_wait_for_owner_stage, at the
        // schedule() level: SN0 (w) owns shared block 2 at stage
        // s_w = 0 < K = 1; SN1 (y) reads it at stage K = 1. SN1's forward
        // at K must be refused until SN0's backward completes at s_w,
        // even though SN0's stage-K backward finished long before.
        let mut t = SubnetTable::new();
        t.insert(
            Subnet::new(SubnetId(0), vec![0, 0, 7, 0]),
            Partition::from_boundaries(vec![0, 3, 4]), // block 2 -> stage 0
        )
        .unwrap();
        t.insert(
            Subnet::new(SubnetId(1), vec![1, 1, 7, 1]),
            Partition::from_boundaries(vec![0, 2, 4]), // block 2 -> stage 1
        )
        .unwrap();
        let mut s = CspScheduler::new();
        let q = vec![SubnetId(1)];
        let mut f = fresh(2);
        f[1].insert(SubnetId(0)); // w's backward done at K, not yet at s_w
        assert_eq!(
            s.schedule(&q, &f, &t, StageId(1)),
            None,
            "y's forward must wait for w's backward at s_w, not just at K"
        );
        f[0].insert(SubnetId(0)); // w's backward reaches s_w: layer written
        assert_eq!(s.schedule(&q, &f, &t, StageId(1)), Some((0, SubnetId(1))));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 0, 0, 0]]);
        let q = vec![SubnetId(1)];
        s.schedule(&q, &fresh(2), &t, StageId(0));
        s.schedule(&q, &fresh(2), &t, StageId(0));
        let st = s.stats();
        assert_eq!(st.calls, 2);
        assert_eq!(st.scanned, 2);
        assert_eq!(st.hits, 0);
    }

    #[test]
    fn unsorted_queue_still_yields_the_lowest_admissible_id() {
        let mut s = CspScheduler::new();
        // SN1 conflicts with the unfinished SN0; SN2 and SN3 are free.
        let t = table(&[&[0, 0, 0, 0], &[0, 1, 1, 1], &[2, 2, 2, 2], &[3, 3, 3, 3]]);
        let q = vec![SubnetId(3), SubnetId(1), SubnetId(2)];
        assert_eq!(
            s.schedule(&q, &fresh(2), &t, StageId(0)),
            Some((2, SubnetId(2)))
        );
        assert_eq!(s.stats().scanned, 2, "tried SN1, then SN2");
    }

    #[test]
    fn assumed_finish_is_an_overlay_on_one_stage() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]);
        let q = vec![SubnetId(1)];
        let f = fresh(2);
        assert_eq!(s.schedule(&q, &f, &t, StageId(0)), None);
        assert_eq!(
            s.schedule_assuming(&q, &f, &t, StageId(0), Some(SubnetId(0))),
            Some((0, SubnetId(1)))
        );
        assert_eq!(f, fresh(2), "the finished lists are not touched");
    }

    #[test]
    fn index_tracks_insert_and_retire() {
        let mut t = table(&[&[0, 1, 0, 0], &[0, 0, 0, 0], &[0, 1, 1, 1]]);
        let ids = |t: &SubnetTable, b, c| -> Vec<u64> {
            t.sharers(b, c).iter().map(|s| s.id.0).collect()
        };
        assert_eq!(ids(&t, 0, 0), vec![0, 1, 2]);
        assert_eq!(ids(&t, 1, 1), vec![0, 2]);
        assert_eq!(ids(&t, 1, 7), Vec::<u64>::new());
        assert_eq!(ids(&t, 9, 0), Vec::<u64>::new());
        assert_eq!(t.sharers(2, 0)[0].owner, Some(StageId(1)));
        t.retire_below(SubnetId(1));
        assert_eq!(ids(&t, 0, 0), vec![1, 2]);
        assert_eq!(ids(&t, 1, 1), vec![2]);
        // An ID below the current base re-opens the window at the front.
        t.insert(
            Subnet::new(SubnetId(0), vec![0, 1, 2, 3]),
            Partition::from_boundaries(vec![0, 2, 4]),
        )
        .unwrap();
        assert_eq!(ids(&t, 0, 0), vec![0, 1, 2]);
        assert_eq!(t.len(), 3);
        t.retire_below(SubnetId(9));
        assert!(t.is_empty());
        assert_eq!(ids(&t, 0, 0), Vec::<u64>::new());
    }

    #[test]
    fn readers_are_the_later_sharers_owner_stages() {
        // Three stages. SN0 writes blocks 0-1 at stage 0. SN1 reads block
        // 0 at stage 1; SN2 reads block 1 at stage 2; SN3 and SN4 share
        // nothing with SN0's stage-0 slice.
        let mut t = SubnetTable::new();
        for (id, row, bounds) in [
            (0, vec![0, 0, 0, 0], vec![0, 2, 3, 4]),
            (1, vec![0, 1, 1, 1], vec![0, 0, 3, 4]),
            (2, vec![2, 0, 2, 2], vec![0, 1, 1, 4]),
            (3, vec![3, 3, 0, 3], vec![0, 1, 2, 4]),
            (4, vec![4, 4, 0, 4], vec![0, 3, 3, 4]),
        ] {
            t.insert(
                Subnet::new(SubnetId(id), row),
                Partition::from_boundaries(bounds),
            )
            .unwrap();
        }
        let readers = |w: u64, k: u32| {
            let mut out = Vec::new();
            t.readers(SubnetId(w), StageId(k), &mut out);
            out.sort_unstable();
            out
        };
        assert_eq!(readers(0, 0), [1, 2]);
        // SN0 writes block 2 at stage 1; SN3 reads it at stage 2, and SN4
        // below the writer, at stage 0.
        assert_eq!(readers(0, 1), [0, 2]);
        assert_eq!(readers(0, 2), Vec::<u32>::new());
        // SN1's block 0 is shared with SN0 only: an earlier sharer waits
        // on nobody's write.
        assert_eq!(readers(1, 1), Vec::<u32>::new());
        assert_eq!(readers(9, 0), Vec::<u32>::new(), "untracked writer");
    }

    mod differential {
        use super::*;
        use naspipe_supernet::rng::DetRng;
        use naspipe_supernet::subnet::SKIP_CHOICE;
        use proptest::prelude::*;

        /// A random non-decreasing `stages + 1`-boundary partition of
        /// `blocks` blocks (so the same block lands on different stages
        /// for different subnets: `s_w != K`).
        fn random_partition(rng: &mut DetRng, blocks: usize, stages: usize) -> Partition {
            let mut cuts: Vec<usize> = (1..stages).map(|_| rng.index(blocks + 1)).collect();
            cuts.sort_unstable();
            let mut bounds = vec![0];
            bounds.extend(cuts);
            bounds.push(blocks);
            Partition::from_boundaries(bounds)
        }

        /// The writer index before it went flat, kept as the reference
        /// model of its lists: one sorted `Vec` per `[block][choice slot]`,
        /// placed by `partition_point` and popped by `remove(0)`.
        #[derive(Default)]
        struct NestedIndex {
            sharers: Vec<Vec<Vec<Sharer>>>,
        }

        impl NestedIndex {
            fn insert(&mut self, subnet: &Subnet, partition: &Partition) {
                let id = subnet.seq_id();
                if self.sharers.len() < subnet.num_layers() {
                    self.sharers.resize_with(subnet.num_layers(), Vec::new);
                }
                for (b, &choice) in subnet.choices().iter().enumerate() {
                    let lists = &mut self.sharers[b];
                    let c = choice_slot(choice);
                    if lists.len() <= c {
                        lists.resize_with(c + 1, Vec::new);
                    }
                    let at = lists[c].partition_point(|s| s.id < id);
                    let owner = partition.stage_of_block(b);
                    lists[c].insert(at, Sharer { id, owner });
                }
            }

            fn retire(&mut self, subnet: &Subnet) {
                for (b, &choice) in subnet.choices().iter().enumerate() {
                    self.sharers[b][choice_slot(choice)].remove(0);
                }
            }

            fn list(&self, block: usize, slot: usize) -> &[Sharer] {
                self.sharers
                    .get(block)
                    .and_then(|lists| lists.get(slot))
                    .map_or(&[], Vec::as_slice)
            }

            /// Every list of either index holds the same sharers.
            fn matches(&self, table: &SubnetTable) -> Result<(), String> {
                let blocks = self
                    .sharers
                    .len()
                    .max(table.layers.len() / table.stride.max(1));
                let slots = self.sharers.iter().map(Vec::len).max().unwrap_or(0);
                for b in 0..blocks {
                    for slot in 0..slots.max(table.stride) {
                        let flat = (slot < table.stride)
                            .then(|| table.layers.get(b * table.stride + slot))
                            .flatten()
                            .map_or(&[][..], Lane::live);
                        if flat != self.list(b, slot) {
                            return Err(format!(
                                "layer ({b}, slot {slot}): flat {flat:?} vs nested {:?}",
                                self.list(b, slot)
                            ));
                        }
                    }
                }
                Ok(())
            }
        }

        /// Reference `readers`: every tracked subnet above the writer
        /// sharing a block of its slice, at that block's owner stage in the
        /// reader's own partition.
        fn reference_readers(writer: SubnetId, table: &SubnetTable, stage: StageId) -> Vec<u32> {
            let Some(w) = table.get(writer) else {
                return Vec::new();
            };
            let mut out: Vec<u32> = entries_below(table, SubnetId(u64::MAX))
                .filter(|&(id, _)| id > writer)
                .flat_map(|(_, y)| {
                    w.partition
                        .stage_range(stage)
                        .filter(|&b| y.subnet.choices().get(b) == Some(&w.subnet.choices()[b]))
                        .filter_map(|b| y.partition.stage_of_block(b))
                        .map(|k| k.0)
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }

        /// Checks every indexed answer against its reference on the
        /// current `(table, finished)` state.
        fn compare(
            rng: &mut DetRng,
            table: &SubnetTable,
            finished: &[FinishedSet],
            next_id: u64,
        ) -> Result<(), String> {
            let live: Vec<SubnetId> = (0..next_id + 1)
                .map(SubnetId)
                .filter(|&id| table.get(id).is_some() || id.0 == next_id)
                .collect();
            for k in 0..finished.len() {
                let stage = StageId(k as u32);
                for &id in &live {
                    let mut got = Vec::new();
                    table.readers(id, stage, &mut got);
                    got.sort_unstable();
                    got.dedup();
                    let want = reference_readers(id, table, stage);
                    if got != want {
                        return Err(format!("readers({id}, {stage}) = {got:?} vs {want:?}"));
                    }
                    let got = CspScheduler::admissible(id, finished, table, stage);
                    let want = reference_admissible(id, finished, table, stage);
                    if got != want {
                        return Err(format!(
                            "admissible({id}, {stage}) = {got}, scan says {want}"
                        ));
                    }
                    let got = CspScheduler::first_blocker(id, finished, table, stage);
                    let want = reference_first_blocker(id, finished, table, stage);
                    if got != want {
                        return Err(format!(
                            "first_blocker({id}, {stage}) = {got:?} vs {want:?}"
                        ));
                    }
                }
                // A random sub-queue, once ascending and once shuffled.
                let mut queue: Vec<SubnetId> =
                    live.iter().copied().filter(|_| rng.index(3) > 0).collect();
                for shuffled in [false, true] {
                    if shuffled {
                        rng.shuffle(&mut queue);
                    }
                    let got = CspScheduler::new().schedule(&queue, finished, table, stage);
                    let want = reference_schedule(&queue, finished, table, stage);
                    if got != want {
                        return Err(format!(
                            "schedule({queue:?}, {stage}) = {got:?} vs {want:?}"
                        ));
                    }
                }
                // The overlay equals a real insert into a copy.
                if let Some(&assumed) = live.first() {
                    if !finished[k].contains(assumed) {
                        let mut copy = finished.to_vec();
                        copy[k].insert(assumed);
                        let got = CspScheduler::new().schedule_assuming(
                            &queue,
                            finished,
                            table,
                            stage,
                            Some(assumed),
                        );
                        let want = reference_schedule(&queue, &copy, table, stage);
                        if got != want {
                            return Err(format!(
                                "schedule_assuming({assumed}, {stage}) = {got:?} vs {want:?}"
                            ));
                        }
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The writer index answers exactly like the scan it replaced
            /// over random tables (ID holes, skipped blocks, short
            /// subnets), mirrored partitions, finished sets with holes,
            /// and retire/insert interleavings.
            #[test]
            fn indexed_answers_equal_the_reference_scan(
                seed in 0u64..u64::MAX,
                blocks in 2usize..9,
                choices in 1u64..4,
                stages in 1usize..5,
                ops in 8usize..40,
            ) {
                let mut rng = DetRng::new(seed);
                let mut table = SubnetTable::new();
                let mut nested = NestedIndex::default();
                let mut finished = vec![FinishedSet::new(); stages];
                let mut next_id = 0u64;
                for _ in 0..ops {
                    match rng.index(6) {
                        // Register a subnet (sometimes leaving an ID hole,
                        // sometimes filling one out of order, sometimes
                        // shorter than the space).
                        0..=2 => {
                            let hole = SubnetId(rng.next_below(next_id + 1));
                            let id = if rng.index(6) == 0 && hole.0 < next_id && table.get(hole).is_none() {
                                hole
                            } else {
                                next_id += rng.next_below(2) + 1;
                                SubnetId(next_id - 1)
                            };
                            let len = if rng.index(5) == 0 { 1 + rng.index(blocks) } else { blocks };
                            let row: Vec<u32> = (0..len)
                                .map(|_| {
                                    if rng.index(7) == 0 {
                                        SKIP_CHOICE
                                    } else {
                                        rng.next_below(choices) as u32
                                    }
                                })
                                .collect();
                            // A partition over `len` blocks keeps the
                            // candidate's own slices inside its choices.
                            let partition = random_partition(&mut rng, len, stages);
                            let subnet = Subnet::new(id, row);
                            nested.insert(&subnet, &partition);
                            table.insert(subnet, partition).expect("fresh ID");
                        }
                        // Finish some ID at some stage, in any order.
                        3..=4 => {
                            if next_id > 0 {
                                let id = SubnetId(rng.next_below(next_id));
                                let k = rng.index(stages);
                                if !finished[k].contains(id) {
                                    finished[k].insert(id);
                                }
                            }
                        }
                        // Retire below an arbitrary bound.
                        _ => {
                            let bound = SubnetId(rng.next_below(next_id + 1));
                            for (_, e) in entries_below(&table, bound) {
                                nested.retire(&e.subnet);
                            }
                            table.retire_below(bound);
                        }
                    }
                    if let Err(msg) = nested
                        .matches(&table)
                        .and_then(|()| compare(&mut rng, &table, &finished, next_id))
                    {
                        prop_assert!(false, "{}", msg);
                    }
                }
            }
        }
    }
}

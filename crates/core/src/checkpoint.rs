//! CSP-watermark checkpoints for the threaded runtime.
//!
//! The exploration order gives the pipeline a natural *consistent cut*:
//! the **watermark** `W` — every subnet `< W` fully written, nothing of
//! any subnet `>= W` started. The supervised runtime
//! ([`crate::runtime::RunSpec::run`]) enforces that cut with
//! an injection barrier: stage 0 does not inject subnet `y` until the
//! globally finished prefix has reached `floor(y / C) * C` (for
//! checkpoint interval `C`). Because every task of subnet `y` is caused —
//! through the forward/backward message chain — by its injection, no
//! stage can touch any subnet of epoch `e + 1` before it has observed
//! (and snapshotted) the completion of epoch `e`. Each stage's snapshot
//! at watermark `W` is therefore *exactly* the state a sequential run
//! holds after training subnets `0..W` — which is what makes resuming
//! from it bitwise-exact.
//!
//! A `CheckpointStore` collects the per-stage snapshots. A watermark is
//! *complete* once all stages have reported; recovery always resumes from
//! `CheckpointStore::latest_complete`. A lower complete watermark is
//! *retired* as soon as a higher one completes — it can never be resumed
//! from again, because no in-flight task predates the newest complete
//! cut. Its per-stage snapshots are not freed but kept as *spares*:
//! whoever drops the retired cut's last `Arc` (the store, or the durable
//! writer once it has persisted it) hands it to
//! `CheckpointStore::recycle`. A stage's next cut takes its spare
//! (`CheckpointStore::take_spare`) and [`StageSnapshot::refill`]s it,
//! copying in place only the layers written since the spare's watermark,
//! instead of cloning the whole slice.

use naspipe_obs::SpanId;
use naspipe_tensor::layers::DenseParams;
use naspipe_tensor::model::NumericSupernet;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Upper bound on *partial* (incomplete) watermark entries retained.
///
/// The injection barrier keeps genuine in-flight cuts to a handful (the
/// in-flight window spans at most `window / interval + 1` boundaries), so
/// anything beyond this is a stage that died or wedged before reporting —
/// those entries can never complete (stages cross boundaries
/// monotonically within an incarnation, and a respawned worker re-records
/// from its resume cut upward), and without a cap a persistently failing
/// stage would grow the map without bound on long runs. The lowest
/// partials are dropped first: recovery only ever resumes from
/// [`CheckpointStore::latest_complete`], which a partial never is.
pub(crate) const MAX_PARTIAL_CUTS: usize = 8;

/// One stage's frozen state at a watermark.
///
/// Everything a respawned worker needs to continue bitwise-exactly:
/// its parameter slice, its engine (which embeds per-layer momentum
/// velocity), and — on the last stage — the losses recorded so far.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// The stage's owned parameter slice, indexed
    /// `[block - blocks.start][choice]`.
    pub params: Vec<Vec<DenseParams>>,
    /// The stage's training engine, including optimizer state.
    pub engine: NumericSupernet,
    /// Losses recorded by this stage (`subnet -> loss`); non-empty only
    /// on the last stage.
    pub losses: BTreeMap<u64, f32>,
}

impl StageSnapshot {
    /// Brings this snapshot of a stage, taken at an earlier watermark, up
    /// to the stage's live state without reallocating its parameters: the
    /// layers `written` names (`(block - blocks.start, choice)`, as
    /// `params` is indexed) are copied in place, the engine and losses are
    /// cloned. Every layer not named must be unchanged since this
    /// snapshot was taken — the caller names at least every layer a
    /// backward wrote since then.
    ///
    /// # Panics
    ///
    /// Panics if a named layer is out of range or differs in shape from
    /// its live counterpart: the snapshot is not of this stage.
    pub fn refill(
        &mut self,
        params: &[Vec<DenseParams>],
        written: impl IntoIterator<Item = (usize, usize)>,
        engine: &NumericSupernet,
        losses: &BTreeMap<u64, f32>,
    ) {
        for (b, c) in written {
            let (dst, src) = (&mut self.params[b][c], &params[b][c]);
            dst.weight.data_mut().copy_from_slice(src.weight.data());
            dst.bias.data_mut().copy_from_slice(src.bias.data());
        }
        self.engine.clone_from(engine);
        self.losses.clone_from(losses);
    }
}

/// A complete consistent cut: all stages' snapshots at one watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The exploration-order watermark: subnets `0..watermark` are fully
    /// trained in this state, nothing beyond has started.
    pub watermark: u64,
    /// Per-stage snapshots, indexed by stage.
    pub stages: Vec<StageSnapshot>,
    /// The checkpoint span of the stage whose record completed the cut
    /// ([`SpanId::EXTERNAL`] when the runtime traces nothing). A restart
    /// resuming from this cut names it in its causal edge, so the
    /// recovery chain is visible as a flow in the exported trace.
    pub cut_span: SpanId,
}

/// Thread-shared collector of per-stage snapshots.
///
/// Stage workers call [`record`](CheckpointStore::record) when their own
/// finished prefix reaches a watermark boundary; the supervisor calls
/// [`latest_complete`](CheckpointStore::latest_complete) after a failure
/// to pick the resume point. A complete cut is assembled once, by moving
/// the stages' snapshots into one shared [`Checkpoint`]: the store, the
/// durable writer and a resuming supervisor all hold the same `Arc`. A
/// retired cut comes back through [`recycle`](CheckpointStore::recycle)
/// and its snapshots wait, one per stage, for that stage's next cut.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    gpus: usize,
    slots: Mutex<Slots>,
}

#[derive(Debug)]
struct Slots {
    /// Cuts still collecting their stages' snapshots, by watermark.
    partial: BTreeMap<u64, Vec<Option<(StageSnapshot, SpanId)>>>,
    /// The newest complete cut.
    complete: Option<Arc<Checkpoint>>,
    /// Per stage, the snapshot of the newest retired cut nobody else
    /// holds, with that cut's watermark.
    spares: Vec<Option<(u64, StageSnapshot)>>,
}

impl CheckpointStore {
    /// A store expecting snapshots from `gpus` stages per watermark.
    ///
    /// # Panics
    ///
    /// Panics if `gpus == 0`.
    pub fn new(gpus: usize) -> Self {
        assert!(gpus > 0, "need at least one stage");
        Self {
            gpus,
            slots: Mutex::new(Slots {
                partial: BTreeMap::new(),
                complete: None,
                spares: vec![None; gpus],
            }),
        }
    }

    /// Records `stage`'s snapshot at `watermark`, tagged with the span
    /// that traced the snapshot work. Idempotent per `(watermark, stage)`
    /// across incarnations: a respawned worker re-reaching a boundary it
    /// already snapshotted is a no-op, so a checkpoint is never
    /// half-overwritten by replayed state.
    ///
    /// Returns the cut when this call completed it — every stage has now
    /// snapshotted `watermark` — and `None` otherwise (a replayed record
    /// of an already complete cut included).
    ///
    /// A poisoned mutex is recovered, not propagated: a stage worker
    /// panicking while holding the lock is exactly the failure the
    /// supervisor recovers from, so amplifying it into a supervisor
    /// panic would turn one recoverable fault into an abort. The map is
    /// structurally valid after any partial `record` (entries are
    /// inserted whole), so the recovered data is safe to keep using.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn record(
        &self,
        watermark: u64,
        stage: usize,
        snapshot: StageSnapshot,
        span: SpanId,
    ) -> Option<Arc<Checkpoint>> {
        assert!(stage < self.gpus, "stage {stage} out of range");
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots
            .complete
            .as_ref()
            .is_some_and(|c| watermark <= c.watermark)
        {
            return None;
        }
        let entry = slots
            .partial
            .entry(watermark)
            .or_insert_with(|| vec![None; self.gpus]);
        if entry[stage].is_none() {
            entry[stage] = Some((snapshot, span));
        }
        if entry.iter().all(Option::is_some) {
            let parts = slots.partial.remove(&watermark).expect("just filled");
            // The completing record is the one with the highest span id
            // at this watermark under per-worker namespaces; any of them
            // anchors the recovery flow, so take the max for determinism.
            let cut_span = parts.iter().flatten().map(|p| p.1).max();
            let cut = Arc::new(Checkpoint {
                watermark,
                stages: parts.into_iter().flatten().map(|p| p.0).collect(),
                cut_span: cut_span.unwrap_or(SpanId::EXTERNAL),
            });
            // Retires the older complete cut: its snapshots become spares
            // unless the durable writer still holds it.
            if let Some(retired) = slots.complete.replace(Arc::clone(&cut)) {
                slots.keep_spares(retired);
            }
            return Some(cut);
        }
        // Bound partial-cut growth: drop the lowest incomplete entries
        // once more than MAX_PARTIAL_CUTS accumulate (see the const).
        while slots.partial.len() > MAX_PARTIAL_CUTS {
            slots.partial.pop_first();
        }
        None
    }

    /// Drops a hold on `cut`. When it was the last one — the store has
    /// retired the cut and nothing else holds it — the cut's snapshots
    /// become its stages' spares (unless newer spares are waiting).
    /// Recovers from a poisoned mutex (see [`record`](Self::record)).
    pub(crate) fn recycle(&self, cut: Arc<Checkpoint>) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.keep_spares(cut);
    }

    /// Takes `stage`'s spare snapshot and the watermark it was taken at,
    /// if there is one at or above `not_below`. A spare below it is
    /// discarded: the caller cannot say which layers changed since then
    /// (a respawned worker knows the writes since its resume watermark
    /// only). Recovers from a poisoned mutex.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub(crate) fn take_spare(&self, stage: usize, not_below: u64) -> Option<(u64, StageSnapshot)> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let spare = slots.spares[stage].take();
        spare.filter(|&(watermark, _)| watermark >= not_below)
    }

    /// The highest watermark every stage has snapshotted, if any.
    ///
    /// Recovers from a poisoned mutex (see [`record`](Self::record)) —
    /// this is the supervisor's resume-point query, the one place where
    /// poison amplification would abort an otherwise recoverable run.
    pub(crate) fn latest_complete(&self) -> Option<Arc<Checkpoint>> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.complete.clone()
    }

    /// Watermarks currently held (complete or partial), ascending.
    /// Recovers from a poisoned mutex.
    #[cfg(test)]
    pub(crate) fn watermarks(&self) -> Vec<u64> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let complete = slots.complete.iter().map(|c| c.watermark);
        let mut held: Vec<u64> = complete.chain(slots.partial.keys().copied()).collect();
        held.sort_unstable();
        held
    }
}

impl Slots {
    /// Keeps `cut`'s snapshots as spares if this was its last `Arc`
    /// (`Arc::into_inner` hands the cut to exactly one of its holders).
    fn keep_spares(&mut self, cut: Arc<Checkpoint>) {
        let Some(Checkpoint {
            watermark, stages, ..
        }) = Arc::into_inner(cut)
        else {
            return;
        };
        for (spare, snapshot) in self.spares.iter_mut().zip(stages) {
            if spare.as_ref().is_none_or(|&(held, _)| held < watermark) {
                *spare = Some((watermark, snapshot));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> StageSnapshot {
        StageSnapshot {
            params: Vec::new(),
            engine: NumericSupernet::new(0.05),
            losses: BTreeMap::new(),
        }
    }

    #[test]
    fn incomplete_watermarks_are_invisible() {
        let store = CheckpointStore::new(2);
        assert!(store.record(8, 0, snap(), SpanId(1)).is_none());
        assert!(store.latest_complete().is_none());
        let closed = store.record(8, 1, snap(), SpanId(2));
        let ckpt = store.latest_complete().expect("complete");
        assert!(
            closed.is_some_and(|c| Arc::ptr_eq(&c, &ckpt)),
            "second stage completes the cut and is handed the shared copy"
        );
        assert_eq!(ckpt.watermark, 8);
        assert_eq!(ckpt.stages.len(), 2);
        assert_eq!(
            ckpt.cut_span,
            SpanId(2),
            "cut anchored to the completing span"
        );
    }

    #[test]
    fn completion_prunes_older_complete_watermarks() {
        let store = CheckpointStore::new(2);
        store.record(4, 0, snap(), SpanId(1));
        store.record(4, 1, snap(), SpanId(2));
        store.record(8, 0, snap(), SpanId(3));
        // 8 is partial: 4 must survive.
        assert_eq!(store.latest_complete().expect("complete").watermark, 4);
        store.record(8, 1, snap(), SpanId(4));
        assert_eq!(store.latest_complete().expect("complete").watermark, 8);
        assert_eq!(store.watermarks(), vec![8]);
    }

    #[test]
    fn record_is_idempotent_per_stage() {
        let store = CheckpointStore::new(2);
        let mut first = snap();
        first.losses.insert(3, 0.5);
        store.record(4, 0, first, SpanId(1));
        store.record(4, 0, snap(), SpanId(9)); // replayed worker: ignored
        assert!(
            store.record(4, 1, snap(), SpanId(2)).is_some(),
            "completion reported exactly once"
        );
        assert!(
            store.record(4, 1, snap(), SpanId(3)).is_none(),
            "already complete"
        );
        let ckpt = store.latest_complete().expect("complete");
        assert_eq!(ckpt.stages[0].losses.get(&3), Some(&0.5));
        assert_eq!(ckpt.cut_span, SpanId(2), "replayed span ids are ignored");
    }

    /// A snapshot told apart by its losses.
    fn tagged(tag: u64) -> StageSnapshot {
        StageSnapshot {
            losses: BTreeMap::from([(tag, 0.5)]),
            ..snap()
        }
    }

    fn complete(store: &CheckpointStore, watermark: u64) -> Arc<Checkpoint> {
        store.record(watermark, 0, tagged(watermark), SpanId(watermark));
        let cut = store.record(watermark, 1, tagged(watermark + 1), SpanId(watermark));
        cut.expect("both stages reported")
    }

    #[test]
    fn a_retired_cut_becomes_spares_for_whoever_drops_it_last() {
        let store = CheckpointStore::new(2);
        // Nobody else holds cut 4: retiring it keeps its snapshots.
        drop(complete(&store, 4));
        assert!(store.take_spare(0, 0).is_none(), "cut 4 is not retired yet");
        let held = complete(&store, 8);
        let (watermark, spare) = store.take_spare(1, 0).expect("cut 4 was retired");
        assert_eq!((watermark, spare), (4, tagged(5)));
        assert!(store.take_spare(1, 0).is_none(), "taken once");
        // The writer still holds cut 8 when 12 retires it, and hands it
        // back after: the last drop is the one that recycles.
        drop(complete(&store, 12));
        assert_eq!(store.take_spare(0, 0).map(|s| s.0), Some(4));
        store.recycle(held);
        assert_eq!(store.take_spare(0, 0), Some((8, tagged(8))));
        // A recycle while the store still holds the cut keeps nothing.
        store.recycle(store.latest_complete().expect("cut 12"));
        assert_eq!(store.take_spare(1, 0).map(|s| s.0), Some(8));
    }

    #[test]
    fn spares_below_the_resume_watermark_are_discarded() {
        let store = CheckpointStore::new(2);
        drop(complete(&store, 4));
        drop(complete(&store, 8));
        assert!(store.take_spare(0, 8).is_none(), "4 < 8: unusable");
        assert!(store.take_spare(0, 0).is_none(), "and gone");
        assert_eq!(store.take_spare(1, 4).map(|s| s.0), Some(4));
        // An older cut recycled late never replaces a newer spare.
        let late = complete(&store, 12);
        drop(complete(&store, 16));
        let older = Arc::new(Checkpoint {
            watermark: 2,
            stages: vec![tagged(2), tagged(3)],
            cut_span: SpanId::EXTERNAL,
        });
        store.recycle(older);
        store.recycle(late);
        assert_eq!(store.take_spare(0, 0).map(|s| s.0), Some(12));
    }

    #[test]
    fn refill_copies_only_the_named_layers() {
        let dense = |v: f32| naspipe_tensor::layers::DenseParams {
            weight: naspipe_tensor::Tensor::from_vec(vec![v; 4], &[2, 2]),
            bias: naspipe_tensor::Tensor::from_vec(vec![v; 2], &[1, 2]),
        };
        let mut spare = StageSnapshot {
            params: vec![vec![dense(0.0), dense(1.0)], vec![dense(2.0)]],
            ..snap()
        };
        let live = vec![vec![dense(0.0), dense(9.0)], vec![dense(8.0)]];
        let engine = NumericSupernet::new(0.1);
        let losses = BTreeMap::from([(3, 0.25)]);
        spare.refill(&live, [(0, 1)], &engine, &losses);
        assert_eq!(spare.params[0][1], dense(9.0));
        assert_eq!(spare.params[1][0], dense(2.0), "not named: kept");
        assert_eq!((spare.engine, spare.losses), (engine, losses));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stage_panics() {
        CheckpointStore::new(1).record(0, 1, snap(), SpanId::EXTERNAL);
    }

    #[test]
    fn poisoned_store_still_records_and_recovers() {
        let store = Arc::new(CheckpointStore::new(2));
        store.record(4, 0, snap(), SpanId(1));
        store.record(4, 1, snap(), SpanId(2));

        // A recorder thread dies mid-`record` while holding the slots
        // lock — the panic poisons the mutex.
        let poisoner = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.slots.lock().unwrap();
            panic!("stage worker dies holding the checkpoint lock");
        });
        assert!(handle.join().is_err(), "poisoner must panic");

        // The supervisor's resume query and later records must recover
        // the data instead of amplifying the panic.
        assert_eq!(store.latest_complete().expect("recovered").watermark, 4);
        assert!(store.record(8, 0, snap(), SpanId(3)).is_none());
        assert!(store.record(8, 1, snap(), SpanId(4)).is_some());
        assert_eq!(store.latest_complete().expect("recovered").watermark, 8);
        assert_eq!(store.watermarks(), vec![8]);
    }

    #[test]
    fn partial_cut_growth_is_bounded() {
        // Stage 1 never reports: without the cap, every watermark stage 0
        // reaches would be retained forever.
        let store = CheckpointStore::new(2);
        let rounds = (MAX_PARTIAL_CUTS as u64 + 20) * 4;
        for w in (4..=rounds).step_by(4) {
            store.record(w, 0, snap(), SpanId(w));
        }
        let held = store.watermarks();
        assert_eq!(held.len(), MAX_PARTIAL_CUTS, "partials must be capped");
        // The newest partials survive; the stale low ones are dropped.
        assert_eq!(held.last().copied(), Some(rounds));
        assert_eq!(
            held.first().copied(),
            Some(rounds - 4 * (MAX_PARTIAL_CUTS as u64 - 1))
        );
        assert!(store.latest_complete().is_none());
    }

    #[test]
    fn partial_cap_never_drops_complete_cuts() {
        let store = CheckpointStore::new(2);
        store.record(4, 0, snap(), SpanId(1));
        store.record(4, 1, snap(), SpanId(2));
        for w in (8..(8 + 4 * (MAX_PARTIAL_CUTS as u64 + 6))).step_by(4) {
            store.record(w, 0, snap(), SpanId(w));
        }
        // The complete cut at 4 outlives any amount of partial churn.
        assert_eq!(store.latest_complete().expect("complete").watermark, 4);
        assert!(store.watermarks().contains(&4));
        assert_eq!(store.watermarks().len(), MAX_PARTIAL_CUTS + 1);
    }
}

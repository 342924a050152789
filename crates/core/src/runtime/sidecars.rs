//! The one thread of a run that outlives its incarnations: the durable
//! snapshot writer.

use super::elapsed_us;
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::durable::DurableStore;
use naspipe_obs::{Counter, EventBus, RunEvent};
use std::fmt;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// What reaches the [`DurableWriter`]'s thread.
enum Handoff {
    /// `stage` closed `cut`: persist it.
    Cut { stage: u32, cut: Arc<Checkpoint> },
    /// Nothing to do: being taken is the point ([`DurableWriter::drain`]).
    Drain,
}

/// The snapshot writer behind
/// [`RunSpec::durable`](super::RunSpec::durable): one thread per run that
/// owns the [`DurableStore`], so no stage thread stands in `persist`. Cuts
/// arrive over a rendezvous channel — a send returns when the writer
/// *takes* the message, which it does only between persists — so they
/// reach disk in hand-off (= watermark) order, at most one in flight:
/// cut `W` is on disk before cut `W + interval` is handed over, and a
/// kill loses at most the newest cut. A persisted cut goes back to the
/// checkpoint store, which keeps its snapshots as spares once it is
/// retired.
pub(super) struct DurableWriter {
    tx: Option<SyncSender<Handoff>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DurableWriter {
    pub(super) fn start(
        store: DurableStore,
        ckpts: Arc<CheckpointStore>,
        bus: EventBus,
        epoch: Instant,
    ) -> Self {
        let (tx, rx) = sync_channel(0);
        let hub = Arc::clone(bus.hub().expect("a wall-clock bus always has a hub"));
        let handle = std::thread::Builder::new()
            .name("naspipe-durable".to_string())
            .spawn(move || {
                // Ends when `finish` drops the sender.
                while let Ok(msg) = rx.recv() {
                    let Handoff::Cut { stage, cut } = msg else {
                        continue;
                    };
                    let watermark = cut.watermark;
                    // Persist failures are non-fatal: a full disk
                    // degrades durability, not training.
                    let persisted = store.persist(&cut);
                    ckpts.recycle(cut);
                    let event = match &persisted {
                        Ok(_) => {
                            // Counted for the stage that closed the cut.
                            hub.record(stage, Counter::DurablePersist, 1);
                            RunEvent::DurablePersist { watermark }
                        }
                        Err(error) => RunEvent::DurablePersistFailed { watermark, error },
                    };
                    bus.emit(stage, elapsed_us(epoch), event);
                }
            })
            .expect("spawn snapshot writer");
        DurableWriter {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Hands `cut` (the checkpoint store's own copy, shared), which `stage`
    /// closed, to the writer thread, waiting only while the previous cut
    /// is still being written. A dead writer is reported like any failed
    /// persist: the in-memory checkpoints still cover in-process recovery.
    pub(super) fn hand_over(
        &self,
        stage: u32,
        cut: Arc<Checkpoint>,
        bus: &EventBus,
        epoch: Instant,
    ) {
        let watermark = cut.watermark;
        let handoff = Handoff::Cut { stage, cut };
        if self.tx.as_ref().is_none_or(|tx| tx.send(handoff).is_err()) {
            let error: &dyn fmt::Display = &"the snapshot writer thread is gone";
            let failed = RunEvent::DurablePersistFailed { watermark, error };
            bus.emit(stage, elapsed_us(epoch), failed);
        }
    }

    /// Returns once every cut handed over so far is on disk (or reported
    /// failed): the writer takes this message only after finishing those.
    pub(super) fn drain(&self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Handoff::Drain);
        }
    }

    /// Drains and joins the writer. Idempotent; also runs on drop, so
    /// nothing is written after any supervisor exit.
    pub(super) fn finish(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DurableWriter {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::StageSnapshot;
    use naspipe_obs::{RunMeta, SpanId, TelemetryHub};
    use naspipe_tensor::model::NumericSupernet;
    use std::collections::BTreeMap;

    /// A bus whose journal the test can read back, and that journal's
    /// durable lines as `kind stage watermark`.
    fn journaled_bus() -> (EventBus, Arc<naspipe_obs::OpsState>) {
        let state = Arc::new(naspipe_obs::OpsState::new(
            RunMeta::new("threaded", 2),
            Arc::new(TelemetryHub::new(2, 0)),
            Arc::new(naspipe_obs::Journal::new(0)),
        ));
        let diag = naspipe_obs::DiagnosticsOptions::default().with_ops(Arc::clone(&state));
        let bus = EventBus::new("threaded", 2, &diag, None, true);
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
        let (tx, handle) = (Some(tx), None);
        DurableWriter { tx, handle }.hand_over(1, empty_cut(8), &bus, Instant::now());
        assert_eq!(durable_lines(&state), ["durable-persist-failed Some(1) 8"]);
    }

    #[test]
    fn writer_persists_in_hand_off_order_and_counts_for_the_closing_stage() {
        let dir = std::env::temp_dir().join(format!("naspipe-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (bus, state) = journaled_bus();
        let hub = Arc::clone(bus.hub().expect("a wall-clock bus has a hub"));
        let store = DurableStore::open(&dir, 2, 7).unwrap();
        let ckpts = Arc::new(CheckpointStore::new(1));
        let mut writer = DurableWriter::start(store, ckpts, bus.clone(), Instant::now());
        for (stage, watermark) in [(1, 8), (0, 16), (1, 24)] {
            writer.hand_over(stage, empty_cut(watermark), &bus, Instant::now());
        }
        // Having been taken, a drain means everything before it is done.
        writer.drain();
        let all_three = [
            "durable-persist Some(1) 8",
            "durable-persist Some(0) 16",
            "durable-persist Some(1) 24",
        ];
        assert_eq!(durable_lines(&state), all_three);
        writer.finish();
        let snap = hub.snapshot(1);
        let counted: Vec<u64> = (snap.stages.iter())
            .map(|s| s.counter(Counter::DurablePersist))
            .collect();
        assert_eq!(counted, [1, 2]);
        assert!(writer.tx.is_none() && writer.handle.is_none(), "joined");
        let store = DurableStore::open(&dir, 2, 7).unwrap();
        assert_eq!(store.list_snapshots().unwrap(), [16, 24], "keep 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

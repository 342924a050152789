//! The context predictor — Algorithm 3 of the paper.
//!
//! DNN compute times on GPUs are roughly deterministic, so each stage can
//! simulate its own near-future schedule and prefetch parameter contexts
//! before they are needed. The predictor is invoked at two points:
//!
//! * **before a backward pass** — the backward will mark its subnet
//!   finished and thereby unblock queued forwards, so the predictor re-runs
//!   `SCHEDULE()` with the received subnet *hypothetically finished* and
//!   prefetches the forward that would win (Alg. 3 lines 4–9). Backward
//!   messages also carry the last stage's *pending backward* list, which is
//!   remembered (lines 10–11).
//! * **before a forward pass** — if this forward releases a remembered
//!   pending backward, that backward's context is prefetched (lines 13–15);
//!   then `SCHEDULE()` is re-run to prefetch the next forward (lines
//!   16–18).

use crate::scheduler::{CspScheduler, SubnetTable};
use crate::task::{FinishedSet, StageId, TaskKind};
use naspipe_supernet::subnet::SubnetId;

/// A backward task the last pipeline stage could not start because its
/// forward is still causally blocked on `precedence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingBackward {
    /// Subnet whose backward is pending.
    pub id: SubnetId,
    /// The unfinished earlier subnet blocking its forward.
    pub precedence: SubnetId,
}

/// A prefetch the predictor wants the context manager to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetch {
    /// Subnet whose stage-local context should be fetched.
    pub subnet: SubnetId,
    /// Which pass it is expected to run.
    pub kind: TaskKind,
}

/// Per-stage context predictor.
#[derive(Debug, Clone, Default)]
pub struct Predictor {
    blocked: Vec<PendingBackward>,
    predictions: u64,
}

impl Predictor {
    /// Creates a predictor with an empty pending-backward memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of predictions issued.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Pending backwards currently remembered (test/diagnostic hook).
    pub fn blocked(&self) -> &[PendingBackward] {
        &self.blocked
    }

    /// Algorithm 3, backward flavour: called when backward of `recv`
    /// arrives, before running it. `next_bwds` is the pending-backward
    /// list carried by the message from later stages.
    ///
    /// Returns the contexts to prefetch.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's signature
    pub fn before_backward(
        &mut self,
        scheduler: &mut CspScheduler,
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
        recv: SubnetId,
        next_bwds: &[PendingBackward],
    ) -> Vec<Fetch> {
        let mut fetches = Vec::new();
        // Hypothetically finish `recv` at this stage and re-run SCHEDULE().
        if let Some((_, fwd_id)) =
            scheduler.schedule_assuming(queue, finished, table, stage, Some(recv))
        {
            fetches.push(Fetch {
                subnet: fwd_id,
                kind: TaskKind::Forward,
            });
        }
        for &bwd in next_bwds {
            if !self.blocked.contains(&bwd) {
                self.blocked.push(bwd);
            }
        }
        self.predictions += fetches.len() as u64;
        fetches
    }

    /// Algorithm 3, forward flavour: called before running forward of
    /// `current`. Releases pending backwards whose precedence `current`
    /// resolves, then predicts the next forward.
    ///
    /// Returns the contexts to prefetch.
    pub fn before_forward(
        &mut self,
        scheduler: &mut CspScheduler,
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
        current: SubnetId,
    ) -> Vec<Fetch> {
        let mut fetches = Vec::new();
        self.blocked.retain(|bwd| {
            if bwd.precedence == current {
                fetches.push(Fetch {
                    subnet: bwd.id,
                    kind: TaskKind::Backward,
                });
                false
            } else {
                true
            }
        });
        if let Some((_, fwd_id)) = scheduler.schedule(queue, finished, table, stage) {
            if fwd_id != current {
                fetches.push(Fetch {
                    subnet: fwd_id,
                    kind: TaskKind::Forward,
                });
            }
        }
        self.predictions += fetches.len() as u64;
        fetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use naspipe_supernet::subnet::Subnet;

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

    #[test]
    fn backward_prediction_unblocks_forward() {
        // SN1 conflicts with SN0 at stage 0 (block 0 shared). A backward
        // of SN0 is about to run; the predictor should foresee SN1's
        // forward becoming schedulable and prefetch it.
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        let q = vec![SubnetId(1)];
        let f = vec![FinishedSet::new(); 2];
        let fetches = p.before_backward(&mut s, &q, &f, &t, StageId(0), SubnetId(0), &[]);
        assert_eq!(
            fetches,
            vec![Fetch {
                subnet: SubnetId(1),
                kind: TaskKind::Forward
            }]
        );
        assert_eq!(p.predictions(), 1);
    }

    #[test]
    fn backward_prediction_none_when_still_blocked() {
        // SN2 conflicts with both SN0 and SN1; finishing SN0 alone does
        // not unblock it.
        let t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1], &[0, 1, 0, 1]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        let q = vec![SubnetId(2)];
        let fetches = p.before_backward(
            &mut s,
            &q,
            &vec![FinishedSet::new(); 2],
            &t,
            StageId(0),
            SubnetId(0),
            &[],
        );
        assert!(fetches.is_empty());
    }

    #[test]
    fn pending_backwards_are_remembered_and_released() {
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        let pending = PendingBackward {
            id: SubnetId(1),
            precedence: SubnetId(0),
        };
        // Backward carries the pending list.
        let _ = p.before_backward(
            &mut s,
            &[],
            &vec![FinishedSet::new(); 2],
            &t,
            StageId(0),
            SubnetId(0),
            &[pending],
        );
        assert_eq!(p.blocked(), &[pending]);
        // Forward of SN0 releases it.
        let fetches = p.before_forward(
            &mut s,
            &[],
            &vec![FinishedSet::new(); 2],
            &t,
            StageId(0),
            SubnetId(0),
        );
        assert_eq!(
            fetches,
            vec![Fetch {
                subnet: SubnetId(1),
                kind: TaskKind::Backward
            }]
        );
        assert!(p.blocked().is_empty());
    }

    #[test]
    fn forward_prediction_skips_current() {
        let t = table(&[&[0, 0, 0, 0]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        // Queue contains only the current forward — no prefetch needed.
        let fetches = p.before_forward(
            &mut s,
            &[SubnetId(0)],
            &vec![FinishedSet::new(); 2],
            &t,
            StageId(0),
            SubnetId(0),
        );
        assert!(fetches.is_empty());
    }

    #[test]
    fn forward_prediction_prefetches_next() {
        let t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        let fetches = p.before_forward(
            &mut s,
            &[SubnetId(1)],
            &vec![FinishedSet::new(); 2],
            &t,
            StageId(0),
            SubnetId(0),
        );
        assert_eq!(
            fetches,
            vec![Fetch {
                subnet: SubnetId(1),
                kind: TaskKind::Forward
            }]
        );
    }

    #[test]
    fn duplicate_pending_not_stored_twice() {
        let t = table(&[&[0, 0, 0, 0]]);
        let mut p = Predictor::new();
        let mut s = CspScheduler::new();
        let pending = PendingBackward {
            id: SubnetId(5),
            precedence: SubnetId(2),
        };
        for _ in 0..2 {
            p.before_backward(
                &mut s,
                &[],
                &vec![FinishedSet::new(); 2],
                &t,
                StageId(0),
                SubnetId(0),
                &[pending],
            );
        }
        assert_eq!(p.blocked().len(), 1);
    }
}

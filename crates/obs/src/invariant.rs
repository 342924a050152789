//! The CSP invariant checker.
//!
//! [`CspChecker`] is an independent re-derivation of the causal
//! synchronous parallelism contract (paper Definition 1): a forward task
//! of subnet `y` at stage `K` may only run once every unfinished earlier
//! subnet `w < y` has *written* (finished its backward over) each layer
//! the task reads. With layer mirroring a shared layer can live at stage
//! `s_w` in `w`'s partition while `y` reads it at stage `K != s_w`; the
//! write completes only when `w`'s backward at `s_w` does — the same
//! refinement the scheduler applies.
//!
//! The runtimes feed the checker their observed event stream
//! ([`register`](CspChecker::register) →
//! [`on_admit_forward`](CspChecker::on_admit_forward) →
//! [`on_backward_done`](CspChecker::on_backward_done) →
//! [`retire_below`](CspChecker::retire_below)); any interleaving a sequential
//! exploration loop could not have produced surfaces as a [`Violation`]
//! naming the offending subnet pair and the shared layer. Because the
//! checker never consults the scheduler's own data structures, a
//! scheduler bug cannot mask itself.

use naspipe_supernet::{LayerRef, SubnetId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A detected breach of the CSP contract (or of the checker's event
/// protocol). The `Display` form names the subnets and layer involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A forward task was admitted while an earlier unfinished subnet
    /// still owned one of its layers.
    PrematureForward {
        /// The subnet whose forward was admitted too early.
        later: SubnetId,
        /// The earlier subnet whose write is still outstanding.
        earlier: SubnetId,
        /// The layer both subnets activate.
        layer: LayerRef,
        /// The stage at which the forward was admitted.
        stage: u32,
        /// The stage whose backward of `earlier` must finish first: the
        /// one owning the layer in `earlier`'s partition.
        required_stage: u32,
    },
    /// A backward pass wrote a shared layer before an earlier subnet's
    /// write to the same layer — an interleaving sequential exploration
    /// could never produce.
    PrematureWrite {
        /// The subnet that wrote out of order.
        later: SubnetId,
        /// The earlier subnet whose write should have come first.
        earlier: SubnetId,
        /// The layer written out of order.
        layer: LayerRef,
        /// The stage at which the out-of-order write happened.
        stage: u32,
    },
    /// The same sequence ID was registered twice.
    DuplicateSubnet {
        /// The doubly-registered ID.
        id: SubnetId,
    },
    /// The same backward completion was reported twice.
    DuplicateBackward {
        /// The subnet reported twice.
        id: SubnetId,
        /// The stage reported twice.
        stage: u32,
    },
    /// An event referenced a subnet the checker has never seen.
    UnknownSubnet {
        /// The unregistered ID.
        id: SubnetId,
        /// Which event referenced it.
        event: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PrematureForward {
                later,
                earlier,
                layer,
                stage,
                required_stage,
            } => write!(
                f,
                "CSP violation: forward of {later} admitted at stage {stage} \
                 while earlier {earlier} has not written shared layer {layer} \
                 (its backward at stage {required_stage} is unfinished)"
            ),
            Violation::PrematureWrite {
                later,
                earlier,
                layer,
                stage,
            } => write!(
                f,
                "CSP violation: backward of {later} at stage {stage} wrote \
                 shared layer {layer} before earlier {earlier} wrote it"
            ),
            Violation::DuplicateSubnet { id } => {
                write!(f, "CSP protocol violation: {id} registered twice")
            }
            Violation::DuplicateBackward { id, stage } => write!(
                f,
                "CSP protocol violation: backward of {id} at stage {stage} \
                 reported done twice"
            ),
            Violation::UnknownSubnet { id, event } => write!(
                f,
                "CSP protocol violation: {event} event for unregistered {id}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// One tracked (registered, not yet retired) subnet.
#[derive(Debug, Clone)]
struct TrackedSubnet {
    /// Activated layers and the stage owning each in this subnet's
    /// partition.
    layers: BTreeMap<LayerRef, u32>,
    /// Stages whose backward pass for this subnet has completed.
    bwd_done: BTreeSet<u32>,
}

impl TrackedSubnet {
    /// Whether this subnet's write of `layer` (the backward at the stage
    /// owning it, `reader_stage` if it owns none) has completed. Returns
    /// the required stage alongside.
    fn written(&self, layer: LayerRef, reader_stage: u32) -> (bool, u32) {
        let required = self.layers.get(&layer).copied().unwrap_or(reader_stage);
        (self.bwd_done.contains(&required), required)
    }
}

/// Validates a runtime's task event stream against the CSP contract.
///
/// All methods return `Err(Violation)` rather than panicking so callers
/// choose the failure mode: the simulator asserts in debug builds, the
/// threaded runtime propagates the violation as a training error, and
/// tests inspect the value.
#[derive(Debug, Clone, Default)]
pub struct CspChecker {
    active: BTreeMap<u64, TrackedSubnet>,
    admissions_checked: u64,
    writes_checked: u64,
}

impl CspChecker {
    /// Creates a checker with no tracked subnets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of forward admissions validated so far.
    pub fn admissions_checked(&self) -> u64 {
        self.admissions_checked
    }

    /// Number of backward completions validated so far.
    pub fn writes_checked(&self) -> u64 {
        self.writes_checked
    }

    /// Number of currently tracked (unretired) subnets.
    pub fn tracked(&self) -> usize {
        self.active.len()
    }

    /// Registers subnet `id` with its activated layers and, for each,
    /// the stage owning it in this subnet's partition.
    pub fn register<I>(&mut self, id: SubnetId, layers: I) -> Result<(), Violation>
    where
        I: IntoIterator<Item = (LayerRef, u32)>,
    {
        let entry = TrackedSubnet {
            layers: layers.into_iter().collect(),
            bwd_done: BTreeSet::new(),
        };
        if self.active.insert(id.0, entry).is_some() {
            return Err(Violation::DuplicateSubnet { id });
        }
        Ok(())
    }

    /// Validates the admission of subnet `id`'s forward task at `stage`:
    /// every earlier tracked subnet sharing one of the layers `id` reads
    /// at `stage` must already have written it.
    pub fn on_admit_forward(&mut self, id: SubnetId, stage: u32) -> Result<(), Violation> {
        self.admissions_checked += 1;
        let Some(entry) = self.active.get(&id.0) else {
            return Err(Violation::UnknownSubnet {
                id,
                event: "forward admission",
            });
        };
        let reads: Vec<LayerRef> = entry
            .layers
            .iter()
            .filter(|&(_, &owner)| owner == stage)
            .map(|(&l, _)| l)
            .collect();
        for (&wid, earlier) in self.active.range(..id.0) {
            for &layer in &reads {
                if !earlier.layers.contains_key(&layer) {
                    continue;
                }
                let (written, required_stage) = earlier.written(layer, stage);
                if !written {
                    return Err(Violation::PrematureForward {
                        later: id,
                        earlier: SubnetId(wid),
                        layer,
                        stage,
                        required_stage,
                    });
                }
            }
        }
        Ok(())
    }

    /// Records that subnet `id`'s backward at `stage` completed, and
    /// validates that its writes land after every earlier tracked
    /// subnet's write to the same layer (sequential-order cross-check).
    pub fn on_backward_done(&mut self, id: SubnetId, stage: u32) -> Result<(), Violation> {
        self.writes_checked += 1;
        let Some(entry) = self.active.get(&id.0) else {
            return Err(Violation::UnknownSubnet {
                id,
                event: "backward completion",
            });
        };
        let writes: Vec<LayerRef> = entry
            .layers
            .iter()
            .filter(|&(_, &owner)| owner == stage)
            .map(|(&l, _)| l)
            .collect();
        for (&wid, earlier) in self.active.range(..id.0) {
            for &layer in &writes {
                if !earlier.layers.contains_key(&layer) {
                    continue;
                }
                let (written, _) = earlier.written(layer, stage);
                if !written {
                    return Err(Violation::PrematureWrite {
                        later: id,
                        earlier: SubnetId(wid),
                        layer,
                        stage,
                    });
                }
            }
        }
        let entry = self.active.get_mut(&id.0).expect("checked above");
        if !entry.bwd_done.insert(stage) {
            return Err(Violation::DuplicateBackward { id, stage });
        }
        Ok(())
    }

    /// Drops tracking state for every subnet with sequence ID strictly
    /// below `bound` — they finished everywhere and can no longer
    /// constrain admissions. Mirrors `SubnetTable::retire_below`.
    pub fn retire_below(&mut self, bound: SubnetId) {
        self.active = self.active.split_off(&bound.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(block: u32) -> LayerRef {
        LayerRef::new(block, 0)
    }

    /// Two subnets sharing layer b0c0; both own it at stage 0 of a
    /// two-stage pipeline, and each also has a private layer at stage 1.
    fn checker_with_conflict() -> CspChecker {
        let mut c = CspChecker::new();
        c.register(SubnetId(0), [(layer(0), 0), (LayerRef::new(1, 1), 1)])
            .unwrap();
        c.register(SubnetId(1), [(layer(0), 0), (LayerRef::new(1, 2), 1)])
            .unwrap();
        c
    }

    #[test]
    fn sequential_order_passes() {
        let mut c = checker_with_conflict();
        c.on_admit_forward(SubnetId(0), 0).unwrap();
        c.on_admit_forward(SubnetId(0), 1).unwrap();
        c.on_backward_done(SubnetId(0), 1).unwrap();
        c.on_backward_done(SubnetId(0), 0).unwrap();
        c.on_admit_forward(SubnetId(1), 0).unwrap();
        c.on_admit_forward(SubnetId(1), 1).unwrap();
        c.on_backward_done(SubnetId(1), 1).unwrap();
        c.on_backward_done(SubnetId(1), 0).unwrap();
        assert_eq!(c.admissions_checked(), 4);
        assert_eq!(c.writes_checked(), 4);
    }

    #[test]
    fn non_conflicting_subnets_interleave_freely() {
        let mut c = CspChecker::new();
        c.register(SubnetId(0), [(LayerRef::new(0, 0), 0)]).unwrap();
        c.register(SubnetId(1), [(LayerRef::new(0, 5), 0)]).unwrap();
        // SN1 may run entirely before SN0: different choices, no shared
        // layer, no causal edge.
        c.on_admit_forward(SubnetId(1), 0).unwrap();
        c.on_backward_done(SubnetId(1), 0).unwrap();
        c.on_admit_forward(SubnetId(0), 0).unwrap();
        c.on_backward_done(SubnetId(0), 0).unwrap();
    }

    #[test]
    fn premature_forward_names_pair_and_layer() {
        let mut c = checker_with_conflict();
        c.on_admit_forward(SubnetId(0), 0).unwrap();
        let err = c.on_admit_forward(SubnetId(1), 0).unwrap_err();
        assert_eq!(
            err,
            Violation::PrematureForward {
                later: SubnetId(1),
                earlier: SubnetId(0),
                layer: layer(0),
                stage: 0,
                required_stage: 0,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("SN1"), "message names the later subnet: {msg}");
        assert!(
            msg.contains("SN0"),
            "message names the earlier subnet: {msg}"
        );
        assert!(
            msg.contains("b0c0"),
            "message names the shared layer: {msg}"
        );
    }

    #[test]
    fn mirrored_layer_requires_owner_stage_write() {
        // Shared layer b0c0 sits at stage 0 in SN0's partition but at
        // stage 1 in SN1's. SN0 finishing its backward at stage 1 is NOT
        // enough — the write happens at s_w = 0.
        let mut c = CspChecker::new();
        c.register(SubnetId(0), [(layer(0), 0)]).unwrap();
        c.register(SubnetId(1), [(layer(0), 1)]).unwrap();
        c.on_admit_forward(SubnetId(0), 0).unwrap();
        c.on_backward_done(SubnetId(0), 1).unwrap();
        let err = c.on_admit_forward(SubnetId(1), 1).unwrap_err();
        assert_eq!(
            err,
            Violation::PrematureForward {
                later: SubnetId(1),
                earlier: SubnetId(0),
                layer: layer(0),
                stage: 1,
                required_stage: 0,
            }
        );
        c.on_backward_done(SubnetId(0), 0).unwrap();
        c.on_admit_forward(SubnetId(1), 1).unwrap();
        // The converse, a reader below the owner: SN2 writes b1c0 at
        // stage 1 and SN3 reads it at stage 0. A backward that hands its
        // gradient down before its weight update can finish at stage 0
        // first, which is not the write.
        c.register(SubnetId(2), [(layer(1), 1)]).unwrap();
        c.register(SubnetId(3), [(layer(1), 0)]).unwrap();
        c.on_backward_done(SubnetId(2), 0).unwrap();
        let err = c.on_admit_forward(SubnetId(3), 0).unwrap_err();
        assert_eq!(
            err,
            Violation::PrematureForward {
                later: SubnetId(3),
                earlier: SubnetId(2),
                layer: layer(1),
                stage: 0,
                required_stage: 1,
            }
        );
        c.on_backward_done(SubnetId(2), 1).unwrap();
        c.on_admit_forward(SubnetId(3), 0).unwrap();
    }

    #[test]
    fn premature_write_is_caught() {
        let mut c = checker_with_conflict();
        // SN1's backward at stage 0 (write of shared b0c0) before SN0
        // wrote it.
        let err = c.on_backward_done(SubnetId(1), 0).unwrap_err();
        assert_eq!(
            err,
            Violation::PrematureWrite {
                later: SubnetId(1),
                earlier: SubnetId(0),
                layer: layer(0),
                stage: 0,
            }
        );
    }

    #[test]
    fn retirement_unblocks_later_subnets() {
        let mut c = checker_with_conflict();
        c.retire_below(SubnetId(1));
        assert_eq!(c.tracked(), 1);
        c.on_admit_forward(SubnetId(1), 0).unwrap();
    }

    #[test]
    fn protocol_violations_are_reported() {
        let mut c = CspChecker::new();
        c.register(SubnetId(7), [(layer(0), 0)]).unwrap();
        assert_eq!(
            c.register(SubnetId(7), [(layer(0), 0)]).unwrap_err(),
            Violation::DuplicateSubnet { id: SubnetId(7) }
        );
        assert_eq!(
            c.on_admit_forward(SubnetId(9), 0).unwrap_err(),
            Violation::UnknownSubnet {
                id: SubnetId(9),
                event: "forward admission"
            }
        );
        c.on_backward_done(SubnetId(7), 0).unwrap();
        assert_eq!(
            c.on_backward_done(SubnetId(7), 0).unwrap_err(),
            Violation::DuplicateBackward {
                id: SubnetId(7),
                stage: 0
            }
        );
    }
}

//! Per-layer access-order analysis — the machinery behind Table 4 and the
//! CSP-equivalence verdicts of §5.2, and the one offline audit of a
//! finished run's CSP order.
//!
//! A layer's parameters are READ by each activating subnet's forward pass
//! and WRITTEN by its backward pass. Inter-subnet reproducibility requires
//! that, for every layer, this read/write interleaving equals sequential
//! execution in exploration order. This module extracts those interleavings
//! from a task stream, each access placed where it takes effect (a read
//! when its forward starts, a write when its backward's weight update
//! ends), and renders them in the paper's `2F-2B-5F-5B` notation.

use crate::pipeline::{PipelineOutcome, TaskRecord};
use crate::task::TaskKind;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::subnet::Subnet;
use std::collections::BTreeMap;
use std::fmt;

/// One access to a layer's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Access {
    /// Sequence ID of the accessing subnet.
    pub subnet: u64,
    /// Forward (read) or backward (write).
    pub kind: TaskKind,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            TaskKind::Forward => "F",
            TaskKind::Backward => "B",
        };
        write!(f, "{}{}", self.subnet, tag)
    }
}

/// The access sequence of one layer under a schedule, in the order the
/// accesses take effect.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessOrder {
    accesses: Vec<Access>,
}

impl AccessOrder {
    /// The accesses in the order they take effect.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Renders the paper's Table 4 notation, e.g. `2F-2B-5F-5B-7F-7B`.
    pub fn notation(&self) -> String {
        self.accesses
            .iter()
            .map(Access::to_string)
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Whether this order equals sequential execution: ascending subnet
    /// IDs, each read immediately followed by its write.
    pub fn is_sequential(&self) -> bool {
        if !self.accesses.len().is_multiple_of(2) {
            return false;
        }
        let mut prev: Option<u64> = None;
        for pair in self.accesses.chunks(2) {
            if pair[0].kind != TaskKind::Forward
                || pair[1].kind != TaskKind::Backward
                || pair[0].subnet != pair[1].subnet
            {
                return false;
            }
            if let Some(p) = prev {
                if pair[0].subnet <= p {
                    return false;
                }
            }
            prev = Some(pair[0].subnet);
        }
        true
    }
}

/// The access order of `layer` in a pipeline run (see
/// [`all_access_orders`]); empty when no task touches it.
pub fn layer_access_order(outcome: &PipelineOutcome, layer: LayerRef) -> AccessOrder {
    all_access_orders(outcome)
        .remove(&layer)
        .unwrap_or_default()
}

/// All layers accessed during a run, with their access orders.
pub fn all_access_orders(outcome: &PipelineOutcome) -> BTreeMap<LayerRef, AccessOrder> {
    all_access_orders_parts(&outcome.subnets, &outcome.tasks)
}

/// [`all_access_orders`] over raw parts — for task streams that don't
/// come wrapped in a [`PipelineOutcome`], such as the threaded runtime's
/// supervised runs.
///
/// Each access is placed where it takes effect: a forward reads its
/// layers when it starts, a backward has written them when it ends (its
/// weight update is the end of the task). The order is a stable sort on
/// those times, so ties keep record order: a recovered run's sequential
/// prefix, whose records all sit at 0 µs, and a backward ending in the
/// µs the next sharer's forward starts, which the record lists first.
pub(crate) fn all_access_orders_parts(
    subnets: &[Subnet],
    tasks: &[TaskRecord],
) -> BTreeMap<LayerRef, AccessOrder> {
    let mut by_effect: Vec<&TaskRecord> = tasks.iter().collect();
    by_effect.sort_by_key(|t| match t.kind {
        TaskKind::Forward => t.start,
        TaskKind::Backward => t.end,
    });
    let mut map: BTreeMap<LayerRef, AccessOrder> = BTreeMap::new();
    let arch: BTreeMap<u64, &Subnet> = subnets.iter().map(|s| (s.seq_id().0, s)).collect();
    for task in by_effect {
        let subnet = arch[&task.subnet.0];
        for b in task.blocks.clone() {
            if subnet.skips(b) {
                continue;
            }
            map.entry(subnet.layer(b))
                .or_default()
                .accesses
                .push(Access {
                    subnet: task.subnet.0,
                    kind: task.kind,
                });
        }
    }
    map
}

/// Checks the CSP dependency-preservation property over a whole run.
///
/// # Errors
///
/// Returns the first violating layer and its access order.
pub fn verify_csp_order(outcome: &PipelineOutcome) -> Result<(), (LayerRef, AccessOrder)> {
    verify_csp_order_parts(&outcome.subnets, &outcome.tasks)
}

/// [`verify_csp_order`] over raw parts (see `all_access_orders_parts`).
///
/// # Errors
///
/// Returns the first violating layer and its access order.
pub fn verify_csp_order_parts(
    subnets: &[Subnet],
    tasks: &[TaskRecord],
) -> Result<(), (LayerRef, AccessOrder)> {
    for (layer, order) in all_access_orders_parts(subnets, tasks) {
        if !order.is_sequential() {
            return Err((layer, order));
        }
    }
    Ok(())
}

/// A subnet whose layer is shared picks the first layer activated by at
/// least `min_subnets` distinct subnets — the "randomly chosen layer" of
/// Table 4 made deterministic.
#[cfg(test)]
pub(crate) fn most_shared_layer(outcome: &PipelineOutcome, min_subnets: usize) -> Option<LayerRef> {
    let mut counts: BTreeMap<LayerRef, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for s in &outcome.subnets {
        for l in s.layers() {
            counts.entry(l).or_default().insert(s.seq_id().0);
        }
    }
    counts
        .into_iter()
        .filter(|(_, users)| users.len() >= min_subnets)
        .max_by_key(|(l, users)| (users.len(), std::cmp::Reverse(*l)))
        .map(|(l, _)| l)
}

/// Picks the most *contended* shared layer: among layers used by at least
/// `min_subnets` subnets, the one whose two closest users are nearest in
/// exploration order — the layer most likely to expose interleaving
/// differences between schedules (the interesting case for Table 4).
pub fn most_contended_layer(outcome: &PipelineOutcome, min_subnets: usize) -> Option<LayerRef> {
    let mut users: BTreeMap<LayerRef, Vec<u64>> = BTreeMap::new();
    for s in &outcome.subnets {
        for l in s.layers() {
            users.entry(l).or_default().push(s.seq_id().0);
        }
    }
    users
        .into_iter()
        .filter(|(_, u)| u.len() >= min_subnets)
        .min_by_key(|(l, u)| {
            let min_gap = u.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(u64::MAX);
            (min_gap, std::cmp::Reverse(u.len()), *l)
        })
        .map(|(l, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SyncPolicy};
    use crate::pipeline::SimSpec;
    use crate::task::StageId;
    use naspipe_sim::time::SimTime;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;
    use naspipe_supernet::subnet::SubnetId;

    /// A task record: `(start, end)` µs, kind, subnet, stage, blocks.
    fn task(
        (start, end): (u64, u64),
        kind: TaskKind,
        y: u64,
        k: u32,
        blocks: std::ops::Range<usize>,
    ) -> TaskRecord {
        TaskRecord {
            start: SimTime::from_us(start),
            end: SimTime::from_us(end),
            kind,
            subnet: SubnetId(y),
            stage: StageId(k),
            blocks,
        }
    }

    fn outcome(policy: SyncPolicy, gpus: u32, n: usize) -> PipelineOutcome {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
        let subnets = UniformSampler::new(&space, 7).take_subnets(n);
        let cfg = PipelineConfig::naspipe(gpus, n as u64)
            .with_batch(16)
            .with_policy(policy);
        SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap()
    }

    #[test]
    fn csp_orders_are_sequential_everywhere() {
        for gpus in [2, 4, 8] {
            let out = outcome(SyncPolicy::naspipe(), gpus, 30);
            assert!(verify_csp_order(&out).is_ok(), "violation on {gpus} GPUs");
        }
    }

    #[test]
    fn csp_order_is_gpu_count_invariant() {
        let out4 = outcome(SyncPolicy::naspipe(), 4, 30);
        let out8 = outcome(SyncPolicy::naspipe(), 8, 30);
        let layer = most_shared_layer(&out4, 3).expect("a shared layer exists");
        let o4 = layer_access_order(&out4, layer);
        let o8 = layer_access_order(&out8, layer);
        assert_eq!(o4, o8, "CSP access order must not depend on GPU count");
        assert!(o4.is_sequential());
    }

    #[test]
    fn bsp_order_differs_by_gpu_count() {
        let out4 = outcome(
            SyncPolicy::Bsp {
                bulk: 3,
                swap: false,
            },
            4,
            30,
        );
        let out8 = outcome(
            SyncPolicy::Bsp {
                bulk: 5,
                swap: false,
            },
            8,
            30,
        );
        // At least one shared layer must show a different interleaving.
        let differs = all_access_orders(&out4)
            .into_iter()
            .any(|(l, o)| layer_access_order(&out8, l) != o);
        assert!(differs, "BSP orders unexpectedly identical");
    }

    #[test]
    fn bsp_violates_sequential_order() {
        let out = outcome(
            SyncPolicy::Bsp {
                bulk: 5,
                swap: false,
            },
            8,
            30,
        );
        assert!(
            verify_csp_order(&out).is_err(),
            "BSP should interleave bulk forwards before backwards"
        );
    }

    #[test]
    fn a_read_before_a_mirrored_write_ends_is_caught() {
        // SN0 and SN1 share b1c0. Mirroring puts block 1 at stage 1 for
        // SN0 and at stage 0 for SN1. SN1's stage-0 forward starts after
        // SN0's stage-0 backward, but 1 µs before SN0's stage-1 backward,
        // the one that writes b1c0, ends.
        use TaskKind::{Backward as B, Forward as F};
        let subnets = [
            Subnet::new(SubnetId(0), vec![1, 0, 1, 1]),
            Subnet::new(SubnetId(1), vec![2, 0, 2, 2]),
        ];
        let tasks = [
            task((0, 10), F, 0, 0, 0..1),
            task((10, 20), F, 0, 1, 1..4),
            task((20, 40), B, 0, 1, 1..4),
            task((30, 35), B, 0, 0, 0..1),
            task((39, 45), F, 1, 0, 0..2),
            task((45, 50), F, 1, 1, 2..4),
            task((50, 60), B, 1, 1, 2..4),
            task((60, 70), B, 1, 0, 0..2),
        ];
        let (layer, order) = verify_csp_order_parts(&subnets, &tasks).unwrap_err();
        assert_eq!(layer, LayerRef::new(1, 0));
        assert_eq!(order.notation(), "0F-1F-0B-1B");
        // The same read 1 µs later is in order.
        let mut later = tasks;
        later[4] = task((40, 45), F, 1, 0, 0..2);
        verify_csp_order_parts(&subnets, &later).unwrap();
    }

    #[test]
    fn a_zero_time_prefix_then_real_tasks_is_in_order() {
        // A recovered run: SN0 and SN1 are its sequential prefix, every
        // record at 0 µs, and SN2 runs from 0 µs on. All three share
        // every layer.
        use TaskKind::{Backward as B, Forward as F};
        let subnets: Vec<Subnet> = (0..3)
            .map(|y| Subnet::new(SubnetId(y), vec![0; 4]))
            .collect();
        let mut tasks = Vec::new();
        for y in 0..2 {
            tasks.push(task((0, 0), F, y, 0, 0..2));
            tasks.push(task((0, 0), F, y, 1, 2..4));
            tasks.push(task((0, 0), B, y, 1, 2..4));
            tasks.push(task((0, 0), B, y, 0, 0..2));
        }
        tasks.push(task((0, 10), F, 2, 0, 0..2));
        tasks.push(task((10, 20), F, 2, 1, 2..4));
        tasks.push(task((20, 30), B, 2, 1, 2..4));
        tasks.push(task((30, 40), B, 2, 0, 0..2));
        verify_csp_order_parts(&subnets, &tasks).unwrap();
        let orders = all_access_orders_parts(&subnets, &tasks);
        assert_eq!(orders[&LayerRef::new(0, 0)].notation(), "0F-0B-1F-1B-2F-2B");
    }

    #[test]
    fn a_write_ending_in_the_us_the_next_read_starts_is_in_order() {
        use TaskKind::{Backward as B, Forward as F};
        let subnets = [
            Subnet::new(SubnetId(0), vec![0, 0]),
            Subnet::new(SubnetId(1), vec![0, 1]),
        ];
        let tasks = [
            task((0, 10), F, 0, 0, 0..1),
            task((10, 20), F, 0, 1, 1..2),
            task((20, 30), B, 0, 1, 1..2),
            task((30, 40), B, 0, 0, 0..1),
            task((40, 50), F, 1, 0, 0..1),
            task((50, 60), F, 1, 1, 1..2),
            task((60, 70), B, 1, 1, 1..2),
            task((70, 80), B, 1, 0, 0..1),
        ];
        verify_csp_order_parts(&subnets, &tasks).unwrap();
    }

    #[test]
    fn notation_matches_paper_format() {
        let order = AccessOrder {
            accesses: vec![
                Access {
                    subnet: 2,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 2,
                    kind: TaskKind::Backward,
                },
                Access {
                    subnet: 5,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 5,
                    kind: TaskKind::Backward,
                },
            ],
        };
        assert_eq!(order.notation(), "2F-2B-5F-5B");
        assert!(order.is_sequential());
    }

    #[test]
    fn non_sequential_orders_detected() {
        let torn = AccessOrder {
            accesses: vec![
                Access {
                    subnet: 2,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 5,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 2,
                    kind: TaskKind::Backward,
                },
                Access {
                    subnet: 5,
                    kind: TaskKind::Backward,
                },
            ],
        };
        assert!(!torn.is_sequential());
        let descending = AccessOrder {
            accesses: vec![
                Access {
                    subnet: 5,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 5,
                    kind: TaskKind::Backward,
                },
                Access {
                    subnet: 2,
                    kind: TaskKind::Forward,
                },
                Access {
                    subnet: 2,
                    kind: TaskKind::Backward,
                },
            ],
        };
        assert!(!descending.is_sequential());
        let odd = AccessOrder {
            accesses: vec![Access {
                subnet: 1,
                kind: TaskKind::Forward,
            }],
        };
        assert!(!odd.is_sequential());
    }

    #[test]
    fn access_display() {
        assert_eq!(
            Access {
                subnet: 7,
                kind: TaskKind::Forward
            }
            .to_string(),
            "7F"
        );
        assert_eq!(
            Access {
                subnet: 7,
                kind: TaskKind::Backward
            }
            .to_string(),
            "7B"
        );
    }

    #[test]
    fn most_shared_layer_requires_threshold() {
        let out = outcome(SyncPolicy::naspipe(), 2, 10);
        assert!(most_shared_layer(&out, 1).is_some());
        assert_eq!(most_shared_layer(&out, 1_000), None);
    }
}

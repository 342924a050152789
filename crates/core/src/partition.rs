//! Balanced pipeline partitioning and layer mirroring.
//!
//! Each subnet is split into `D` contiguous stages with roughly equal
//! execution time, "according to pre-profiled statistics of each layer"
//! (§3.2). Because the optimal boundaries differ per subnet, a layer can
//! belong to different stages for different subnets; NASPipe *mirrors*
//! such layers onto every stage that needs them instead of migrating them
//! on demand (§4.2). With mirroring disabled, every subnet must use one
//! static partition and suffers per-subnet load imbalance — the effect the
//! Figure 6 ablation measures.

use crate::task::StageId;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::subnet::Subnet;
use std::ops::Range;

/// A contiguous `D`-partition of a subnet's block list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    // boundaries[k]..boundaries[k+1] is stage k's block range.
    boundaries: Vec<usize>,
}

impl Partition {
    /// Builds a partition from explicit stage boundaries.
    ///
    /// `boundaries` must have `D + 1` entries, start at 0, be
    /// non-decreasing, and end at the block count.
    ///
    /// # Panics
    ///
    /// Panics if the boundary list is malformed.
    pub fn from_boundaries(boundaries: Vec<usize>) -> Self {
        assert!(boundaries.len() >= 2, "need at least one stage");
        assert_eq!(boundaries[0], 0, "partition must start at block 0");
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be non-decreasing"
        );
        Self { boundaries }
    }

    /// Splits `costs` (per-block execution times) into `stages` contiguous
    /// ranges minimising the bottleneck (maximum stage sum).
    ///
    /// Uses binary search over the bottleneck value with a greedy
    /// feasibility check — `O(m log(sum/eps))` and deterministic.
    ///
    /// # Example
    ///
    /// ```
    /// use naspipe_core::partition::Partition;
    /// use naspipe_core::task::StageId;
    ///
    /// let costs = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    /// let p = Partition::balanced(&costs, 2);
    /// // The expensive block gets a stage of its own.
    /// assert_eq!(p.stage_range(StageId(0)), 0..1);
    /// assert_eq!(p.bottleneck(&costs), 5.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty, `stages == 0`, or any cost is negative.
    pub fn balanced(costs: &[f64], stages: u32) -> Self {
        assert!(!costs.is_empty(), "cannot partition zero blocks");
        assert!(stages > 0, "need at least one stage");
        assert!(
            costs.iter().all(|&c| c >= 0.0),
            "costs must be non-negative"
        );
        let stages = stages as usize;

        // The greedy cover of `costs` by ranges of sum <= cap, opened left
        // to right: `cut(i)` for each range that opens at block `i > 0`.
        // `false` if it takes more than `stages` ranges. A bisection
        // probe only counts; the boundaries are written once, below.
        fn cover(costs: &[f64], stages: usize, cap: f64, mut cut: impl FnMut(usize)) -> bool {
            let mut ranges = 1usize;
            let mut acc = 0.0f64;
            for (i, &c) in costs.iter().enumerate() {
                if c > cap {
                    return false;
                }
                if acc + c > cap {
                    cut(i);
                    acc = c;
                    ranges += 1;
                    if ranges > stages {
                        return false;
                    }
                } else {
                    acc += c;
                }
            }
            true
        }

        let total: f64 = costs.iter().sum();
        let max_single = costs.iter().cloned().fold(0.0f64, f64::max);
        let mut lo = (total / stages as f64).max(max_single);
        let mut hi = total.max(max_single);
        // 40 iterations of bisection are ample for f64 cost ranges. `hi`
        // is feasible throughout: the total cost is, and it only ever
        // moves to a cap a probe accepted.
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if cover(costs, stages, mid, |_| {}) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let mut bounds = Vec::with_capacity(stages + 1);
        bounds.push(0);
        let feasible = cover(costs, stages, hi, |i| bounds.push(i));
        assert!(feasible, "the smallest accepted cap is feasible");
        bounds.resize(stages + 1, costs.len());
        Self::from_boundaries(bounds)
    }

    /// Number of stages.
    pub fn num_stages(&self) -> u32 {
        (self.boundaries.len() - 1) as u32
    }

    /// Block range of stage `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn stage_range(&self, k: StageId) -> Range<usize> {
        let i = k.0 as usize;
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// The stage owning block `b`, if any stage covers it.
    pub(crate) fn stage_of_block(&self, b: usize) -> Option<StageId> {
        // The first boundary above `b` closes the (non-empty) range
        // holding it.
        let end = self.boundaries.partition_point(|&x| x <= b);
        (end < self.boundaries.len()).then(|| StageId(end as u32 - 1))
    }

    /// [`stage_of_block`](Self::stage_of_block) of blocks `0, 1, 2, ..`,
    /// endlessly (`None` past the last covered block), from one walk over
    /// the boundaries.
    pub(crate) fn owners(&self) -> impl Iterator<Item = Option<StageId>> + '_ {
        // `boundaries[end]` is the first boundary above the block.
        let mut end = 1;
        (0..).map(move |b| {
            while end < self.boundaries.len() && self.boundaries[end] <= b {
                end += 1;
            }
            (end < self.boundaries.len()).then(|| StageId(end as u32 - 1))
        })
    }

    /// `subnet`'s activated layers, each with the stage that owns it here:
    /// what both engines register a subnet with a
    /// [`CspChecker`](naspipe_obs::CspChecker) by.
    pub(crate) fn layer_owners<'a>(
        &'a self,
        subnet: &'a Subnet,
    ) -> impl Iterator<Item = (LayerRef, u32)> + 'a {
        let owner = |b| self.stage_of_block(b).map_or(0, |s| s.0);
        subnet.layers().map(move |l| (l, owner(l.block as usize)))
    }

    /// Stage execution times under `costs`.
    pub(crate) fn stage_costs(&self, costs: &[f64]) -> Vec<f64> {
        (0..self.num_stages())
            .map(|k| self.stage_range(StageId(k)).map(|b| costs[b]).sum())
            .collect()
    }

    /// The bottleneck (maximum stage cost) under `costs`.
    pub fn bottleneck(&self, costs: &[f64]) -> f64 {
        self.stage_costs(costs).into_iter().fold(0.0, f64::max)
    }
}

/// How stage ranges are assigned to subnets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Per-subnet balanced partitions; layers are mirrored across stages
    /// as needed (NASPipe's default).
    Mirrored,
    /// One static partition for all subnets, balanced for the *average*
    /// candidate cost per block (the w/o-mirroring ablation, and how
    /// GPipe/PipeDream/VPipe place operators).
    Static,
}

/// Produces stage ranges for subnets under a [`PartitionMode`].
#[derive(Debug, Clone)]
pub struct Partitioner {
    profile: ProfiledSpace,
    stages: u32,
    mode: PartitionMode,
    static_partition: Partition,
}

impl Partitioner {
    /// Creates a partitioner over `profile` for `stages` pipeline stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`.
    pub fn new(profile: ProfiledSpace, stages: u32, mode: PartitionMode) -> Self {
        assert!(stages > 0, "need at least one stage");
        // The static partition balances the mean candidate cost per block.
        let mean_costs: Vec<f64> = (0..profile.num_blocks())
            .map(|b| profile.mean_block_ms(b))
            .collect();
        let static_partition = Partition::balanced(&mean_costs, stages);
        Self {
            profile,
            stages,
            mode,
            static_partition,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// The partition mode in use.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// The profile backing this partitioner.
    pub fn profile(&self) -> &ProfiledSpace {
        &self.profile
    }

    /// The partition `subnet` executes with.
    ///
    /// Mirrored partitions are computed per call and not memoised: an
    /// exploration stream practically never repeats an architecture (see
    /// `uniform_stream_never_repeats_an_architecture`), so a cache keyed by
    /// the choice list would only grow. Callers keep the partition next to
    /// the subnet (the engine's `SubnetTable` entry) instead of re-asking.
    /// `&mut self` is kept for source compatibility.
    pub fn partition_for(&mut self, subnet: &Subnet) -> Partition {
        match self.mode {
            PartitionMode::Static => self.static_partition.clone(),
            PartitionMode::Mirrored => {
                let costs = self.profile.subnet_block_costs(subnet);
                Partition::balanced(&costs, self.stages)
            }
        }
    }

    /// Stage compute time of `subnet` at stage `k` of `partition` (the
    /// one [`partition_for`](Self::partition_for) gave it), in
    /// milliseconds, split as `(fwd_ms, bwd_ms)`.
    pub(crate) fn stage_times(
        &self,
        subnet: &Subnet,
        partition: &Partition,
        k: StageId,
    ) -> (f64, f64) {
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        for b in partition.stage_range(k) {
            if subnet.skips(b) {
                continue;
            }
            let cost = self.profile.cost(subnet.layer(b));
            fwd += cost.fwd_ms;
            bwd += cost.bwd_ms;
        }
        (fwd, bwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::space::SearchSpace;
    use naspipe_supernet::subnet::SubnetId;

    #[test]
    fn balanced_partition_of_uniform_costs() {
        let costs = vec![1.0; 8];
        let p = Partition::balanced(&costs, 4);
        assert_eq!(p.num_stages(), 4);
        assert_eq!(p.stage_costs(&costs), vec![2.0; 4]);
        assert_eq!(p.bottleneck(&costs), 2.0);
    }

    #[test]
    fn balanced_partition_minimises_bottleneck() {
        let costs = vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let p = Partition::balanced(&costs, 2);
        // Optimal split: [5] | [1,1,1,1,1] -> bottleneck 5.
        assert!((p.bottleneck(&costs) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn more_stages_than_blocks_leaves_empty_stages() {
        let costs = vec![1.0, 1.0];
        let p = Partition::balanced(&costs, 4);
        assert_eq!(p.num_stages(), 4);
        let total: f64 = p.stage_costs(&costs).iter().sum();
        assert!((total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stage_ranges_tile_the_blocks() {
        let costs: Vec<f64> = (1..=13).map(|i| i as f64).collect();
        let p = Partition::balanced(&costs, 4);
        let mut covered = vec![];
        for k in 0..4 {
            covered.extend(p.stage_range(StageId(k)));
        }
        assert_eq!(covered, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn stage_of_block_finds_owner() {
        let p = Partition::from_boundaries(vec![0, 2, 5]);
        assert_eq!(p.stage_of_block(0), Some(StageId(0)));
        assert_eq!(p.stage_of_block(4), Some(StageId(1)));
        assert_eq!(p.stage_of_block(5), None);
    }

    #[test]
    fn owners_walk_equals_stage_of_block() {
        // Empty stages, a leading empty stage, and blocks past the end.
        for bounds in [vec![0, 2, 5], vec![0, 0, 3, 3, 4], vec![0, 1], vec![0, 0]] {
            let p = Partition::from_boundaries(bounds);
            let walked: Vec<_> = p.owners().take(7).collect();
            let probed: Vec<_> = (0..7).map(|b| p.stage_of_block(b)).collect();
            assert_eq!(walked, probed, "{p:?}");
        }
    }

    #[test]
    fn mirrored_beats_static_bottleneck() {
        // With heterogeneous candidates, per-subnet partitions have
        // bottleneck <= the static one for that subnet's costs.
        let space = SearchSpace::uniform(Domain::Nlp, 16, 8);
        let profile = ProfiledSpace::new(&space, 192);
        let mut mirrored = Partitioner::new(profile.clone(), 4, PartitionMode::Mirrored);
        let mut statics = Partitioner::new(profile.clone(), 4, PartitionMode::Static);
        let mut rng = naspipe_supernet::rng::DetRng::new(3);
        for i in 0..20 {
            let choices: Vec<u32> = (0..16).map(|_| rng.next_below(8) as u32).collect();
            let s = Subnet::new(SubnetId(i), choices);
            let costs = profile.subnet_block_costs(&s);
            let bm = mirrored.partition_for(&s).bottleneck(&costs);
            let bs = statics.partition_for(&s).bottleneck(&costs);
            assert!(bm <= bs + 1e-9, "mirrored {bm} worse than static {bs}");
        }
    }

    #[test]
    fn stage_times_sum_to_subnet_total() {
        let space = SearchSpace::uniform(Domain::Cv, 12, 4);
        let profile = ProfiledSpace::new(&space, 64);
        let mut part = Partitioner::new(profile.clone(), 4, PartitionMode::Mirrored);
        let s = Subnet::new(SubnetId(0), vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let p = part.partition_for(&s);
        let total: f64 = (0..4)
            .map(|k| {
                let (f, b) = part.stage_times(&s, &p, StageId(k));
                f + b
            })
            .sum();
        assert!((total - profile.subnet_total_ms(&s)).abs() < 1e-6);
    }

    #[test]
    fn partition_for_is_a_pure_function_of_the_subnet() {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
        let profile = ProfiledSpace::new(&space, 192);
        let mut part = Partitioner::new(profile, 2, PartitionMode::Mirrored);
        let s = Subnet::new(SubnetId(0), vec![0; 8]);
        let p1 = part.partition_for(&s);
        let p2 = part.partition_for(&s);
        assert_eq!(p1, p2);
    }

    #[test]
    fn uniform_stream_never_repeats_an_architecture() {
        // Why `partition_for` has no memo table: a cache keyed by the
        // choice list hits only when the stream repeats an architecture.
        // NLP.c1 has 72^48 of them; 4000 uniform draws (the benchmark's
        // stream) never collide, so once the engine stopped re-asking for
        // the same subnet ~2D times per run the hit rate was exactly 0 and
        // the table (one 48-u32 key plus a partition per subnet) only grew.
        use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
        use std::collections::BTreeSet;
        let space = SearchSpace::nlp_c1();
        let stream = UniformSampler::new(&space, 2022).take_subnets(4000);
        let distinct: BTreeSet<&[u32]> = stream.iter().map(|s| s.choices()).collect();
        let hits = stream.len() - distinct.len();
        assert_eq!(hits, 0, "a choice-keyed cache would have hit {hits} times");
    }

    #[test]
    #[should_panic(expected = "cannot partition zero blocks")]
    fn empty_costs_panic() {
        Partition::balanced(&[], 2);
    }

    #[test]
    #[should_panic(expected = "must start at block 0")]
    fn bad_boundaries_panic() {
        Partition::from_boundaries(vec![1, 2]);
    }
}

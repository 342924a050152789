//! Pre-profiled per-layer statistics used by the pipeline partitioner and
//! the discrete-event simulator.
//!
//! NASPipe partitions each subnet so every stage has roughly the same
//! execution time "according to pre-profiled statistics of each layer"
//! (§3.2). [`ProfiledSpace`] captures those statistics for a search space
//! at a concrete batch size; lookups are O(1) per layer.

use crate::layer::{LayerCost, LayerRef};
use crate::space::SearchSpace;
use crate::subnet::Subnet;

/// Per-layer profiled costs for a search space at a fixed batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledSpace {
    batch: u32,
    // costs[block][choice], rescaled to `batch`.
    costs: Vec<Vec<LayerCost>>,
}

impl ProfiledSpace {
    /// Profiles every candidate layer of `space` at input batch `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(space: &SearchSpace, batch: u32) -> Self {
        assert!(batch > 0, "batch must be positive");
        let costs = space
            .blocks()
            .iter()
            .map(|b| {
                (0..b.num_choices())
                    .map(|c| {
                        let raw = b.cost(c);
                        let reference = b.kind(c).reference_batch();
                        raw.at_batch(reference, batch)
                    })
                    .collect()
            })
            .collect();
        Self { batch, costs }
    }

    /// The batch size this profile was taken at.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// Number of choice blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.costs.len()
    }

    /// Number of candidate choices profiled for `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn num_choices(&self, block: usize) -> u32 {
        self.costs[block].len() as u32
    }

    /// Mean fwd+bwd compute milliseconds across the candidates of `block`
    /// — the cost a static partitioner balances when the subnet is not
    /// known in advance.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn mean_block_ms(&self, block: usize) -> f64 {
        let n = self.costs[block].len();
        self.costs[block].iter().map(|c| c.total_ms()).sum::<f64>() / n as f64
    }

    /// Cost of one layer at this profile's batch size.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn cost(&self, layer: LayerRef) -> LayerCost {
        self.costs[layer.block as usize][layer.choice as usize]
    }

    /// Forward+backward compute milliseconds of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub(crate) fn compute_ms(&self, layer: LayerRef) -> f64 {
        self.cost(layer).total_ms()
    }

    /// Per-block compute cost (fwd+bwd ms) of a subnet, one entry per
    /// block; skipped blocks cost zero.
    ///
    /// # Panics
    ///
    /// Panics if the subnet does not match the profiled space.
    pub fn subnet_block_costs(&self, subnet: &Subnet) -> Vec<f64> {
        (0..subnet.num_layers())
            .map(|b| {
                if subnet.skips(b) {
                    0.0
                } else {
                    self.compute_ms(subnet.layer(b))
                }
            })
            .collect()
    }

    /// Total compute time of a subnet at this batch size, ms.
    ///
    /// # Panics
    ///
    /// Panics if the subnet does not match the profiled space.
    pub fn subnet_total_ms(&self, subnet: &Subnet) -> f64 {
        self.subnet_block_costs(subnet).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Domain;
    use crate::subnet::SubnetId;

    #[test]
    fn profile_scales_with_batch() {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 4);
        let p96 = ProfiledSpace::new(&space, 96);
        let p192 = ProfiledSpace::new(&space, 192);
        let l = LayerRef::new(0, 0);
        assert!((p192.compute_ms(l) - 2.0 * p96.compute_ms(l)).abs() < 1e-9);
        // Swap costs are batch invariant.
        assert_eq!(p96.cost(l).swap_ms, p192.cost(l).swap_ms);
    }

    #[test]
    fn subnet_totals_match_sums() {
        let space = SearchSpace::uniform(Domain::Cv, 5, 4);
        let profile = ProfiledSpace::new(&space, 64);
        let s = Subnet::new(SubnetId(0), vec![0, 1, 2, 3, 0]);
        let blocks = profile.subnet_block_costs(&s);
        assert_eq!(blocks.len(), 5);
        let total: f64 = blocks.iter().sum();
        assert!((profile.subnet_total_ms(&s) - total).abs() < 1e-9);
    }

    #[test]
    fn reference_batch_reproduces_catalog() {
        let space = SearchSpace::uniform(Domain::Nlp, 1, 4);
        let profile = ProfiledSpace::new(&space, 192);
        let l = LayerRef::new(0, 0);
        assert!((profile.cost(l).fwd_ms - space.layer_cost(l).fwd_ms).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let space = SearchSpace::uniform(Domain::Nlp, 1, 1);
        ProfiledSpace::new(&space, 0);
    }
}

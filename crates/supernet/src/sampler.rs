//! Exploration strategies that generate the ordered subnet stream.
//!
//! The exploration algorithm runs *above* the training system (in the
//! Retiarii frontend in the paper) and produces subnets in a total order;
//! the training system must make the parallel execution equivalent to that
//! order. [`UniformSampler`] reproduces SPOS's per-choice-block uniform
//! sampling, the paper's default generation method.

use crate::rng::DetRng;
use crate::space::SearchSpace;
use crate::subnet::{Subnet, SubnetId};

/// A source of subnets in exploration order.
///
/// Implementations must be deterministic: the same construction parameters
/// must yield the same subnet stream.
pub trait ExplorationStrategy {
    /// Produces the next subnet in the total order.
    fn next_subnet(&mut self) -> Subnet;

    /// Sequence ID the next call to [`next_subnet`](Self::next_subnet)
    /// will assign.
    fn next_seq_id(&self) -> SubnetId;

    /// Collects the next `n` subnets.
    fn take_subnets(&mut self, n: usize) -> Vec<Subnet> {
        (0..n).map(|_| self.next_subnet()).collect()
    }
}

/// SPOS-style uniform sampling: each block's choice is drawn independently
/// and uniformly.
#[derive(Debug, Clone)]
pub struct UniformSampler {
    choices_per_block: Vec<u32>,
    rng: DetRng,
    next_id: u64,
}

impl UniformSampler {
    /// Creates a sampler over `space` seeded with `seed`.
    pub fn new(space: &SearchSpace, seed: u64) -> Self {
        Self {
            choices_per_block: space.blocks().iter().map(|b| b.num_choices()).collect(),
            rng: DetRng::new(seed).split(0x5350_4f53), // "SPOS"
            next_id: 0,
        }
    }
}

impl ExplorationStrategy for UniformSampler {
    fn next_subnet(&mut self) -> Subnet {
        let choices = self
            .choices_per_block
            .iter()
            .map(|&n| self.rng.next_below(u64::from(n)) as u32)
            .collect();
        let id = SubnetId(self.next_id);
        self.next_id += 1;
        Subnet::new(id, choices)
    }

    fn next_seq_id(&self) -> SubnetId {
        SubnetId(self.next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Domain;

    #[test]
    fn uniform_sampler_is_deterministic() {
        let space = SearchSpace::nlp_c3();
        let mut a = UniformSampler::new(&space, 99);
        let mut b = UniformSampler::new(&space, 99);
        for _ in 0..50 {
            assert_eq!(a.next_subnet(), b.next_subnet());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let space = SearchSpace::nlp_c3();
        let mut a = UniformSampler::new(&space, 1);
        let mut b = UniformSampler::new(&space, 2);
        let equal = (0..20)
            .filter(|_| a.next_subnet() == b.next_subnet())
            .count();
        assert!(equal < 2);
    }

    #[test]
    fn seq_ids_are_consecutive() {
        let space = SearchSpace::uniform(Domain::Cv, 4, 4);
        let mut s = UniformSampler::new(&space, 7);
        for i in 0..10 {
            assert_eq!(s.next_seq_id(), SubnetId(i));
            assert_eq!(s.next_subnet().seq_id(), SubnetId(i));
        }
    }

    #[test]
    fn sampled_subnets_are_valid() {
        let space = SearchSpace::cv_c2();
        let mut s = UniformSampler::new(&space, 4);
        for _ in 0..100 {
            assert!(s.next_subnet().is_valid_for(&space));
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let space = SearchSpace::uniform(Domain::Nlp, 1, 4);
        let mut s = UniformSampler::new(&space, 17);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[s.next_subnet().choices()[0] as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn take_subnets_collects() {
        let space = SearchSpace::uniform(Domain::Nlp, 2, 3);
        let mut s = UniformSampler::new(&space, 0);
        let v = s.take_subnets(5);
        assert_eq!(v.len(), 5);
        assert_eq!(v[4].seq_id(), SubnetId(4));
    }
}

//! Subnets and the causal-dependency predicate.
//!
//! A subnet is an `m`-sized list of layer choices, one per choice block,
//! identified by its **sequence ID** — its position in the total order the
//! exploration algorithm emits subnets in. If subnets `x < y` activate the
//! same candidate layer in any block, `y` is causally dependent on `x` and
//! must not read that layer before `x`'s write (backward pass) completes.

use crate::layer::LayerRef;
use crate::space::SearchSpace;
use std::fmt;

/// The reserved choice value meaning "this block is skipped": the subnet
/// passes activations through the block unchanged and touches no
/// parameters there.
///
/// Skip choices enable the paper's §5.5 extensions: *dynamic/slimmable
/// networks* (subnets of varying depth) and *hybrid traversal of multiple
/// search spaces* (a union supernet where each subnet activates only its
/// own space's blocks). A skipped block is stateless, so it never induces
/// a causal dependency.
pub const SKIP_CHOICE: u32 = u32::MAX;

/// Position of a subnet in the exploration algorithm's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SubnetId(pub u64);

impl fmt::Display for SubnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SN{}", self.0)
    }
}

/// One sampled architecture: a choice index for every block of the space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subnet {
    seq_id: SubnetId,
    choices: Vec<u32>,
}

impl Subnet {
    /// Creates a subnet with the given sequence ID and per-block choices.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn new(seq_id: SubnetId, choices: Vec<u32>) -> Self {
        assert!(
            !choices.is_empty(),
            "a subnet must choose at least one layer"
        );
        Self { seq_id, choices }
    }

    /// The subnet's position in the exploration order.
    pub fn seq_id(&self) -> SubnetId {
        self.seq_id
    }

    /// Per-block candidate choices, indexed by block.
    pub fn choices(&self) -> &[u32] {
        &self.choices
    }

    /// Number of layers (= number of blocks, `m`).
    pub fn num_layers(&self) -> usize {
        self.choices.len()
    }

    /// The activated layer of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn layer(&self, block: usize) -> LayerRef {
        LayerRef::new(block as u32, self.choices[block])
    }

    /// Whether block `block` is skipped (stateless pass-through).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn skips(&self, block: usize) -> bool {
        self.choices[block] == SKIP_CHOICE
    }

    /// Iterates over the activated (non-skipped) layers in block order.
    pub fn layers(&self) -> impl Iterator<Item = LayerRef> + '_ {
        self.choices
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != SKIP_CHOICE)
            .map(|(b, &c)| LayerRef::new(b as u32, c))
    }

    /// Blocks in which `self` and `other` activate the same candidate —
    /// i.e. the shared layers that induce a causal dependency. Skipped
    /// blocks are stateless and never shared.
    pub fn shared_blocks<'a>(&'a self, other: &'a Subnet) -> impl Iterator<Item = usize> + 'a {
        let common = self.choices.len().min(other.choices.len());
        (0..common)
            .filter(move |&b| self.choices[b] == other.choices[b] && self.choices[b] != SKIP_CHOICE)
    }

    /// Whether any layer is shared with `other` (a causal dependency
    /// exists if the subnets are ordered).
    pub fn conflicts_with(&self, other: &Subnet) -> bool {
        self.shared_blocks(other).next().is_some()
    }

    /// Whether layers of `self` restricted to `blocks` overlap `other`'s
    /// activated layer set — the stage-local check of Algorithm 2 line 7.
    pub fn conflicts_within(&self, blocks: std::ops::Range<usize>, other: &Subnet) -> bool {
        blocks
            .clone()
            .filter(|&b| b < self.choices.len() && b < other.choices.len())
            .any(|b| self.choices[b] == other.choices[b] && self.choices[b] != SKIP_CHOICE)
    }

    /// Validates that every choice is in range for `space` (skip choices
    /// are always valid).
    pub fn is_valid_for(&self, space: &SearchSpace) -> bool {
        self.choices.len() == space.num_blocks()
            && self
                .choices
                .iter()
                .zip(space.blocks())
                .all(|(&c, b)| c == SKIP_CHOICE || c < b.num_choices())
    }

    /// Total parameter bytes of the subnet's activated layers in `space`.
    ///
    /// # Panics
    ///
    /// Panics if the subnet is not valid for `space`.
    pub fn param_bytes(&self, space: &SearchSpace) -> u64 {
        self.layers().map(|l| space.layer_cost(l).param_bytes).sum()
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.seq_id)?;
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("]")
    }
}

/// Probability that two independently uniformly sampled subnets of a space
/// with `choices` candidates per block share at least one of `blocks`
/// layers. This quantifies the paper's key insight: the larger the space,
/// the fewer dependencies manifest between chronologically close subnets.
pub fn collision_probability(blocks: u32, choices: u32) -> f64 {
    1.0 - (1.0 - 1.0 / f64::from(choices)).powi(blocks as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Domain;

    fn subnet(id: u64, choices: &[u32]) -> Subnet {
        Subnet::new(SubnetId(id), choices.to_vec())
    }

    #[test]
    fn shared_blocks_detects_equal_choices() {
        let a = subnet(0, &[1, 2, 3, 4]);
        let b = subnet(1, &[1, 0, 3, 5]);
        assert_eq!(a.shared_blocks(&b).collect::<Vec<_>>(), vec![0, 2]);
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn disjoint_subnets_do_not_conflict() {
        let a = subnet(0, &[0, 0, 0]);
        let b = subnet(1, &[1, 1, 1]);
        assert!(!a.conflicts_with(&b));
        assert_eq!(a.shared_blocks(&b).count(), 0);
    }

    #[test]
    fn conflicts_within_is_stage_local() {
        let a = subnet(0, &[7, 2, 3, 4]);
        let b = subnet(1, &[7, 0, 0, 4]);
        assert!(a.conflicts_within(0..2, &b)); // block 0 shared
        assert!(!a.conflicts_within(1..3, &b)); // blocks 1,2 differ
        assert!(a.conflicts_within(2..4, &b)); // block 3 shared
    }

    #[test]
    fn conflicts_within_handles_out_of_range() {
        let a = subnet(0, &[1, 1]);
        let b = subnet(1, &[1, 1]);
        assert!(a.conflicts_within(0..10, &b));
        assert!(!a.conflicts_within(5..10, &b));
    }

    #[test]
    fn validity_against_space() {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 8);
        assert!(subnet(0, &[0, 7, 3, 5]).is_valid_for(&space));
        assert!(!subnet(0, &[0, 8, 3, 5]).is_valid_for(&space)); // choice oob
        assert!(!subnet(0, &[0, 1, 2]).is_valid_for(&space)); // wrong length
    }

    #[test]
    fn param_totals_are_sums() {
        let space = SearchSpace::uniform(Domain::Cv, 3, 4);
        let s = subnet(0, &[0, 1, 2]);
        let expected_bytes: u64 = (0..3)
            .map(|b| space.layer_cost(LayerRef::new(b, b)).param_bytes)
            .sum();
        assert_eq!(s.param_bytes(&space), expected_bytes);
    }

    #[test]
    fn collision_probability_shrinks_with_choices() {
        let big = collision_probability(48, 96);
        let small = collision_probability(48, 24);
        assert!(big < small);
        // 48 blocks, 96 choices: ~39% chance two adjacent subnets collide.
        assert!((0.3..0.5).contains(&big));
        // 48 blocks, 24 choices: ~87%.
        assert!(small > 0.8);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_subnet_panics() {
        Subnet::new(SubnetId(0), vec![]);
    }

    #[test]
    fn display_formats() {
        let s = subnet(3, &[1, 2]);
        assert_eq!(s.to_string(), "SN3[1,2]");
        assert_eq!(SubnetId(3).to_string(), "SN3");
    }
}

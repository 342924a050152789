//! Search-space definitions, including the seven evaluation spaces of
//! Table 1.
//!
//! A [`SearchSpace`] is a sequence of [`ChoiceBlock`]s; each block holds `n`
//! candidate layers and every subnet selects exactly one candidate per
//! block (per-choice-block uniform sampling, as in SPOS).

use crate::layer::{candidate_cost, Domain, LayerCost, LayerKind, LayerRef};
use std::fmt;

/// Names of the seven default evaluation search spaces (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceId {
    /// NLP, 48 blocks x 96 candidates (Evolved Transformer, WNMT).
    NlpC0,
    /// NLP, 48 blocks x 72 candidates.
    NlpC1,
    /// NLP, 48 blocks x 48 candidates.
    NlpC2,
    /// NLP, 48 blocks x 24 candidates.
    NlpC3,
    /// CV, 32 blocks x 48 candidates (AmoebaNet, ImageNet).
    CvC1,
    /// CV, 32 blocks x 24 candidates.
    CvC2,
    /// CV, 32 blocks x 12 candidates.
    CvC3,
}

impl SpaceId {
    /// All seven spaces in Table 1 order.
    pub const ALL: [SpaceId; 7] = [
        SpaceId::NlpC0,
        SpaceId::NlpC1,
        SpaceId::NlpC2,
        SpaceId::NlpC3,
        SpaceId::CvC1,
        SpaceId::CvC2,
        SpaceId::CvC3,
    ];

    /// The six spaces used by the Table 2 / Table 3 experiments (NLP.c0 is
    /// excluded there because GPipe/PipeDream cannot hold it).
    pub const TABLE2: [SpaceId; 6] = [
        SpaceId::NlpC1,
        SpaceId::NlpC2,
        SpaceId::NlpC3,
        SpaceId::CvC1,
        SpaceId::CvC2,
        SpaceId::CvC3,
    ];

    /// The dataset name used by the paper for this space.
    pub fn dataset(self) -> &'static str {
        match self.domain() {
            Domain::Nlp => "WNMT",
            Domain::Cv => "ImageNet",
        }
    }

    /// Task domain of the space.
    pub fn domain(self) -> Domain {
        match self {
            SpaceId::NlpC0 | SpaceId::NlpC1 | SpaceId::NlpC2 | SpaceId::NlpC3 => Domain::Nlp,
            _ => Domain::Cv,
        }
    }

    /// `(choice blocks, candidates per block)` per Table 1.
    pub fn shape(self) -> (u32, u32) {
        match self {
            SpaceId::NlpC0 => (48, 96),
            SpaceId::NlpC1 => (48, 72),
            SpaceId::NlpC2 => (48, 48),
            SpaceId::NlpC3 => (48, 24),
            SpaceId::CvC1 => (32, 48),
            SpaceId::CvC2 => (32, 24),
            SpaceId::CvC3 => (32, 12),
        }
    }
}

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SpaceId::NlpC0 => "NLP.c0",
            SpaceId::NlpC1 => "NLP.c1",
            SpaceId::NlpC2 => "NLP.c2",
            SpaceId::NlpC3 => "NLP.c3",
            SpaceId::CvC1 => "CV.c1",
            SpaceId::CvC2 => "CV.c2",
            SpaceId::CvC3 => "CV.c3",
        };
        f.write_str(name)
    }
}

/// One choice block: a set of candidate layers, exactly one of which is
/// activated by each subnet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceBlock {
    kinds: Vec<LayerKind>,
    costs: Vec<LayerCost>,
}

impl ChoiceBlock {
    /// Builds a block with `num_choices` candidates drawn from `domain`'s
    /// layer catalog.
    ///
    /// # Panics
    ///
    /// Panics if `num_choices == 0`.
    pub(crate) fn from_catalog(domain: Domain, num_choices: u32) -> Self {
        assert!(
            num_choices > 0,
            "a choice block needs at least one candidate"
        );
        let (kinds, costs) = (0..num_choices).map(|c| candidate_cost(domain, c)).unzip();
        Self { kinds, costs }
    }

    /// Number of candidate layers in this block.
    pub fn num_choices(&self) -> u32 {
        self.kinds.len() as u32
    }

    /// Operator family of candidate `choice`.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is out of range.
    pub fn kind(&self, choice: u32) -> LayerKind {
        self.kinds[choice as usize]
    }

    /// Cost of candidate `choice` at the profiled reference batch size.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is out of range.
    pub fn cost(&self, choice: u32) -> LayerCost {
        self.costs[choice as usize]
    }

    /// Total parameter bytes across all candidates of this block.
    pub fn param_bytes(&self) -> u64 {
        self.costs.iter().map(|c| c.param_bytes).sum()
    }
}

/// A supernet search space: an ordered sequence of choice blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    id: Option<SpaceId>,
    domain: Domain,
    blocks: Vec<ChoiceBlock>,
}

impl SearchSpace {
    /// Builds one of the seven named evaluation spaces.
    pub fn from_id(id: SpaceId) -> Self {
        let (blocks, choices) = id.shape();
        let domain = id.domain();
        Self {
            id: Some(id),
            domain,
            blocks: (0..blocks)
                .map(|_| ChoiceBlock::from_catalog(domain, choices))
                .collect(),
        }
    }

    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::NlpC0)`.
    pub fn nlp_c0() -> Self {
        Self::from_id(SpaceId::NlpC0)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::NlpC1)`.
    pub fn nlp_c1() -> Self {
        Self::from_id(SpaceId::NlpC1)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::NlpC2)`.
    pub fn nlp_c2() -> Self {
        Self::from_id(SpaceId::NlpC2)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::NlpC3)`.
    pub fn nlp_c3() -> Self {
        Self::from_id(SpaceId::NlpC3)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::CvC1)`.
    pub fn cv_c1() -> Self {
        Self::from_id(SpaceId::CvC1)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::CvC2)`.
    pub fn cv_c2() -> Self {
        Self::from_id(SpaceId::CvC2)
    }
    /// Shorthand for [`SearchSpace::from_id`]`(SpaceId::CvC3)`.
    pub fn cv_c3() -> Self {
        Self::from_id(SpaceId::CvC3)
    }

    /// Builds a uniform custom space (`blocks` x `choices`) over `domain`'s
    /// catalog.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0` or `choices == 0`.
    pub fn uniform(domain: Domain, blocks: u32, choices: u32) -> Self {
        assert!(blocks > 0, "a search space needs at least one block");
        Self {
            id: None,
            domain,
            blocks: (0..blocks)
                .map(|_| ChoiceBlock::from_catalog(domain, choices))
                .collect(),
        }
    }

    /// Builds a space from explicit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn from_blocks(domain: Domain, blocks: Vec<ChoiceBlock>) -> Self {
        assert!(
            !blocks.is_empty(),
            "a search space needs at least one block"
        );
        Self {
            id: None,
            domain,
            blocks,
        }
    }

    /// The named identity of this space, if it is one of Table 1's.
    pub fn id(&self) -> Option<SpaceId> {
        self.id
    }

    /// Task domain of the space.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of choice blocks (`m` in the paper).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The choice blocks in order.
    pub fn blocks(&self) -> &[ChoiceBlock] {
        &self.blocks
    }

    /// One block by index.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: usize) -> &ChoiceBlock {
        &self.blocks[block]
    }

    /// Cost of the layer identified by `layer` at the profiled reference
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub(crate) fn layer_cost(&self, layer: LayerRef) -> LayerCost {
        self.blocks[layer.block as usize].cost(layer.choice)
    }

    /// Total parameter bytes of the whole supernet.
    pub fn supernet_param_bytes(&self) -> u64 {
        self.blocks.iter().map(ChoiceBlock::param_bytes).sum()
    }

    /// Number of candidate architectures (`n^m`), saturating at
    /// `f64::INFINITY` representable values.
    pub fn cardinality_log10(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| f64::from(b.num_choices()).log10())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        for id in SpaceId::ALL {
            let space = SearchSpace::from_id(id);
            let (blocks, choices) = id.shape();
            assert_eq!(space.num_blocks() as u32, blocks);
            assert!(space.blocks().iter().all(|b| b.num_choices() == choices));
            assert_eq!(space.id(), Some(id));
        }
    }

    #[test]
    fn nlp_supernet_larger_than_subnet_by_choices() {
        let space = SearchSpace::nlp_c1();
        let total = space.supernet_param_bytes();
        // One subnet averages total / choices-per-block.
        let per_subnet_estimate = total / 72;
        // Paper: subnet ~1.3 GB, supernet ~tens of GB.
        assert!(per_subnet_estimate > 500 * 1_048_576);
        assert!(total > 40 * 1_073_741_824);
    }

    #[test]
    fn larger_spaces_have_more_parameters() {
        let c0 = SearchSpace::nlp_c0().supernet_param_bytes();
        let c1 = SearchSpace::nlp_c1().supernet_param_bytes();
        let c2 = SearchSpace::nlp_c2().supernet_param_bytes();
        let c3 = SearchSpace::nlp_c3().supernet_param_bytes();
        assert!(c0 > c1 && c1 > c2 && c2 > c3);
    }

    #[test]
    fn cardinality_grows_with_choices() {
        let big = SearchSpace::nlp_c0().cardinality_log10();
        let small = SearchSpace::nlp_c3().cardinality_log10();
        assert!(big > small);
        // 96^48 has ~95 digits.
        assert!((90.0..100.0).contains(&big));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SpaceId::NlpC0.to_string(), "NLP.c0");
        assert_eq!(SpaceId::CvC3.to_string(), "CV.c3");
        assert_eq!(SpaceId::NlpC0.dataset(), "WNMT");
        assert_eq!(SpaceId::CvC1.dataset(), "ImageNet");
    }

    #[test]
    fn default_batches_match_table2() {
        assert_eq!(SpaceId::NlpC1.domain().default_batch(), 192);
        assert_eq!(SpaceId::CvC1.domain().default_batch(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_block_panics() {
        ChoiceBlock::from_catalog(Domain::Nlp, 0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_space_panics() {
        SearchSpace::uniform(Domain::Nlp, 0, 4);
    }
}

//! Candidate-layer catalog and cost model.
//!
//! The paper profiles eight representative layer kinds (Table 5): four from
//! the Evolved-Transformer NLP space at input size (192, 1024) and four from
//! the AmoebaNet CV space at input size (64, 112, 112). Each kind carries a
//! forward/backward compute time and a CPU→GPU swap time; swap time is the
//! parameter size divided by the PCIe 3.0 x16 bandwidth of the testbed
//! (15 760 MB/s), which lets us recover parameter sizes from Table 5.
//!
//! Choice blocks with more candidates than there are base kinds cycle
//! through the kinds with a deterministic per-choice scale factor, so every
//! candidate in a block has distinct-but-plausible costs. This mirrors the
//! paper's setup where candidates are variants (kernel sizes, expansion
//! ratios) of a handful of operator families.

use std::fmt;

/// PCIe 3.0 x16 host-to-device bandwidth of the paper's testbed, in
/// megabytes per second.
pub(crate) const PCIE_BANDWIDTH_MB_PER_S: f64 = 15_760.0;

/// Task domain a search space targets. Determines which base layer kinds
/// its choice blocks draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Natural-language processing (Evolved-Transformer space, WNMT data).
    Nlp,
    /// Computer vision (AmoebaNet space, ImageNet data).
    Cv,
}

impl Domain {
    /// Default pipeline input batch size NASPipe uses on a space of this
    /// domain (Table 2 "B.S." column), and the batch the DES and the
    /// intra-subnet baseline price layers at.
    pub fn default_batch(self) -> u32 {
        match self {
            Domain::Nlp => 192,
            Domain::Cv => 64,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Nlp => f.write_str("NLP"),
            Domain::Cv => f.write_str("CV"),
        }
    }
}

/// One of the eight profiled operator families of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// NLP: 3x1 convolution.
    Conv3x1,
    /// NLP: separable 7x1 convolution.
    SepConv7x1,
    /// NLP: lightweight 5x1 convolution.
    LightConv5x1,
    /// NLP: 8-head self-attention.
    Attention8Head,
    /// CV: 3x3 convolution.
    Conv3x3,
    /// CV: separable 3x3 convolution.
    SepConv3x3,
    /// CV: separable 5x5 convolution.
    SepConv5x5,
    /// CV: dilated 3x3 convolution.
    DilConv3x3,
}

impl LayerKind {
    /// The four base kinds of the given domain, in catalog order.
    pub fn base_kinds(domain: Domain) -> [LayerKind; 4] {
        match domain {
            Domain::Nlp => [
                LayerKind::Conv3x1,
                LayerKind::SepConv7x1,
                LayerKind::LightConv5x1,
                LayerKind::Attention8Head,
            ],
            Domain::Cv => [
                LayerKind::Conv3x3,
                LayerKind::SepConv3x3,
                LayerKind::SepConv5x5,
                LayerKind::DilConv3x3,
            ],
        }
    }

    /// Profiled cost of this kind at the paper's reference input size
    /// (Table 5), per input batch.
    pub fn profiled_cost(self) -> LayerCost {
        // (fwd ms, bwd ms, swap ms) straight from Table 5.
        let (fwd_ms, bwd_ms, swap_ms) = match self {
            LayerKind::Conv3x1 => (5.0, 10.0, 1.76),
            LayerKind::SepConv7x1 => (4.2, 5.7, 0.56),
            LayerKind::LightConv5x1 => (0.68, 1.4, 0.03),
            LayerKind::Attention8Head => (7.9, 13.8, 2.07),
            LayerKind::Conv3x3 => (7.9, 13.8, 4.6),
            LayerKind::SepConv3x3 => (2.8, 4.0, 0.68),
            LayerKind::SepConv5x5 => (6.7, 9.9, 2.04),
            LayerKind::DilConv3x3 => (2.5, 3.4, 0.58),
        };
        let param_bytes = (swap_ms / 1_000.0 * PCIE_BANDWIDTH_MB_PER_S * 1_048_576.0) as u64;
        LayerCost {
            fwd_ms,
            bwd_ms,
            swap_ms,
            param_bytes,
        }
    }

    /// Reference batch size the Table 5 profile was taken at.
    pub fn reference_batch(self) -> u32 {
        match self {
            LayerKind::Conv3x1
            | LayerKind::SepConv7x1
            | LayerKind::LightConv5x1
            | LayerKind::Attention8Head => 192,
            _ => 64,
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LayerKind::Conv3x1 => "Conv 3x1",
            LayerKind::SepConv7x1 => "Sep Conv 7x1",
            LayerKind::LightConv5x1 => "Light Conv 5x1",
            LayerKind::Attention8Head => "8 Head Attention",
            LayerKind::Conv3x3 => "Conv 3x3",
            LayerKind::SepConv3x3 => "Sep Conv 3x3",
            LayerKind::SepConv5x5 => "Sep Conv 5x5",
            LayerKind::DilConv3x3 => "Dil Conv 3x3",
        };
        f.write_str(name)
    }
}

/// Compute and transfer costs of one candidate layer for one input batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCost {
    /// Forward-pass time in milliseconds.
    pub fwd_ms: f64,
    /// Backward-pass time in milliseconds (includes the optimizer step).
    pub bwd_ms: f64,
    /// Time to swap the parameters CPU→GPU over PCIe, in milliseconds.
    pub swap_ms: f64,
    /// Parameter size in bytes.
    pub param_bytes: u64,
}

impl LayerCost {
    /// Total compute time (forward + backward) in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.fwd_ms + self.bwd_ms
    }

    /// Scales every cost component by `factor` (candidate variants).
    pub fn scaled(&self, factor: f64) -> LayerCost {
        LayerCost {
            fwd_ms: self.fwd_ms * factor,
            bwd_ms: self.bwd_ms * factor,
            swap_ms: self.swap_ms * factor,
            param_bytes: (self.param_bytes as f64 * factor) as u64,
        }
    }

    /// Compute cost rescaled linearly from the profiled reference batch to
    /// `batch` samples; swap cost and parameter bytes are batch-invariant.
    pub(crate) fn at_batch(&self, reference_batch: u32, batch: u32) -> LayerCost {
        let ratio = f64::from(batch) / f64::from(reference_batch);
        LayerCost {
            fwd_ms: self.fwd_ms * ratio,
            bwd_ms: self.bwd_ms * ratio,
            swap_ms: self.swap_ms,
            param_bytes: self.param_bytes,
        }
    }
}

/// Identifies one candidate layer inside a supernet: choice `choice` of
/// block `block`.
///
/// Two subnets share parameters exactly when they contain an identical
/// `LayerRef`; this is the unit of the causal-dependency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerRef {
    /// Index of the choice block within the supernet.
    pub block: u32,
    /// Index of the candidate within the block.
    pub choice: u32,
}

impl LayerRef {
    /// Creates a reference to candidate `choice` of block `block`.
    pub fn new(block: u32, choice: u32) -> Self {
        Self { block, choice }
    }
}

impl fmt::Display for LayerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}c{}", self.block, self.choice)
    }
}

/// Deterministic cost of candidate `choice` of a block with base kinds from
/// `domain`.
///
/// Candidates cycle through the domain's four base kinds. Compute cost
/// varies per candidate by a hash-derived factor in `[0.75, 1.5)` —
/// heterogeneous (so balanced partitioning matters) but with a mean that
/// does **not** grow with the number of candidates, keeping per-subnet
/// work comparable across space sizes. Parameter size grows +1 % per
/// four-candidate tier, so total supernet parameter sizes track the
/// paper's (GPipe can just hold NLP.c1's stage slice on 8 GPUs but not
/// NLP.c0's, matching §5.1).
pub(crate) fn candidate_cost(domain: Domain, choice: u32) -> (LayerKind, LayerCost) {
    let kinds = LayerKind::base_kinds(domain);
    let kind = kinds[(choice as usize) % kinds.len()];
    let tier = f64::from(choice / kinds.len() as u32);
    let base = kind.profiled_cost();
    // SplitMix64-style avalanche of the choice index -> stable pseudo-
    // random compute factor, identical on every platform and release.
    let mut h = u64::from(choice).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    let compute = 0.75 + 0.75 * unit;
    let size = 1.0 + 0.01 * tier;
    (
        kind,
        LayerCost {
            fwd_ms: base.fwd_ms * compute,
            bwd_ms: base.bwd_ms * compute,
            swap_ms: base.swap_ms * size,
            param_bytes: (base.param_bytes as f64 * size) as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_swap_implies_param_bytes() {
        // Conv 3x1 swaps in 1.76 ms over 15 760 MB/s => ~27.7 MB.
        let cost = LayerKind::Conv3x1.profiled_cost();
        let mb = cost.param_bytes as f64 / 1_048_576.0;
        assert!((27.0..29.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn light_conv_is_cheapest_nlp_kind() {
        let light = LayerKind::LightConv5x1.profiled_cost();
        for kind in LayerKind::base_kinds(Domain::Nlp) {
            assert!(light.total_ms() <= kind.profiled_cost().total_ms());
        }
    }

    #[test]
    fn all_kinds_have_positive_costs() {
        for domain in [Domain::Nlp, Domain::Cv] {
            for kind in LayerKind::base_kinds(domain) {
                let c = kind.profiled_cost();
                assert!(c.fwd_ms > 0.0 && c.bwd_ms > 0.0 && c.swap_ms > 0.0);
                assert!(c.param_bytes > 0);
            }
        }
    }

    #[test]
    fn backward_slower_than_forward() {
        // Backward includes gradient computation plus the optimizer step.
        for domain in [Domain::Nlp, Domain::Cv] {
            for kind in LayerKind::base_kinds(domain) {
                let c = kind.profiled_cost();
                assert!(c.bwd_ms > c.fwd_ms, "{kind}");
            }
        }
    }

    #[test]
    fn candidate_costs_cycle_kinds_and_vary_compute() {
        let (k0, c0) = candidate_cost(Domain::Nlp, 0);
        let (k4, c4) = candidate_cost(Domain::Nlp, 4);
        assert_eq!(k0, k4, "kinds cycle every four candidates");
        assert_ne!(c0.fwd_ms, c4.fwd_ms, "variants have distinct compute");
        let (k1, _) = candidate_cost(Domain::Nlp, 1);
        assert_ne!(k0, k1);
        // Parameter size grows with the tier; compute factor is bounded.
        assert!(c4.param_bytes > c0.param_bytes);
        for c in 0..64 {
            let (kind, cost) = candidate_cost(Domain::Nlp, c);
            let base = kind.profiled_cost();
            let f = cost.fwd_ms / base.fwd_ms;
            assert!((0.75..1.5).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn mean_compute_does_not_grow_with_choice_count() {
        // Per-subnet work must be comparable across space sizes: the mean
        // candidate cost of the first 24 choices and of all 96 choices
        // agree within a few percent.
        let mean = |n: u32| {
            (0..n)
                .map(|c| candidate_cost(Domain::Nlp, c).1.total_ms())
                .sum::<f64>()
                / f64::from(n)
        };
        let small = mean(24);
        let large = mean(96);
        assert!(
            (small - large).abs() / small < 0.08,
            "means diverge: {small} vs {large}"
        );
    }

    #[test]
    fn at_batch_scales_compute_not_swap() {
        let c = LayerKind::Conv3x1.profiled_cost();
        let half = c.at_batch(192, 96);
        assert!((half.fwd_ms - c.fwd_ms / 2.0).abs() < 1e-9);
        assert_eq!(half.param_bytes, c.param_bytes);
        assert_eq!(half.swap_ms, c.swap_ms);
    }

    #[test]
    fn layer_ref_display_and_order() {
        let a = LayerRef::new(1, 2);
        let b = LayerRef::new(2, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "b1c2");
    }
}

//! Intra-subnet task generation — the alternative the paper argues
//! against (§2.2).
//!
//! Instead of pipelining *different* subnets (inter-subnet), intra-subnet
//! generation splits one subnet's batch into micro-batches and pipelines
//! those, flushing before the next subnet (GPipe's native mode). The
//! paper's argument: this is "non-general", efficient only for large
//! batches — with the small batches supernet algorithms use, the pipeline
//! never fills and per-micro-batch GPU efficiency collapses.
//!
//! This module models intra-subnet execution analytically (its schedule
//! is closed-form: a fill-drain pipeline of identical micro-tasks) so the
//! generation modes can be compared under the same cost model.

use naspipe_core::report::alu_efficiency;
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

/// Analytic result of intra-subnet (micro-batched) execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraSubnetEstimate {
    /// Micro-batches per subnet.
    pub microbatches: u32,
    /// Samples per micro-batch.
    pub micro_size: u32,
    /// Pipeline bubble ratio: `(D-1) / (u + D - 1)`.
    pub bubble_ratio: f64,
    /// Samples per second of virtual time.
    pub throughput: f64,
    /// Total ALU utilisation (busy fraction x micro-batch efficiency,
    /// summed over GPUs).
    pub total_alu: f64,
}

/// Estimates intra-subnet execution of `space` on `gpus` GPUs at input
/// batch `batch`, split into `microbatches`.
///
/// Per-stage micro-task time uses the same saturation model as the
/// engine: compute scales as `(b + 2 ref) / (3 ref)` and efficiency as
/// `b / (b + ref/2)` with `b = batch / microbatches`.
///
/// # Panics
///
/// Panics if any argument is zero or `microbatches > batch`.
pub fn estimate(
    space: &SearchSpace,
    gpus: u32,
    batch: u32,
    microbatches: u32,
    sample_subnets: u32,
) -> IntraSubnetEstimate {
    assert!(
        gpus > 0 && batch > 0 && microbatches > 0,
        "arguments must be positive"
    );
    assert!(
        microbatches <= batch,
        "cannot split {batch} samples into {microbatches}"
    );
    let reference = space.domain().default_batch();
    let micro = batch / microbatches;
    let profile = ProfiledSpace::new(space, reference);

    // Average per-subnet compute at the reference batch, then rescale one
    // micro-task: stage time = subnet_total / D / u, scaled by the
    // saturation curve at the micro size.
    let mut sampler = UniformSampler::new(space, 0x494e_5452); // "INTR"
    let mut total_ms = 0.0;
    for _ in 0..sample_subnets.max(1) {
        total_ms += profile.subnet_total_ms(&sampler.next_subnet());
    }
    total_ms /= f64::from(sample_subnets.max(1));
    // One micro-task covers `micro` samples; under the saturation model
    // its stage time is the reference stage time scaled by
    // (micro + 2 ref) / (3 ref) — far more than `micro/batch` of the
    // full-batch time, which is exactly why small micro-batches lose.
    let sat = 2.0 * f64::from(reference);
    let scale = (f64::from(micro) + sat) / (f64::from(reference) + sat);
    let micro_stage_ms = total_ms / f64::from(gpus) * scale;

    // Fill-drain: u micro-tasks through D stages (forward and backward
    // both pipeline, so the slot count doubles but the ratio is the same).
    let d = f64::from(gpus);
    let u = f64::from(microbatches);
    let bubble = (d - 1.0) / (u + d - 1.0);
    let span_ms = (u + d - 1.0) * micro_stage_ms * 3.0; // fwd + bwd(2x)
    let throughput = f64::from(batch) / (span_ms / 1_000.0);
    let eff = alu_efficiency(micro.max(1), reference);
    let total_alu = (1.0 - bubble) * eff * d;
    IntraSubnetEstimate {
        microbatches,
        micro_size: micro,
        bubble_ratio: bubble,
        throughput,
        total_alu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_microbatches_less_bubble_but_less_efficiency() {
        let space = SearchSpace::nlp_c2();
        let few = estimate(&space, 8, 64, 2, 8);
        let many = estimate(&space, 8, 64, 16, 8);
        assert!(many.bubble_ratio < few.bubble_ratio);
        // But the micro size collapses (64/16 = 4 samples) and so does
        // per-task efficiency.
        assert!(many.micro_size < few.micro_size);
        assert!(many.total_alu < 8.0);
    }

    #[test]
    fn small_batches_make_intra_subnet_inefficient() {
        // The paper's §2.2 argument: at supernet-typical batches the
        // micro-batches are tiny and utilisation collapses.
        let space = SearchSpace::nlp_c2();
        let small_batch = estimate(&space, 8, 32, 8, 8);
        let large_batch = estimate(&space, 8, 512, 8, 8);
        assert!(
            small_batch.total_alu < large_batch.total_alu * 0.6,
            "small {} vs large {}",
            small_batch.total_alu,
            large_batch.total_alu
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let space = SearchSpace::cv_c2();
        assert_eq!(estimate(&space, 8, 64, 8, 8), estimate(&space, 8, 64, 8, 8));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn oversplitting_panics() {
        estimate(&SearchSpace::cv_c3(), 8, 4, 8, 1);
    }
}

//! Seed-reproducible synthetic datasets.
//!
//! Stand-ins for WNMT (NLP) and ImageNet (CV): each training step yields a
//! deterministic `(input, target)` batch pair. Targets come from a fixed
//! random "teacher" transformation of the inputs, so training genuinely
//! reduces loss while remaining a pure function of the seed — which is all
//! the paper's systems evaluation requires of the data.

use crate::tensor::Tensor;
use naspipe_supernet::rng::DetRng;

/// A deterministic synthetic regression dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    seed: u64,
    batch: usize,
    dim: usize,
    teacher: Tensor,
}

impl SyntheticDataset {
    /// Creates a dataset emitting `[batch, dim]` input/target pairs.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `dim == 0`.
    pub fn new(seed: u64, batch: usize, dim: usize) -> Self {
        assert!(batch > 0 && dim > 0, "batch and dim must be positive");
        let mut rng = DetRng::new(seed).split(0x5445_4143); // "TEAC"
        let scale = 1.0 / (dim as f32).sqrt();
        let teacher = Tensor::from_vec(
            (0..dim * dim)
                .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
                .collect(),
            &[dim, dim],
        );
        Self {
            seed,
            batch,
            dim,
            teacher,
        }
    }

    /// Batch size of emitted pairs.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Feature dimension of emitted pairs.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The deterministic input batch of training step `step`.
    ///
    /// Independent of how many batches were fetched before — random access
    /// by step index is what lets differently-parallel runs consume
    /// identical data.
    pub fn input(&self, step: u64) -> Tensor {
        let mut rng = DetRng::new(self.seed).split(step.wrapping_add(1));
        Tensor::from_vec(
            (0..self.batch * self.dim)
                .map(|_| rng.next_f32() * 2.0 - 1.0)
                .collect(),
            &[self.batch, self.dim],
        )
    }

    /// The teacher's target for `input` — a pipeline's first stage needs
    /// only [`input`](Self::input), its last only the target.
    pub fn target_of(&self, input: &Tensor) -> Tensor {
        let mut target = input.matmul(&self.teacher);
        target.map_inplace(f32::tanh);
        target
    }

    /// The deterministic `(input, target)` pair for training step `step`.
    pub fn step_batch(&self, step: u64) -> (Tensor, Tensor) {
        let input = self.input(step);
        let target = self.target_of(&input);
        (input, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_reproducible() {
        let d1 = SyntheticDataset::new(5, 4, 8);
        let d2 = SyntheticDataset::new(5, 4, 8);
        let (x1, y1) = d1.step_batch(17);
        let (x2, y2) = d2.step_batch(17);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn random_access_is_order_independent() {
        let d = SyntheticDataset::new(5, 4, 8);
        let (a, _) = d.step_batch(3);
        let _ = d.step_batch(0);
        let (b, _) = d.step_batch(3);
        assert_eq!(a, b);
    }

    #[test]
    fn input_and_target_of_compose_to_step_batch() {
        let d = SyntheticDataset::new(5, 4, 8);
        for step in [0, 1, 17, u64::MAX] {
            let x = d.input(step);
            assert_eq!((x.clone(), d.target_of(&x)), d.step_batch(step));
        }
    }

    #[test]
    fn different_steps_differ() {
        let d = SyntheticDataset::new(5, 4, 8);
        assert_ne!(d.step_batch(0).0, d.step_batch(1).0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::new(1, 4, 8);
        let b = SyntheticDataset::new(2, 4, 8);
        assert_ne!(a.step_batch(0).0, b.step_batch(0).0);
    }

    #[test]
    fn shapes_match_config() {
        let d = SyntheticDataset::new(0, 3, 5);
        let (x, y) = d.step_batch(0);
        assert_eq!(x.shape(), &[3, 5]);
        assert_eq!(y.shape(), &[3, 5]);
        assert_eq!(d.batch_size(), 3);
        assert_eq!(d.dim(), 5);
    }

    #[test]
    fn targets_are_bounded_by_tanh() {
        let d = SyntheticDataset::new(0, 8, 8);
        let (_, y) = d.step_batch(0);
        assert!(y.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_batch_panics() {
        SyntheticDataset::new(0, 0, 4);
    }
}

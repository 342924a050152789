//! Loss functions.

use crate::tensor::Tensor;

/// Mean-squared-error loss and its gradient with respect to the
/// prediction: `L = mean((pred - target)^2)`, `dL/dpred =
/// 2 (pred - target) / N`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let mut diff = pred.sub(target);
    let n = diff.numel() as f32;
    let loss = diff.sum_sq() / n;
    let scale = 2.0 / n;
    diff.map_inplace(|d| d * scale);
    (loss, diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_at_target() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let (loss, grad) = mse(&t, &t);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn known_value() {
        let p = Tensor::from_vec(vec![3.0, 0.0], &[1, 2]);
        let t = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let (loss, grad) = mse(&p, &t);
        assert_eq!(loss, 2.0); // (4 + 0) / 2
        assert_eq!(grad.data(), &[2.0, 0.0]); // 2*2/2
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let p = Tensor::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]);
        let t = Tensor::from_vec(vec![0.1, 0.1, 0.1], &[1, 3]);
        let (_, grad) = mse(&p, &t);
        let eps = 1e-3;
        for i in 0..3 {
            let mut pp = p.clone();
            pp.data_mut()[i] += eps;
            let mut pm = p.clone();
            pm.data_mut()[i] -= eps;
            let num = (mse(&pp, &t).0 - mse(&pm, &t).0) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        mse(&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[2, 1]));
    }
}

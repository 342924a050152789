//! Deterministic optimizers.
//!
//! Updates apply element-by-element in index order, so every step is
//! bitwise deterministic. Stateful optimizers (momentum) key their state
//! by [`LayerRef`]; under CSP the writes to each layer happen in
//! sequential order, so the optimizer state evolves identically on any
//! number of GPUs — reproducibility covers the optimizer, not just the
//! weights.

use crate::layers::{DenseGrads, DenseParams};
use crate::tensor::Tensor;
use naspipe_supernet::layer::LayerRef;
use std::collections::BTreeMap;

/// Plain SGD: `w <- w - lr * g`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an optimizer with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self { lr }
    }

    /// Applies one update step to `params` in place.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes do not match the parameters.
    pub fn step(&self, params: &mut DenseParams, grads: &DenseGrads) {
        assert_eq!(
            params.weight.shape(),
            grads.weight.shape(),
            "weight shape mismatch"
        );
        assert_eq!(
            params.bias.shape(),
            grads.bias.shape(),
            "bias shape mismatch"
        );
        for (w, g) in params.weight.data_mut().iter_mut().zip(grads.weight.data()) {
            *w -= self.lr * g;
        }
        for (b, g) in params.bias.data_mut().iter_mut().zip(grads.bias.data()) {
            *b -= self.lr * g;
        }
    }
}

/// SGD with classical momentum and decoupled weight decay:
///
/// ```text
/// v <- mu * v + g + wd * w
/// w <- w - lr * v
/// ```
///
/// Velocity state is held per layer, created lazily at a layer's first
/// update.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumSgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: BTreeMap<LayerRef, DenseGrads>,
}

impl MomentumSgd {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive, or `momentum`/`weight_decay` are
    /// outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&weight_decay),
            "weight_decay must be in [0, 1)"
        );
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: BTreeMap::new(),
        }
    }

    /// Reassembles an optimizer from serialized state — the inverse of
    /// reading [`lr`](Self::lr)/[`momentum`](Self::momentum)/
    /// [`weight_decay`](Self::weight_decay)/[`velocity`](Self::velocity).
    /// Restoring the exact velocity map is what makes a resumed run
    /// bitwise-continue where the snapshot left off.
    ///
    /// # Panics
    ///
    /// Panics if the coefficients are out of range (see [`new`](Self::new)).
    pub fn from_state(
        lr: f32,
        momentum: f32,
        weight_decay: f32,
        velocity: BTreeMap<LayerRef, DenseGrads>,
    ) -> Self {
        let mut opt = Self::new(lr, momentum, weight_decay);
        opt.velocity = velocity;
        opt
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// The configured momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// The configured decoupled weight-decay coefficient.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    /// The per-layer velocity state, in layer order.
    pub fn velocity(&self) -> &BTreeMap<LayerRef, DenseGrads> {
        &self.velocity
    }

    /// Applies one update step to `layer`'s parameters in place.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes do not match the parameters.
    pub fn step(&mut self, layer: LayerRef, params: &mut DenseParams, grads: &DenseGrads) {
        assert_eq!(
            params.weight.shape(),
            grads.weight.shape(),
            "weight shape mismatch"
        );
        assert_eq!(
            params.bias.shape(),
            grads.bias.shape(),
            "bias shape mismatch"
        );
        let v = self.velocity.entry(layer).or_insert_with(|| DenseGrads {
            weight: Tensor::zeros(params.weight.shape()),
            bias: Tensor::zeros(params.bias.shape()),
        });
        let mu = self.momentum;
        let wd = self.weight_decay;
        for ((w, g), vw) in params
            .weight
            .data_mut()
            .iter_mut()
            .zip(grads.weight.data())
            .zip(v.weight.data_mut())
        {
            *vw = mu * *vw + g + wd * *w;
            *w -= self.lr * *vw;
        }
        for ((b, g), vb) in params
            .bias
            .data_mut()
            .iter_mut()
            .zip(grads.bias.data())
            .zip(v.bias.data_mut())
        {
            *vb = mu * *vb + g + wd * *b;
            *b -= self.lr * *vb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (DenseParams, DenseGrads) {
        let params = DenseParams {
            weight: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            bias: Tensor::from_vec(vec![0.5, -0.5], &[1, 2]),
        };
        let grads = DenseGrads {
            weight: Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]),
            bias: Tensor::from_vec(vec![1.0, -1.0], &[1, 2]),
        };
        (params, grads)
    }

    #[test]
    fn step_descends() {
        let (mut p, g) = tiny();
        Sgd::new(0.1).step(&mut p, &g);
        assert_eq!(p.weight.data(), &[0.9, 1.9, 2.9, 3.9]);
        assert_eq!(p.bias.data(), &[0.4, -0.4]);
    }

    #[test]
    fn step_is_bitwise_deterministic() {
        let (p0, g) = tiny();
        let mut a = p0.clone();
        let mut b = p0;
        let opt = Sgd::new(0.01);
        for _ in 0..100 {
            opt.step(&mut a, &g);
            opt.step(&mut b, &g);
        }
        for (x, y) in a.weight.data().iter().zip(b.weight.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (mut p, g) = tiny();
        let layer = LayerRef::new(0, 0);
        let mut opt = MomentumSgd::new(0.1, 0.9, 0.0);
        // First step: v = g, w -= 0.1 * g.
        opt.step(layer, &mut p, &g);
        assert_eq!(p.weight.data()[0], 0.9);
        // Second step: v = 0.9*1 + 1 = 1.9, w = 0.9 - 0.19 = 0.71.
        opt.step(layer, &mut p, &g);
        assert!((p.weight.data()[0] - 0.71).abs() < 1e-6);
        assert_eq!(opt.velocity().len(), 1);
        assert_eq!(opt.momentum(), 0.9);
    }

    #[test]
    fn momentum_with_zero_mu_equals_plain_sgd() {
        let (p0, g) = tiny();
        let mut plain = p0.clone();
        Sgd::new(0.1).step(&mut plain, &g);
        let mut with_momentum = p0;
        MomentumSgd::new(0.1, 0.0, 0.0).step(LayerRef::new(0, 0), &mut with_momentum, &g);
        assert_eq!(plain, with_momentum);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut p, _) = tiny();
        let zero_grads = DenseGrads {
            weight: Tensor::zeros(&[2, 2]),
            bias: Tensor::zeros(&[1, 2]),
        };
        let before = p.weight.data()[3];
        MomentumSgd::new(0.1, 0.0, 0.01).step(LayerRef::new(0, 0), &mut p, &zero_grads);
        assert!(p.weight.data()[3].abs() < before.abs());
    }

    #[test]
    fn per_layer_state_is_independent() {
        let (mut p1, g) = tiny();
        let mut p2 = p1.clone();
        let mut opt = MomentumSgd::new(0.1, 0.9, 0.0);
        opt.step(LayerRef::new(0, 0), &mut p1, &g);
        opt.step(LayerRef::new(1, 0), &mut p2, &g);
        // Both got a first step (v = g), so equal updates.
        assert_eq!(p1, p2);
        assert_eq!(opt.velocity().len(), 2);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_panics() {
        Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn bad_momentum_panics() {
        MomentumSgd::new(0.1, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn shape_mismatch_panics() {
        let (mut p, _) = tiny();
        let bad = DenseGrads {
            weight: Tensor::zeros(&[1, 1]),
            bias: Tensor::zeros(&[1, 2]),
        };
        Sgd::new(0.1).step(&mut p, &bad);
    }
}

//! Dense layers with explicit forward and backward passes.
//!
//! Autograd is deliberately manual: the training engine must control
//! exactly when parameters are *read* (forward) and *written* (optimizer
//! step after backward), because the interleaving of those accesses across
//! subnets is what CSP/BSP/ASP differ on.

use crate::tensor::Tensor;
use naspipe_supernet::rng::DetRng;

/// Parameters of one residual dense layer: `y = x + tanh(x W + b)`.
///
/// The residual connection keeps gradients flowing through the dozens of
/// chained choice blocks a supernet stacks (48 for the NLP spaces), like
/// the skip connections of the real Evolved-Transformer/AmoebaNet cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseParams {
    /// Weight matrix, `[in, out]`.
    pub weight: Tensor,
    /// Bias row, `[1, out]`.
    pub bias: Tensor,
}

impl DenseParams {
    /// Deterministically initialises a `[dim, dim]` layer from `rng`
    /// with scaled-uniform weights.
    pub fn init(dim: usize, rng: &mut DetRng) -> Self {
        let scale = 1.0 / (dim as f32).sqrt();
        let weight = Tensor::from_vec(
            (0..dim * dim)
                .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
                .collect(),
            &[dim, dim],
        );
        let bias = Tensor::zeros(&[1, dim]);
        Self { weight, bias }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }
}

/// Cached activations needed by the backward pass of one dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCache {
    /// The layer input `x`.
    pub input: Tensor,
    /// The pre-residual activation `t = tanh(x W + b)`.
    pub tanh_out: Tensor,
}

/// Gradients of one dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// `dL/dW`, `[in, out]`.
    pub weight: Tensor,
    /// `dL/db`, `[1, out]`.
    pub bias: Tensor,
}

/// Forward pass: `y = x + scale * tanh(x W + b)`. Takes the input by
/// value — it moves into the returned cache for [`dense_backward`]
/// instead of being copied.
///
/// `scale` damps the residual branch so stacks of dozens of blocks keep
/// O(1) activations (pick ~`1/sqrt(depth)`); pass `1.0` for the plain
/// residual layer.
///
/// One product and one fused epilogue pass; the only allocations are the
/// two tensors returned. Per element the operation sequence is that of
/// the op-by-op composition (`matmul`, `add_row`, `tanh`, `scale`,
/// `add`), so the bits are too.
pub fn dense_forward(params: &DenseParams, input: Tensor, scale: f32) -> (Tensor, DenseCache) {
    let mut tanh_out = input.matmul(&params.weight);
    let output = tanh_out.bias_tanh_residual(&params.bias, &input, scale);
    (output, DenseCache { input, tanh_out })
}

/// Input-gradient half of the backward pass, given `dL/dy` (with the
/// same `scale` as the forward): the fused prologue turns the cache's
/// activation into `dz` in place, and `dL/dx = dz Wᵀ + dL/dy` is formed
/// from the weights as the forward read them. Returns `(dL/dx, dL/db)`;
/// `dL/dx` is `None` unless `input_grad` (a subnet's first layer reads
/// its input, whose gradient nobody reads).
///
/// Afterwards the cache holds `x` and `dz`: hand it and `dL/db` to
/// [`dense_backward_weight`], which reads no weight — so a pipeline
/// stage can send `dL/dx` upstream first. The only allocations are the
/// tensors returned.
pub fn dense_backward_input(
    params: &DenseParams,
    cache: &mut DenseCache,
    grad_output: &Tensor,
    scale: f32,
    input_grad: bool,
) -> (Option<Tensor>, Tensor) {
    // Through the scaled tanh branch; the residual passes grad_output
    // through untouched. The product is bitwise identical to the
    // transpose()+matmul form, without materialising the transpose.
    let dz = &mut cache.tanh_out;
    let grad_bias = dz.tanh_grad_inplace(grad_output, scale);
    let grad_input = input_grad.then(|| {
        let mut grad_input = dz.matmul_t(&params.weight);
        grad_input.add_inplace(grad_output);
        grad_input
    });
    (grad_input, grad_bias)
}

/// Weight half of the backward pass: `dL/dW = xᵀ dz` from a cache that
/// [`dense_backward_input`] turned into `dz`, beside the `dL/db` it
/// returned. The product is independent of the input half's, so running
/// it alone (or later) moves no bit. The only allocation is `dL/dW`.
pub fn dense_backward_weight(cache: DenseCache, grad_bias: Tensor) -> DenseGrads {
    DenseGrads {
        weight: cache.input.t_matmul(&cache.tanh_out),
        bias: grad_bias,
    }
}

/// Backward pass given `dL/dy` (with the same `scale` as the forward):
/// [`dense_backward_input`], then [`dense_backward_weight`]. Returns
/// `(dL/dx, grads)`, with `dL/dx` only when `input_grad`. Consumes the
/// cache: `dz` is formed in the activation's buffer, so the only
/// allocations are the tensors returned.
pub fn dense_backward(
    params: &DenseParams,
    mut cache: DenseCache,
    grad_output: &Tensor,
    scale: f32,
    input_grad: bool,
) -> (Option<Tensor>, DenseGrads) {
    let (grad_input, grad_bias) =
        dense_backward_input(params, &mut cache, grad_output, scale, input_grad);
    (grad_input, dense_backward_weight(cache, grad_bias))
}

/// The op-by-op composition the fused layer replaced: one single-purpose
/// tensor op (and one fresh tensor) per step. Kept as the reference the
/// fused path is held bit-for-bit equal to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn dense_forward(
        params: &DenseParams,
        input: &Tensor,
        scale: f32,
    ) -> (Tensor, DenseCache) {
        let tanh_out = input.matmul(&params.weight).add_row(&params.bias).tanh();
        let output = input.add(&tanh_out.scale(scale));
        (
            output,
            DenseCache {
                input: input.clone(),
                tanh_out,
            },
        )
    }

    pub(crate) fn dense_backward(
        params: &DenseParams,
        cache: &DenseCache,
        grad_output: &Tensor,
        scale: f32,
    ) -> (Tensor, DenseGrads) {
        let dz = Tensor::tanh_backward(&cache.tanh_out, &grad_output.scale(scale));
        let grad_weight = cache.input.t_matmul(&dz);
        let grad_input = grad_output.add(&dz.matmul_t(&params.weight));
        (
            grad_input,
            DenseGrads {
                weight: grad_weight,
                bias: dz.sum_rows(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DenseParams {
        let mut rng = DetRng::new(42);
        DenseParams::init(4, &mut rng)
    }

    #[test]
    fn init_is_deterministic() {
        let mut r1 = DetRng::new(7);
        let mut r2 = DetRng::new(7);
        assert_eq!(DenseParams::init(8, &mut r1), DenseParams::init(8, &mut r2));
    }

    #[test]
    fn forward_shapes() {
        let p = params();
        let x = Tensor::zeros(&[3, 4]);
        let (y, cache) = dense_forward(&p, x.clone(), 1.0);
        assert_eq!(y.shape(), &[3, 4]);
        assert_eq!(cache.input.shape(), &[3, 4]);
    }

    #[test]
    fn zero_input_gives_tanh_bias() {
        // With x = 0 the residual contributes nothing: y = tanh(b).
        let mut p = params();
        p.bias = Tensor::from_vec(vec![0.5; 4], &[1, 4]);
        let x = Tensor::zeros(&[1, 4]);
        let (y, _) = dense_forward(&p, x.clone(), 1.0);
        for &v in y.data() {
            assert!((v - 0.5f32.tanh()).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_passes_input_through() {
        // With zero weights and bias, the layer is the identity.
        let p = DenseParams {
            weight: Tensor::zeros(&[4, 4]),
            bias: Tensor::zeros(&[1, 4]),
        };
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4], &[1, 4]);
        let (y, _) = dense_forward(&p, x.clone(), 1.0);
        assert_eq!(y, x);
    }

    #[test]
    fn gradient_check() {
        // Finite-difference check of dL/dW for L = mean(y).
        let p = params();
        let mut rng = DetRng::new(3);
        let x = Tensor::from_vec((0..8).map(|_| rng.next_f32()).collect(), &[2, 4]);
        let (y, cache) = dense_forward(&p, x.clone(), 1.0);
        // dL/dy for L = sum(y): all ones.
        let grad_out = Tensor::from_vec(vec![1.0; y.numel()], y.shape());
        let (_, grads) = dense_backward(&p, cache, &grad_out, 1.0, true);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 10, 15] {
            let mut p_plus = p.clone();
            p_plus.weight.data_mut()[idx] += eps;
            let (y_plus, _) = dense_forward(&p_plus, x.clone(), 1.0);
            let mut p_minus = p.clone();
            p_minus.weight.data_mut()[idx] -= eps;
            let (y_minus, _) = dense_forward(&p_minus, x.clone(), 1.0);
            let num: f32 = y_plus
                .data()
                .iter()
                .zip(y_minus.data())
                .map(|(a, b)| a - b)
                .sum::<f32>()
                / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn grad_input_check() {
        let p = params();
        let mut rng = DetRng::new(9);
        let x = Tensor::from_vec((0..4).map(|_| rng.next_f32()).collect(), &[1, 4]);
        let (y, cache) = dense_forward(&p, x.clone(), 1.0);
        let grad_out = Tensor::from_vec(vec![1.0; y.numel()], y.shape());
        let (grad_in, _) = dense_backward(&p, cache, &grad_out, 1.0, true);
        let grad_in = grad_in.expect("dL/dx asked for");

        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let (yp, _) = dense_forward(&p, xp.clone(), 1.0);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (ym, _) = dense_forward(&p, xm.clone(), 1.0);
            let num: f32 = yp
                .data()
                .iter()
                .zip(ym.data())
                .map(|(a, b)| a - b)
                .sum::<f32>()
                / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dx mismatch at {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn scaled_residual_gradcheck() {
        // Finite-difference check with a non-unit residual scale.
        let p = params();
        let scale = 0.3f32;
        let mut rng = DetRng::new(5);
        let x = Tensor::from_vec((0..4).map(|_| rng.next_f32()).collect(), &[1, 4]);
        let (y, cache) = dense_forward(&p, x.clone(), scale);
        let grad_out = Tensor::from_vec(vec![1.0; y.numel()], y.shape());
        let (grad_in, grads) = dense_backward(&p, cache, &grad_out, scale, true);
        let grad_in = grad_in.expect("dL/dx asked for");
        let eps = 1e-3f32;
        for idx in [0usize, 7, 13] {
            let mut pp = p.clone();
            pp.weight.data_mut()[idx] += eps;
            let (yp, _) = dense_forward(&pp, x.clone(), scale);
            let mut pm = p.clone();
            pm.weight.data_mut()[idx] -= eps;
            let (ym, _) = dense_forward(&pm, x.clone(), scale);
            let num: f32 = yp
                .data()
                .iter()
                .zip(ym.data())
                .map(|(a, b)| a - b)
                .sum::<f32>()
                / (2.0 * eps);
            assert!((num - grads.weight.data()[idx]).abs() < 1e-2);
        }
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let (yp, _) = dense_forward(&p, xp.clone(), scale);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (ym, _) = dense_forward(&p, xm.clone(), scale);
            let num: f32 = yp
                .data()
                .iter()
                .zip(ym.data())
                .map(|(a, b)| a - b)
                .sum::<f32>()
                / (2.0 * eps);
            assert!((num - grad_in.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn numel_counts_weight_and_bias() {
        assert_eq!(params().numel(), 16 + 4);
    }

    /// Deterministic operands with a little of everything: both signs,
    /// magnitudes that saturate `tanh` and ones that do not.
    fn operands(rows: usize, dim: usize, seed: u64) -> (DenseParams, Tensor, Tensor) {
        let mut rng = DetRng::new(seed);
        let mut p = DenseParams::init(dim, &mut rng);
        for b in p.bias.data_mut() {
            *b = rng.next_f32() - 0.5;
        }
        let mut fill = |scale: f32| {
            (0..rows * dim)
                .map(|_| (rng.next_f32() - 0.5) * scale)
                .collect()
        };
        let x = Tensor::from_vec(fill(4.0), &[rows, dim]);
        let grad_out = Tensor::from_vec(fill(2.0), &[rows, dim]);
        (p, x, grad_out)
    }

    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    /// Fused forward + backward against the op-by-op reference, every
    /// output bit-for-bit.
    fn assert_fused_equals_reference(rows: usize, dim: usize, scale: f32, seed: u64) {
        let (p, x, grad_out) = operands(rows, dim, seed);
        let what = format!("{rows}x{dim} scale {scale} seed {seed}");
        let (want_y, want_cache) = reference::dense_forward(&p, &x, scale);
        let (y, cache) = dense_forward(&p, x, scale);
        assert_bits(&y, &want_y, &format!("{what}: y"));
        assert_bits(
            &cache.input,
            &want_cache.input,
            &format!("{what}: cached x"),
        );
        assert_bits(&cache.tanh_out, &want_cache.tanh_out, &format!("{what}: t"));
        let (want_dx, want_g) = reference::dense_backward(&p, &want_cache, &grad_out, scale);
        // A first layer skips dL/dx; its parameter gradients stay put.
        let (no_dx, g) = dense_backward(&p, cache.clone(), &grad_out, scale, false);
        assert!(no_dx.is_none(), "{what}: dL/dx not asked for");
        assert_bits(
            &g.weight,
            &want_g.weight,
            &format!("{what}: first-layer dW"),
        );
        assert_bits(&g.bias, &want_g.bias, &format!("{what}: first-layer db"));
        let (dx, g) = dense_backward(&p, cache, &grad_out, scale, true);
        assert_bits(&dx.unwrap(), &want_dx, &format!("{what}: dx"));
        assert_bits(&g.weight, &want_g.weight, &format!("{what}: dW"));
        assert_bits(&g.bias, &want_g.bias, &format!("{what}: db"));
    }

    #[test]
    fn fused_layer_equals_reference_at_the_thresholds() {
        // Shapes on both sides of every size-derived switch the layer
        // crosses: the tiled kernel (rows >= MR, rows*dim^2 >= 2^9), row
        // bands (rows > 32, rows*dim^2 >= 2^20), the elementwise fan-out
        // and the fused bias sums (rows*dim >= 32 Ki), and chunked
        // reductions (rows*dim >= 64 Ki) — with ragged rows (not a
        // multiple of 4) and widths (not a multiple of 16) among them.
        for &(rows, dim) in &[
            (1usize, 4usize),
            (3, 16),
            (4, 11),
            (4, 12),
            (4, 32),
            (7, 33),
            (8, 16),
            (33, 176),
            (64, 128),
            (66, 130),
            (127, 258),
            (128, 256),
            (254, 258),
        ] {
            for threads in [1usize, 4, 8] {
                crate::pool::with_threads(threads, || {
                    assert_fused_equals_reference(rows, dim, 0.35, 11);
                });
            }
        }
    }

    #[test]
    fn fused_layer_equals_reference_on_the_portable_twin() {
        crate::tensor::set_force_portable(true);
        for &(rows, dim) in &[(7usize, 33usize), (64, 128), (66, 130)] {
            assert_fused_equals_reference(rows, dim, 1.0, 5);
        }
        crate::tensor::set_force_portable(false);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any shape, scale and pool size: the fused layer and the
            /// op-by-op reference agree on every bit of every output.
            #[test]
            fn fused_layer_equals_reference(
                rows in 1usize..70,
                dim in 1usize..140,
                scale in 0.05f32..1.5,
                seed in 0u64..1_000,
                pool in 0usize..3,
            ) {
                crate::pool::with_threads([1, 4, 8][pool], || {
                    assert_fused_equals_reference(rows, dim, scale, seed);
                });
            }
        }
    }
}

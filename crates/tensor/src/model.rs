//! A trainable numeric supernet.
//!
//! [`ParamStore`] holds one [`DenseParams`] per `(block, choice)` candidate
//! — the shared weights that subnets read and write. [`NumericSupernet`]
//! runs a subnet's forward/backward against a given store. The training
//! engine (in `naspipe-core`) decides *which* store state each access sees,
//! which is exactly where CSP, BSP and ASP semantics diverge.

use crate::hash;
use crate::layers::{
    dense_backward_input, dense_backward_weight, dense_forward, DenseCache, DenseGrads, DenseParams,
};
use crate::loss::mse;
use crate::optim::{MomentumSgd, Sgd};
use crate::tensor::Tensor;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::rng::DetRng;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;

/// The supernet's shared parameters: one dense layer per candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamStore {
    dim: usize,
    // params[block][choice]
    params: Vec<Vec<DenseParams>>,
}

impl ParamStore {
    /// Initialises all candidate layers of `space` at width `dim`,
    /// deterministically from `seed`.
    ///
    /// Each layer's weights depend only on `(seed, block, choice)`, never
    /// on iteration order, so any two stores created with the same
    /// arguments are bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn init(space: &SearchSpace, dim: usize, seed: u64) -> Self {
        let params = space
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| Self::init_block(dim, seed, b, block.num_choices()))
            .collect();
        Self { dim, params }
    }

    /// The `choices` candidate layers of block `block`, exactly as
    /// [`init`](Self::init) creates them — so the owner of a block range
    /// can initialise just its own share, on its own thread.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn init_block(dim: usize, seed: u64, block: usize, choices: u32) -> Vec<DenseParams> {
        assert!(dim > 0, "dim must be positive");
        let root = DetRng::new(seed);
        (0..choices)
            .map(|c| {
                let mut rng = root.split(((block as u64) << 32) | u64::from(c));
                DenseParams::init(dim, &mut rng)
            })
            .collect()
    }

    /// Assembles a store from per-block candidate layers
    /// (`params[block][choice]`), taking ownership — the inverse of
    /// handing block ranges out to their owners.
    ///
    /// # Panics
    ///
    /// Panics if any layer is not `dim` wide.
    pub fn from_blocks(dim: usize, params: Vec<Vec<DenseParams>>) -> Self {
        for p in params.iter().flatten() {
            assert_eq!(p.weight.shape(), &[dim, dim], "layer width mismatch");
            assert_eq!(p.bias.numel(), dim, "bias width mismatch");
        }
        Self { dim, params }
    }

    /// Layer width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.params.len()
    }

    /// The parameters of one candidate layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: LayerRef) -> &DenseParams {
        &self.params[layer.block as usize][layer.choice as usize]
    }

    /// Mutable access to one candidate layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: LayerRef) -> &mut DenseParams {
        &mut self.params[layer.block as usize][layer.choice as usize]
    }

    /// The fingerprint of every parameter ([`hash::store_hash`] of the
    /// layer hashes in block/choice order): equal iff the whole store is
    /// bitwise equal.
    pub fn bitwise_hash(&self) -> u64 {
        self.bitwise_hash_blocks(0..self.params.len())
    }

    /// The fingerprint restricted to `blocks`, for comparing one member
    /// space's slice of a hybrid union supernet.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is out of range.
    pub fn bitwise_hash_blocks(&self, blocks: std::ops::Range<usize>) -> u64 {
        hash::store_hash(layer_hashes(&self.params[blocks]))
    }

    /// The first layer, in block/choice order, whose [`hash::layer_hash`]
    /// differs between `self` and `other` (a layer only one of them has
    /// counts as differing); `None` iff the stores are bitwise equal.
    pub fn first_divergence(&self, other: &ParamStore) -> Option<LayerRef> {
        let none: &[DenseParams] = &[];
        let blocks = self.params.len().max(other.params.len());
        (0..blocks).find_map(|b| {
            let mine = self.params.get(b).map_or(none, Vec::as_slice);
            let theirs = other.params.get(b).map_or(none, Vec::as_slice);
            let fingerprint = |p: &DenseParams| hash::layer_hash(&p.weight, &p.bias);
            (0..mine.len().max(theirs.len()))
                .find(|&c| match (mine.get(c), theirs.get(c)) {
                    (Some(x), Some(y)) => fingerprint(x) != fingerprint(y),
                    _ => true,
                })
                .map(|c| LayerRef::new(b as u32, c as u32))
        })
    }

    /// Total scalar parameter count.
    pub fn numel(&self) -> usize {
        self.params
            .iter()
            .map(|b| b.iter().map(DenseParams::numel).sum::<usize>())
            .sum()
    }
}

/// The [`hash::layer_hash`] of every layer of `blocks`
/// (`blocks[block][choice]`) in block/choice order: what the owner of a
/// block range folds into the store's fingerprint.
pub fn layer_hashes(blocks: &[Vec<DenseParams>]) -> impl Iterator<Item = u64> + '_ {
    blocks
        .iter()
        .flatten()
        .map(|p| hash::layer_hash(&p.weight, &p.bias))
}

/// Per-layer state captured by a subnet's forward pass, consumed by its
/// backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardCtx {
    layers: Vec<(LayerRef, DenseCache)>,
    // The slice starts at block 0: its input is the subnet's, whose
    // gradient nobody reads.
    from_input: bool,
    // Each layer's dL/db in block order, once the backward's input half
    // has run; empty before.
    grad_bias: Vec<Tensor>,
}

/// Gradients for each activated layer of a subnet, in block order.
#[derive(Debug, Clone, PartialEq)]
pub struct SubnetGrads {
    grads: Vec<(LayerRef, DenseGrads)>,
}

impl SubnetGrads {
    /// `(layer, gradient)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = &(LayerRef, DenseGrads)> {
        self.grads.iter()
    }
}

/// The optimizer a [`NumericSupernet`] updates parameters with.
#[derive(Debug, Clone, PartialEq)]
pub enum Optimizer {
    /// Plain SGD.
    Sgd(Sgd),
    /// SGD with momentum and decoupled weight decay (per-layer state).
    Momentum(MomentumSgd),
}

impl Optimizer {
    /// Applies one update to `layer`'s parameters.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch the parameters.
    pub fn step(&mut self, layer: LayerRef, params: &mut DenseParams, grads: &DenseGrads) {
        match self {
            Optimizer::Sgd(o) => o.step(params, grads),
            Optimizer::Momentum(o) => o.step(layer, params, grads),
        }
    }
}

/// Runs subnets against a [`ParamStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSupernet {
    optimizer: Optimizer,
    residual_scale: f32,
}

impl NumericSupernet {
    /// Creates an engine updating parameters with learning rate `lr` and
    /// an unscaled residual branch.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        Self {
            optimizer: Optimizer::Sgd(Sgd::new(lr)),
            residual_scale: 1.0,
        }
    }

    /// Switches to SGD with momentum `mu` and weight decay `wd`
    /// (per-layer velocity state; still bitwise deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the coefficients are out of range (see
    /// [`MomentumSgd::new`]).
    pub fn with_momentum(mut self, lr: f32, mu: f32, wd: f32) -> Self {
        self.optimizer = Optimizer::Momentum(MomentumSgd::new(lr, mu, wd));
        self
    }

    /// Sets the residual branch scale (`~1/sqrt(depth)` keeps deep stacks
    /// well conditioned).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn with_residual_scale(mut self, scale: f32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.residual_scale = scale;
        self
    }

    /// The residual branch scale in effect.
    pub fn residual_scale(&self) -> f32 {
        self.residual_scale
    }

    /// The optimizer in effect, including any per-layer state.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Reassembles an engine from serialized parts — the inverse of
    /// [`optimizer`](Self::optimizer) + [`residual_scale`](Self::residual_scale).
    ///
    /// # Panics
    ///
    /// Panics if `residual_scale` is not finite and positive.
    pub fn from_parts(optimizer: Optimizer, residual_scale: f32) -> Self {
        assert!(
            residual_scale.is_finite() && residual_scale > 0.0,
            "scale must be positive"
        );
        Self {
            optimizer,
            residual_scale,
        }
    }

    /// Applies one optimizer update to a single layer — exposed so
    /// decentralised runtimes owning raw parameter slices update them
    /// with identical arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch the parameters.
    pub fn step_layer(&mut self, layer: LayerRef, params: &mut DenseParams, grads: &DenseGrads) {
        self.optimizer.step(layer, params, grads);
    }

    /// Forward pass of `subnet` on `input`, reading weights from `store`.
    /// Returns the output activations and the context its backward pass
    /// consumes.
    ///
    /// Which store snapshot is passed here determines the READ side of the
    /// causal dependency semantics.
    ///
    /// # Panics
    ///
    /// Panics if the subnet or input do not match the store.
    pub fn forward(
        &self,
        store: &ParamStore,
        subnet: &Subnet,
        input: &Tensor,
    ) -> (Tensor, ForwardCtx) {
        self.forward_slice(
            |l| store.layer(l),
            subnet,
            0..subnet.num_layers(),
            input.clone(),
        )
    }

    /// Forward pass restricted to `blocks` — one pipeline *stage* of the
    /// subnet — reading each activated layer's weights through `params`
    /// (a [`ParamStore`], or a stage worker's own slice of one). Takes
    /// the input by value: it moves into the first layer's cache. An
    /// empty range passes `input` through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` exceeds the subnet or shapes mismatch.
    pub fn forward_slice<'p>(
        &self,
        params: impl Fn(LayerRef) -> &'p DenseParams,
        subnet: &Subnet,
        blocks: std::ops::Range<usize>,
        input: Tensor,
    ) -> (Tensor, ForwardCtx) {
        assert!(
            blocks.end <= subnet.num_layers(),
            "block range {blocks:?} exceeds subnet of {} layers",
            subnet.num_layers()
        );
        let mut x = input;
        let mut layers = Vec::with_capacity(blocks.len());
        let from_input = blocks.start == 0;
        for b in blocks {
            if subnet.skips(b) {
                continue; // stateless pass-through block
            }
            let layer = subnet.layer(b);
            let (y, cache) = dense_forward(params(layer), x, self.residual_scale);
            x = y;
            layers.push((layer, cache));
        }
        (
            x,
            ForwardCtx {
                layers,
                from_input,
                grad_bias: Vec::new(),
            },
        )
    }

    /// Backward pass of one forward slice given `dL/d(output)`, reading
    /// weights through `params` like
    /// [`forward_slice`](Self::forward_slice) and writing nothing:
    /// [`backward_slice_input`](Self::backward_slice_input), then
    /// [`backward_slice_weight`](Self::backward_slice_weight). Returns
    /// the gradient with respect to the slice input plus the per-layer
    /// parameter gradients.
    pub fn backward_slice<'p>(
        &self,
        params: impl Fn(LayerRef) -> &'p DenseParams,
        mut ctx: ForwardCtx,
        grad_output: Tensor,
    ) -> (Option<Tensor>, SubnetGrads) {
        let grad = self.backward_slice_input(params, &mut ctx, grad_output);
        (grad, self.backward_slice_weight(ctx))
    }

    /// Input-gradient half of [`backward_slice`](Self::backward_slice):
    /// [`dense_backward_input`] over the slice's layers, last first, on
    /// the weights `params` reads. Keeps each layer's `dL/db` in `ctx`
    /// for the weight half, which reads no weight — so a pipeline stage
    /// can hand the returned gradient upstream, then update. A slice that
    /// starts at block 0 returns none: its first layer skips `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if the input half already ran on `ctx`.
    pub fn backward_slice_input<'p>(
        &self,
        params: impl Fn(LayerRef) -> &'p DenseParams,
        ctx: &mut ForwardCtx,
        grad_output: Tensor,
    ) -> Option<Tensor> {
        assert!(ctx.grad_bias.is_empty(), "the input half runs once");
        ctx.grad_bias.reserve_exact(ctx.layers.len());
        let mut grad = grad_output;
        for (i, (layer, cache)) in ctx.layers.iter_mut().enumerate().rev() {
            let input_grad = i > 0 || !ctx.from_input;
            let (grad_in, grad_bias) = dense_backward_input(
                params(*layer),
                cache,
                &grad,
                self.residual_scale,
                input_grad,
            );
            grad = grad_in.unwrap_or(grad);
            ctx.grad_bias.push(grad_bias);
        }
        ctx.grad_bias.reverse();
        (!ctx.from_input).then_some(grad)
    }

    /// Weight half of [`backward_slice`](Self::backward_slice): each
    /// layer's [`dense_backward_weight`] from the `ctx` its input half
    /// left, in block order.
    ///
    /// # Panics
    ///
    /// Panics unless [`backward_slice_input`](Self::backward_slice_input)
    /// ran on `ctx`.
    pub fn backward_slice_weight(&self, ctx: ForwardCtx) -> SubnetGrads {
        assert_eq!(
            ctx.grad_bias.len(),
            ctx.layers.len(),
            "the input half runs first"
        );
        let grads = (ctx.layers.into_iter().zip(ctx.grad_bias))
            .map(|((layer, cache), grad_bias)| (layer, dense_backward_weight(cache, grad_bias)))
            .collect();
        SubnetGrads { grads }
    }

    /// Backward pass: computes the MSE loss of the forward `output`
    /// against `target` and the gradients of every activated layer.
    /// Reads weights from `store` (they are needed to propagate
    /// gradients), writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `target`'s shape differs from the forward output.
    pub fn backward(
        &self,
        store: &ParamStore,
        output: &Tensor,
        ctx: ForwardCtx,
        target: &Tensor,
    ) -> (f32, SubnetGrads) {
        let (loss, grad) = mse(output, target);
        let (_, grads) = self.backward_slice(|l| store.layer(l), ctx, grad);
        (loss, grads)
    }

    /// Applies `grads` to `store` — the WRITE side of a subnet's
    /// backward pass. Layers update in block order.
    ///
    /// # Panics
    ///
    /// Panics if any gradient shape mismatches its layer.
    pub fn apply(&mut self, store: &mut ParamStore, grads: &SubnetGrads) {
        for (layer, g) in &grads.grads {
            self.optimizer.step(*layer, store.layer_mut(*layer), g);
        }
    }

    /// Convenience: full sequential step (forward, backward, apply) of
    /// one subnet on one batch; returns the loss. This is the
    /// *reference semantics* all parallel schedules must be equivalent to.
    pub fn train_step(
        &mut self,
        store: &mut ParamStore,
        subnet: &Subnet,
        input: &Tensor,
        target: &Tensor,
    ) -> f32 {
        let (output, ctx) = self.forward(store, subnet, input);
        let (loss, grads) = self.backward(store, &output, ctx, target);
        self.apply(store, &grads);
        loss
    }

    /// Evaluates `subnet` on one batch without updating weights; returns
    /// the loss.
    pub fn evaluate(
        &self,
        store: &ParamStore,
        subnet: &Subnet,
        input: &Tensor,
        target: &Tensor,
    ) -> f32 {
        let (output, _) = self.forward(store, subnet, input);
        mse(&output, target).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::subnet::SubnetId;

    fn setup() -> (SearchSpace, ParamStore, NumericSupernet, SyntheticDataset) {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
        let store = ParamStore::init(&space, 8, 42);
        let engine = NumericSupernet::new(0.05);
        let data = SyntheticDataset::new(7, 4, 8);
        (space, store, engine, data)
    }

    #[test]
    fn init_is_bitwise_deterministic() {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 3);
        let a = ParamStore::init(&space, 8, 1);
        let b = ParamStore::init(&space, 8, 1);
        assert_eq!(a.bitwise_hash(), b.bitwise_hash());
        let c = ParamStore::init(&space, 8, 2);
        assert_ne!(a.bitwise_hash(), c.bitwise_hash());
    }

    #[test]
    fn training_reduces_loss() {
        let (_space, mut store, mut engine, data) = setup();
        let subnet = Subnet::new(SubnetId(0), vec![0, 1, 2, 0]);
        let (x0, y0) = data.step_batch(0);
        let first = engine.train_step(&mut store, &subnet, &x0, &y0);
        let mut last = first;
        for step in 1..200 {
            let (x, y) = data.step_batch(step);
            last = engine.train_step(&mut store, &subnet, &x, &y);
        }
        assert!(last < first * 0.8, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn train_step_is_bitwise_reproducible() {
        let (_space, store, mut engine, data) = setup();
        let mut s1 = store.clone();
        let mut s2 = store;
        let subnet = Subnet::new(SubnetId(0), vec![0, 0, 0, 0]);
        for step in 0..20 {
            let (x, y) = data.step_batch(step);
            engine.train_step(&mut s1, &subnet, &x, &y);
            engine.train_step(&mut s2, &subnet, &x, &y);
        }
        assert_eq!(s1.bitwise_hash(), s2.bitwise_hash());
    }

    #[test]
    fn only_activated_layers_change() {
        let (_space, mut store, mut engine, data) = setup();
        let before = store.clone();
        let subnet = Subnet::new(SubnetId(0), vec![1, 1, 1, 1]);
        let (x, y) = data.step_batch(0);
        engine.train_step(&mut store, &subnet, &x, &y);
        for b in 0..4u32 {
            for c in 0..3u32 {
                let l = LayerRef::new(b, c);
                if c == 1 {
                    assert_ne!(store.layer(l), before.layer(l), "activated layer unchanged");
                } else {
                    assert_eq!(store.layer(l), before.layer(l), "inactive layer changed");
                }
            }
        }
    }

    #[test]
    fn evaluate_does_not_mutate() {
        let (_space, store, engine, data) = setup();
        let hash_before = store.bitwise_hash();
        let subnet = Subnet::new(SubnetId(0), vec![0, 1, 0, 1]);
        let (x, y) = data.step_batch(0);
        let loss = engine.evaluate(&store, &subnet, &x, &y);
        assert!(loss > 0.0);
        assert_eq!(store.bitwise_hash(), hash_before);
    }

    #[test]
    fn split_phases_equal_train_step() {
        // forward+backward+apply == train_step bitwise.
        let (_space, store, mut engine, data) = setup();
        let mut s1 = store.clone();
        let mut s2 = store;
        let subnet = Subnet::new(SubnetId(0), vec![2, 0, 1, 2]);
        let (x, y) = data.step_batch(3);
        let l1 = engine.train_step(&mut s1, &subnet, &x, &y);
        let (out, ctx) = engine.forward(&s2, &subnet, &x);
        let (l2, grads) = engine.backward(&s2, &out, ctx, &y);
        engine.apply(&mut s2, &grads);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(s1.bitwise_hash(), s2.bitwise_hash());
    }

    #[test]
    fn sliced_execution_equals_whole_subnet() {
        // Forward/backward in two pipeline stages must equal the
        // unsliced pass bitwise.
        let (_space, store, mut engine, data) = setup();
        let subnet = Subnet::new(SubnetId(0), vec![0, 2, 1, 0]);
        let (x, y) = data.step_batch(5);

        let mut whole = store.clone();
        let l_whole = engine.train_step(&mut whole, &subnet, &x, &y);

        let mut split = store;
        let (mid, ctx0) = engine.forward_slice(|l| split.layer(l), &subnet, 0..2, x);
        let (out, ctx1) = engine.forward_slice(|l| split.layer(l), &subnet, 2..4, mid);
        let (l_split, grad) = crate::loss::mse(&out, &y);
        let (grad_mid, g1) = engine.backward_slice(|l| split.layer(l), ctx1, grad);
        engine.apply(&mut split, &g1);
        let grad_mid = grad_mid.expect("a slice past block 0 returns dL/dx");
        let (grad_in, g0) = engine.backward_slice(|l| split.layer(l), ctx0, grad_mid);
        assert!(
            grad_in.is_none(),
            "nobody reads the subnet input's gradient"
        );
        engine.apply(&mut split, &g0);

        assert_eq!(l_whole.to_bits(), l_split.to_bits());
        assert_eq!(whole.bitwise_hash(), split.bitwise_hash());
    }

    #[test]
    fn empty_slice_passes_through() {
        let (_space, store, engine, data) = setup();
        let subnet = Subnet::new(SubnetId(0), vec![0, 0, 0, 0]);
        let (x, _) = data.step_batch(0);
        let (out, ctx) = engine.forward_slice(|l| store.layer(l), &subnet, 2..2, x.clone());
        assert_eq!(out, x);
        let grad = Tensor::from_vec(vec![1.0; x.numel()], x.shape());
        let (grad_in, grads) = engine.backward_slice(|l| store.layer(l), ctx, grad.clone());
        assert_eq!(grad_in, Some(grad));
        assert_eq!(grads.iter().count(), 0);
    }

    #[test]
    fn store_fingerprint_matches_known_answer() {
        // Computed independently (Python, struct.pack('<f')). Width 3 is
        // odd, so one word of each layer holds its last weight and its
        // first bias. Layer k: weight[i] = (i - 4) / 2 + k, bias[j] =
        // -(j + k + 1) / 4.
        let layer = |k: usize| DenseParams {
            weight: Tensor::from_vec(
                (0..9).map(|i| (i as f32 - 4.0) * 0.5 + k as f32).collect(),
                &[3, 3],
            ),
            bias: Tensor::from_vec(
                (0..3).map(|j| (j + k + 1) as f32 * -0.25).collect(),
                &[1, 3],
            ),
        };
        let store = ParamStore::from_blocks(3, vec![vec![layer(0), layer(1)], vec![layer(2)]]);
        let hashes: Vec<u64> = layer_hashes(&store.params).collect();
        assert_eq!(
            hashes,
            [
                0x0999_2391_4b87_1917,
                0xdbce_05c9_ef87_1917,
                0xf56b_9428_eb47_1917
            ]
        );
        assert_eq!(store.bitwise_hash(), 0x5169_7469_fec5_3a7c);
        assert_eq!(
            store.bitwise_hash_blocks(1..2),
            hash::store_hash([hashes[2]])
        );
    }

    #[test]
    fn first_divergence_names_the_first_differing_layer() {
        let (_, store, _, _) = setup();
        assert_eq!(store.first_divergence(&store.clone()), None);
        let mut other = store.clone();
        for l in [LayerRef::new(2, 1), LayerRef::new(1, 2)] {
            let w = other.layer_mut(l).weight.data_mut();
            w[5] = f32::from_bits(w[5].to_bits() ^ 1);
        }
        assert_eq!(store.first_divergence(&other), Some(LayerRef::new(1, 2)));
        assert_eq!(other.first_divergence(&store), Some(LayerRef::new(1, 2)));
        // A layer only one store has is a difference too.
        let smaller = SearchSpace::uniform(Domain::Nlp, 4, 2);
        let fewer = ParamStore::init(&smaller, 8, 42);
        assert_eq!(store.first_divergence(&fewer), Some(LayerRef::new(0, 2)));
        let shorter = SearchSpace::uniform(Domain::Nlp, 3, 3);
        let shorter = ParamStore::init(&shorter, 8, 42);
        assert_eq!(shorter.first_divergence(&store), Some(LayerRef::new(3, 0)));
    }

    #[test]
    fn store_accessors() {
        let (space, store, _, _) = setup();
        assert_eq!(store.num_blocks(), space.num_blocks());
        assert_eq!(store.dim(), 8);
        // 4 blocks x 3 choices x (8*8 + 8) params.
        assert_eq!(store.numel(), 4 * 3 * 72);
    }
}

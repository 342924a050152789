//! Allocation guard for the fused dense layer: a steady-state layer-step
//! (forward, backward, SGD update) may allocate its owned outputs and
//! nothing else, and the backward's two halves together exactly what
//! `dense_backward` does. A per-op temporary creeping back into the
//! layer — or a kernel that allocates per call — fails this test. The
//! parameter fingerprint allocates nothing: a layer's hash streams its
//! f32s two to a word (no byte buffer), and a stage's layer hashes fold
//! in place.
//!
//! A binary of its own: the counting allocator is global (its count is
//! per thread, so the tests do not disturb each other).

use naspipe_supernet::rng::DetRng;
use naspipe_tensor::hash::{layer_hash, store_hash};
use naspipe_tensor::layers::{
    dense_backward, dense_backward_input, dense_backward_weight, dense_forward, DenseParams,
};
use naspipe_tensor::optim::Sgd;
use naspipe_tensor::pool;
use naspipe_tensor::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads do
    /// not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System` for every request; the counter is a
// const-initialised thread-local without a destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A tensor is two allocations: its shape and its data.
const PER_TENSOR: u64 = 2;

#[test]
fn steady_state_layer_step_allocates_only_its_owned_outputs() {
    // The two layer shapes the benchmark's threaded workloads run, on one
    // pool worker like its stage threads (a multi-worker fan-out
    // allocates its job record, which is the pool's business).
    for (rows, dim) in [(64usize, 128usize), (8, 16)] {
        let mut rng = DetRng::new(3);
        let mut params = DenseParams::init(dim, &mut rng);
        let mut fill = || {
            let data = (0..rows * dim)
                .map(|_| rng.next_f32() * 2.0 - 1.0)
                .collect();
            Tensor::from_vec(data, &[rows, dim])
        };
        let (x, grad_out) = (fill(), fill());
        let sgd = Sgd::new(0.05);
        pool::with_threads(1, || {
            let allocs = || ALLOCS.with(Cell::get);
            let mut step = |x: Tensor, input_grad: bool| {
                let before = allocs();
                let (y, cache) = dense_forward(&params, x, 0.35);
                let forward = allocs() - before;
                let (dx, grads) = dense_backward(&params, cache, &grad_out, 0.35, input_grad);
                sgd.step(&mut params, &grads);
                let total = allocs() - before;
                drop((y, dx, grads));
                (forward, total - forward)
            };
            // The first step sizes this thread's packing scratch.
            step(x.clone(), true);
            let (forward, backward) = step(x.clone(), true);
            // Forward owns the output and the cached activation (the
            // input moves into the cache); backward owns dL/dx, dL/dW and
            // dL/db (dz is formed in the activation's buffer); the update
            // is in place.
            assert!(
                forward <= 2 * PER_TENSOR,
                "{rows}x{dim}: forward made {forward} allocations"
            );
            assert!(
                backward <= 3 * PER_TENSOR,
                "{rows}x{dim}: backward + step made {backward} allocations"
            );
            // The halves, on their own and at a first layer (no dL/dx):
            // the input half owns dL/db and any dL/dx, the weight half
            // dL/dW, and together they are `dense_backward`.
            for input_grad in [true, false] {
                let (_, mut cache) = dense_forward(&params, x.clone(), 0.35);
                let before = allocs();
                let (dx, db) =
                    dense_backward_input(&params, &mut cache, &grad_out, 0.35, input_grad);
                let input_half = allocs() - before;
                let grads = dense_backward_weight(cache, db);
                let weight_half = allocs() - before - input_half;
                drop((dx, grads));
                let (_, cache) = dense_forward(&params, x.clone(), 0.35);
                let before = allocs();
                let whole = dense_backward(&params, cache, &grad_out, 0.35, input_grad);
                let composed = allocs() - before;
                drop(whole);
                let what = format!("{rows}x{dim}, dL/dx {input_grad}");
                let owned = if input_grad { 2 } else { 1 };
                assert_eq!(input_half, owned * PER_TENSOR, "{what}: input half");
                assert_eq!(weight_half, PER_TENSOR, "{what}: weight half");
                assert_eq!(composed, input_half + weight_half, "{what}: dense_backward");
            }
        });
    }
}

#[test]
fn fingerprinting_a_layer_and_folding_a_stage_allocate_nothing() {
    // A stage of the benchmark's low-share workload: 4 blocks of 64
    // candidate 128 x 128 layers; the odd width puts a word across the
    // weight/bias boundary.
    for dim in [128usize, 127] {
        let mut rng = DetRng::new(5);
        let params = DenseParams::init(dim, &mut rng);
        let stage: Vec<u64> = (0..4 * 64).map(|i| i * 0x9e37_79b9).collect();
        let allocs = || ALLOCS.with(Cell::get);
        let before = allocs();
        let layer = layer_hash(&params.weight, &params.bias);
        let folded = store_hash(stage.iter().copied());
        assert_eq!(allocs() - before, 0, "{dim}: fingerprint allocated");
        assert_ne!(layer, folded);
    }
}

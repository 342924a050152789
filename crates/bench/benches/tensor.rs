//! Numeric substrate benchmarks: the deterministic tensor ops and one
//! full supernet training step.

use criterion::{criterion_group, criterion_main, Criterion};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::rng::DetRng;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::hash::{hash_tensors, layer_hash};
use naspipe_tensor::layers::{
    dense_backward, dense_backward_input, dense_backward_weight, dense_forward, DenseParams,
};
use naspipe_tensor::model::{NumericSupernet, ParamStore};
use naspipe_tensor::optim::Sgd;
use naspipe_tensor::pool;
use naspipe_tensor::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations so the `dense_layer` group can report
/// allocations per layer-step next to the time.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every request; the counter is a
// statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bench_matmul(c: &mut Criterion) {
    let a = Tensor::from_vec((0..64 * 64).map(|i| (i as f32).sin()).collect(), &[64, 64]);
    let b = Tensor::from_vec((0..64 * 64).map(|i| (i as f32).cos()).collect(), &[64, 64]);
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
    });
}

fn bench_train_step(c: &mut Criterion) {
    let space = SearchSpace::uniform(Domain::Nlp, 24, 8);
    let mut store = ParamStore::init(&space, 16, 0);
    let mut engine = NumericSupernet::new(0.05).with_residual_scale(0.2);
    let data = SyntheticDataset::new(0, 8, 16);
    let subnet = Subnet::new(SubnetId(0), (0..24).map(|b| b % 8).collect());
    let (x, y) = data.step_batch(0);
    c.bench_function("train_step_24_blocks_dim16", |b| {
        b.iter(|| black_box(engine.train_step(&mut store, &subnet, &x, &y)))
    });
}

/// One residual dense layer on one pool worker, at the two shapes the
/// benchmark's threaded workloads run (`rt-compute-*`: 64 x 128,
/// `rt-overhead-tiny`: 8 x 16): forward, backward and each of its two
/// halves (the input gradient a stage hands upstream, then the weight
/// gradient), and the whole layer-step (forward + backward + SGD update)
/// — the "layer glue" row of the performance ledger, with its
/// allocation count.
fn bench_dense_layer(c: &mut Criterion) {
    for (rows, dim) in [(64usize, 128usize), (8, 16)] {
        let mut rng = DetRng::new(7);
        let mut params = DenseParams::init(dim, &mut rng);
        // Inputs spread like the synthetic dataset's: `tanh` costs more
        // on |z| ~ 1 than on the small values a narrower range gives.
        let mut fill = || {
            let data = (0..rows * dim).map(|_| rng.next_f32() * 2.0 - 1.0);
            Tensor::from_vec(data.collect(), &[rows, dim])
        };
        let (x, grad_out) = (fill(), fill());
        let sgd = Sgd::new(0.05);
        let shape = format!("{rows}x{dim}");
        pool::with_threads(1, || {
            // `x.clone()` stands in for the activation a stage receives;
            // it is inside the timed body of all three, so differences
            // between them are the layer's own.
            c.bench_function(&format!("dense_layer/fwd/{shape}"), |b| {
                b.iter(|| black_box(dense_forward(&params, x.clone(), 0.35)))
            });
            c.bench_function(&format!("dense_layer/bwd/{shape}"), |b| {
                let (_, cache) = dense_forward(&params, x.clone(), 0.35);
                b.iter(|| {
                    black_box(dense_backward(
                        &params,
                        cache.clone(),
                        &grad_out,
                        0.35,
                        true,
                    ))
                })
            });
            c.bench_function(&format!("dense_layer/bwd_input/{shape}"), |b| {
                let (_, cache) = dense_forward(&params, x.clone(), 0.35);
                b.iter(|| {
                    let mut cache = cache.clone();
                    black_box(dense_backward_input(
                        &params, &mut cache, &grad_out, 0.35, true,
                    ))
                })
            });
            c.bench_function(&format!("dense_layer/bwd_weight/{shape}"), |b| {
                let (_, mut cache) = dense_forward(&params, x.clone(), 0.35);
                let (_, db) = dense_backward_input(&params, &mut cache, &grad_out, 0.35, true);
                b.iter(|| black_box(dense_backward_weight(cache.clone(), db.clone())))
            });
            let mut step = |x: Tensor| {
                let (y, cache) = dense_forward(&params, x, 0.35);
                let (dx, grads) = dense_backward(&params, cache, &grad_out, 0.35, true);
                sgd.step(&mut params, &grads);
                black_box((y, dx));
            };
            step(x.clone()); // first-touch costs (pack scratch) stay out of the count
            let input = x.clone();
            let before = ALLOCS.load(Ordering::Relaxed);
            step(input);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            c.bench_function(&format!("dense_layer/fwd+bwd+step/{shape}"), |b| {
                b.iter(|| step(x.clone()))
            });
            c.report_value(
                &format!("dense_layer/allocs_per_layer_step/{shape}"),
                allocs as f64,
                "count",
            );
        });
    }
}

fn bench_hashing(c: &mut Criterion) {
    let t = Tensor::from_vec((0..65_536).map(|i| i as f32).collect(), &[256, 256]);
    c.bench_function("bitwise_hash_64k_f32", |b| {
        b.iter(|| black_box(hash_tensors([black_box(&t)])))
    });
    // One parameter layer's fingerprint, as a threaded stage computes it
    // for each layer it owns when its stream ends.
    let p = DenseParams::init(128, &mut DetRng::new(11));
    c.bench_function("layer_fingerprint_128x128", |b| {
        b.iter(|| black_box(layer_hash(black_box(&p.weight), black_box(&p.bias))))
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_train_step,
    bench_dense_layer,
    bench_hashing
);
criterion_main!(benches);

//! Property tests of the numeric substrate's determinism and calculus.

use naspipe_supernet::layer::Domain;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::hash::{hash_tensors, store_hash};
use naspipe_tensor::layers::{dense_backward, dense_forward, DenseParams};
use naspipe_tensor::model::{layer_hashes, NumericSupernet, ParamStore};
use naspipe_tensor::pool;
use naspipe_tensor::tensor::{MmOp, Tensor, K_SEG};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, 9).prop_map(|v| Tensor::from_vec(v, &[3, 3]))
}

proptest! {
    /// Matmul distributes over addition up to float tolerance, and is
    /// bitwise repeatable.
    #[test]
    fn matmul_distributes(a in small_matrix(), b in small_matrix(), c in small_matrix()) {
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
        let again = a.add(&b).matmul(&c);
        for (x, y) in lhs.data().iter().zip(again.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The analytic gradient matches finite differences for random
    /// parameters, inputs, and residual scales.
    #[test]
    fn gradients_match_finite_differences(
        seed in 0u64..1_000,
        scale in 0.1f32..1.0,
        idx in 0usize..16,
    ) {
        let mut rng = naspipe_supernet::rng::DetRng::new(seed);
        let p = DenseParams::init(4, &mut rng);
        let x = Tensor::from_vec((0..4).map(|_| rng.next_f32() - 0.5).collect(), &[1, 4]);
        let (y, cache) = dense_forward(&p, x.clone(), scale);
        let grad_out = Tensor::from_vec(vec![1.0; y.numel()], y.shape());
        let (_, grads) = dense_backward(&p, cache, &grad_out, scale, true);
        let eps = 1e-3f32;
        let mut pp = p.clone();
        pp.weight.data_mut()[idx] += eps;
        let (yp, _) = dense_forward(&pp, x.clone(), scale);
        let mut pm = p.clone();
        pm.weight.data_mut()[idx] -= eps;
        let (ym, _) = dense_forward(&pm, x.clone(), scale);
        let numeric: f32 =
            yp.data().iter().zip(ym.data()).map(|(a, b)| a - b).sum::<f32>() / (2.0 * eps);
        prop_assert!(
            (numeric - grads.weight.data()[idx]).abs() < 2e-2,
            "numeric {numeric} vs analytic {}",
            grads.weight.data()[idx]
        );
    }

    /// Training any subnet stream twice gives bitwise-identical stores
    /// (determinism of the full numeric stack), and touches only the
    /// activated layers.
    #[test]
    fn train_steps_are_deterministic_and_local(
        choices in proptest::collection::vec(proptest::collection::vec(0u32..3, 5), 1..10),
        seed in 0u64..100,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, 5, 3);
        let data = SyntheticDataset::new(seed, 2, 4);
        let run = || {
            let mut store = ParamStore::init(&space, 4, seed);
            let mut engine = NumericSupernet::new(0.05).with_residual_scale(0.4);
            for (i, c) in choices.iter().enumerate() {
                let s = Subnet::new(SubnetId(i as u64), c.clone());
                let (x, y) = data.step_batch(i as u64);
                engine.train_step(&mut store, &s, &x, &y);
            }
            store
        };
        let s1 = run();
        let s2 = run();
        prop_assert_eq!(s1.bitwise_hash(), s2.bitwise_hash());
        // Untouched layers stay at init.
        let init = ParamStore::init(&space, 4, seed);
        for b in 0..5u32 {
            for c in 0..3u32 {
                let l = naspipe_supernet::layer::LayerRef::new(b, c);
                let used = choices.iter().any(|row| row[b as usize] == c);
                if !used {
                    prop_assert_eq!(s1.layer(l), init.layer(l), "untouched layer changed");
                }
            }
        }
    }

    /// The bitwise hash separates stores that differ in any single ULP.
    #[test]
    fn hash_is_ulp_sensitive(values in proptest::collection::vec(-10.0f32..10.0, 1..32), idx in 0usize..32) {
        prop_assume!(idx < values.len());
        let t = Tensor::from_vec(values.clone(), &[values.len()]);
        let mut bumped = values;
        let bits = bumped[idx].to_bits();
        bumped[idx] = f32::from_bits(bits ^ 1);
        let tb = Tensor::from_vec(bumped, &[t.numel()]);
        prop_assert_ne!(hash_tensors([&t]), hash_tensors([&tb]));
    }

    /// Flipping any bit of any f32 of any layer changes the store's
    /// fingerprint, and `first_divergence` names that layer.
    #[test]
    fn fingerprint_sees_every_bit_of_every_layer(
        blocks in 1u32..5,
        choices in 1u32..4,
        dim in 1usize..6,
        seed in 0u64..1_000,
        pick in (0u64..u64::MAX, 0u64..u64::MAX, 0u32..32),
    ) {
        let (layer_pick, index_pick, bit) = pick;
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        let store = ParamStore::init(&space, dim, seed);
        let n = u64::from(blocks * choices);
        let l = LayerRef::new((layer_pick % n / u64::from(choices)) as u32, (layer_pick % u64::from(choices)) as u32);
        let mut flipped = store.clone();
        let p = flipped.layer_mut(l);
        let i = (index_pick % (dim * dim + dim) as u64) as usize;
        let x = if i < dim * dim { &mut p.weight.data_mut()[i] } else { &mut p.bias.data_mut()[i - dim * dim] };
        *x = f32::from_bits(x.to_bits() ^ 1 << bit);
        prop_assert_ne!(flipped.bitwise_hash(), store.bitwise_hash());
        prop_assert_eq!(flipped.first_divergence(&store), Some(l));
    }

    /// Swapping two (different) layers changes the store's fingerprint:
    /// the fold is over positions, not a set of layers.
    #[test]
    fn fingerprint_sees_two_layers_swapped(
        blocks in 1u32..5,
        choices in 1u32..4,
        dim in 1usize..6,
        seed in 0u64..1_000,
        picks in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        let store = ParamStore::init(&space, dim, seed);
        let n = u64::from(blocks * choices);
        let at = |pick: u64| LayerRef::new((pick % n / u64::from(choices)) as u32, (pick % u64::from(choices)) as u32);
        let (a, b) = (at(picks.0), at(picks.1));
        prop_assume!(store.layer(a) != store.layer(b));
        let mut swapped = store.clone();
        *swapped.layer_mut(a) = store.layer(b).clone();
        *swapped.layer_mut(b) = store.layer(a).clone();
        prop_assert_ne!(swapped.bitwise_hash(), store.bitwise_hash());
        prop_assert_eq!(swapped.first_divergence(&store), Some(a.min(b)));
    }

    /// Stages that own contiguous block ranges, each hashing its own
    /// layers, fold (concatenated in stage order) to the whole store's
    /// fingerprint at 1-4 stages.
    #[test]
    fn per_stage_layer_hashes_fold_to_the_store_fingerprint(
        blocks in 1u32..9,
        choices in 1u32..4,
        dim in 1usize..6,
        seed in 0u64..1_000,
        cuts in proptest::collection::vec(0usize..9, 0..4),
    ) {
        let nb = blocks as usize;
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (nb + 1)).collect();
        cuts.extend([0, nb]);
        cuts.sort_unstable();
        let stages: Vec<Vec<Vec<DenseParams>>> = cuts
            .windows(2)
            .map(|r| (r[0]..r[1]).map(|b| ParamStore::init_block(dim, seed, b, choices)).collect())
            .collect();
        let per_stage: Vec<Vec<u64>> = stages.iter().map(|s| layer_hashes(s).collect()).collect();
        let whole = ParamStore::from_blocks(dim, stages.into_iter().flatten().collect());
        prop_assert_eq!(store_hash(per_stage.iter().flatten().copied()), whole.bitwise_hash());
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        prop_assert_eq!(whole.bitwise_hash(), ParamStore::init(&space, dim, seed).bitwise_hash());
    }

    /// A batch fetched in halves — the input a pipeline's first stage
    /// needs, the target its last one does — is the batch fetched whole.
    #[test]
    fn input_and_target_of_compose_to_step_batch(
        seed in 0u64..1_000,
        step in 0u64..10_000,
        batch in 1usize..9,
        dim in 1usize..40,
    ) {
        let d = SyntheticDataset::new(seed, batch, dim);
        let x = d.input(step);
        let y = d.target_of(&x);
        prop_assert_eq!((x, y), d.step_batch(step));
    }

    /// Synthetic data is a pure function of (seed, step): any access
    /// pattern yields the same batches.
    #[test]
    fn dataset_is_pure(seed in 0u64..1_000, mut steps in proptest::collection::vec(0u64..50, 1..20)) {
        let d = SyntheticDataset::new(seed, 2, 4);
        let first: Vec<Tensor> = steps.iter().map(|&s| d.step_batch(s).0).collect();
        steps.reverse();
        let second: Vec<Tensor> = steps.iter().map(|&s| d.step_batch(s).0).collect();
        for (a, b) in first.iter().zip(second.iter().rev()) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A deterministic dense operand (mixed sign, no zeros, no patterns the
/// kernels could shortcut on).
fn wavy(rows: usize, cols: usize, phase: f32) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| (i as f32 * 0.619 + phase).sin() + 0.013)
            .collect(),
        &[rows, cols],
    )
}

fn assert_pool_invariant(
    label: &str,
    f: impl Fn() -> Tensor,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let reference = pool::with_threads(1, &f);
    for threads in [2usize, 4, 8] {
        let parallel = pool::with_threads(threads, &f);
        prop_assert_eq!(reference.shape(), parallel.shape(), "{} shape", label);
        for (i, (a, b)) in reference.data().iter().zip(parallel.data()).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} diverged at element {} with {} workers",
                label,
                i,
                threads
            );
        }
    }
    Ok(())
}

// Worker-count invariance of every parallelised kernel. The shapes are
// chosen above the parallel-dispatch thresholds (so the pool genuinely
// fans out) and ragged (so tile tails and uneven chunk splits are
// exercised). Cases are few but each one covers every op at three pool
// sizes against the serial result.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `matmul`, `matmul_t` and `t_matmul` are bitwise identical at
    /// 1/2/4/8 workers on ragged above-threshold shapes.
    #[test]
    fn matmul_family_is_worker_count_invariant(
        m in 33usize..72,
        k in 9usize..48,
        tail in 1usize..48,
        phase in 0.0f32..6.0,
    ) {
        // Force m*k*n past the parallel threshold regardless of m and k.
        let n = (1usize << 20) / (m * k) + tail;
        let a = wavy(m, k, phase);
        let b = wavy(k, n, phase + 1.0);
        let c = wavy(n, k, phase + 2.0);
        let e = wavy(k, m, phase + 3.0);
        assert_pool_invariant("matmul", || a.matmul(&b))?;
        assert_pool_invariant("matmul_t", || a.matmul_t(&c))?;
        assert_pool_invariant("t_matmul", || e.t_matmul(&b))?;
        // And the tiled result still equals the naive reference kernel.
        let tiled = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        for (x, y) in tiled.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Every parallelised elementwise and reduction op is bitwise
    /// identical at 1/2/4/8 workers on above-threshold shapes.
    #[test]
    fn elementwise_and_reductions_are_worker_count_invariant(
        rows in 200usize..280,
        cols in 330usize..420,
        phase in 0.0f32..6.0,
    ) {
        let x = wavy(rows, cols, phase);
        let y = wavy(rows, cols, phase + 1.0);
        let bias = wavy(1, cols, phase + 2.0);
        assert_pool_invariant("add", || x.add(&y))?;
        assert_pool_invariant("sub", || x.sub(&y))?;
        assert_pool_invariant("hadamard", || x.hadamard(&y))?;
        assert_pool_invariant("scale", || x.scale(1.75))?;
        assert_pool_invariant("tanh", || x.tanh())?;
        assert_pool_invariant("tanh_backward", || Tensor::tanh_backward(&x.tanh(), &y))?;
        assert_pool_invariant("add_row", || x.add_row(&bias))?;
        assert_pool_invariant("sum_rows", || x.sum_rows())?;
        let serial = pool::with_threads(1, || (x.mean(), x.sum_sq(), x.norm()));
        for threads in [2usize, 4, 8] {
            let parallel = pool::with_threads(threads, || (x.mean(), x.sum_sq(), x.norm()));
            prop_assert_eq!(serial.0.to_bits(), parallel.0.to_bits(), "mean");
            prop_assert_eq!(serial.1.to_bits(), parallel.1.to_bits(), "sum_sq");
            prop_assert_eq!(serial.2.to_bits(), parallel.2.to_bits(), "norm");
        }
    }

    /// `matmul_batch` over mixed op kinds is bitwise equal to the naive
    /// reference of every item and invariant across 1/2/4/8 workers,
    /// including contraction dimensions straddling the K_SEG boundary
    /// (so the packed, batched and segmented paths all agree).
    #[test]
    fn batched_matmul_matches_naive_and_is_worker_invariant(
        m in 5usize..40,
        k in 1usize..520,
        n in 5usize..40,
        phase in 0.0f32..6.0,
    ) {
        let a = wavy(m, k, phase);
        let b = wavy(k, n, phase + 1.0);
        let c = wavy(n, k, phase + 2.0);
        let e = wavy(k, m, phase + 3.0);
        let items = [(MmOp::Nn, &a, &b), (MmOp::Nt, &a, &c), (MmOp::Tn, &e, &b)];
        let reference = [
            a.matmul_naive(&b),
            a.matmul_naive(&c.transpose()),
            e.transpose().matmul_naive(&b),
        ];
        for threads in [1usize, 2, 4, 8] {
            let outs = pool::with_threads(threads, || Tensor::matmul_batch(&items));
            prop_assert_eq!(outs.len(), reference.len());
            for (oi, (got, want)) in outs.iter().zip(&reference).enumerate() {
                prop_assert_eq!(got.shape(), want.shape(), "item {} shape", oi);
                for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "batch item {} diverged from naive at element {} with {} workers",
                        oi, i, threads
                    );
                }
            }
        }
    }

    /// Each single-product entry point — rhs packed lazily (`matmul`,
    /// `matmul_t`) or read in place (`t_matmul`) — equals the naive
    /// reference bitwise on ragged shapes either side of the tiling
    /// threshold, on the vector path and its portable twin.
    #[test]
    fn single_products_match_naive_on_ragged_shapes(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        phase in 0.0f32..6.0,
        portable in 0u32..2,
    ) {
        let a = wavy(m, k, phase);
        let b = wavy(k, n, phase + 1.0);
        let want = a.matmul_naive(&b);
        naspipe_tensor::tensor::set_force_portable(portable == 1);
        let got = [
            a.matmul(&b),
            a.matmul_t(&b.transpose()),
            a.transpose().t_matmul(&b),
        ];
        naspipe_tensor::tensor::set_force_portable(false);
        for (op, got) in ["matmul", "matmul_t", "t_matmul"].iter().zip(&got) {
            prop_assert_eq!(got.shape(), want.shape(), "{} shape", op);
            for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} diverged at element {}", op, i);
            }
        }
    }

    /// K = 0 and K = 1 edges: the empty contraction is exactly +0.0 in
    /// every element (never -0.0, never a skipped write), K = 1 is the
    /// single fused multiply-add, and both match the naive reference
    /// bitwise at every pool size.
    #[test]
    fn k_edge_cases_are_bitwise_deterministic(
        m in 1usize..48,
        n in 1usize..48,
        phase in 0.0f32..6.0,
    ) {
        let a0 = Tensor::from_vec(vec![], &[m, 0]);
        let b0 = Tensor::from_vec(vec![], &[0, n]);
        let a1 = wavy(m, 1, phase);
        let b1 = wavy(1, n, phase + 1.0);
        for threads in [1usize, 2, 4, 8] {
            let (zero, one) = pool::with_threads(threads, || (a0.matmul(&b0), a1.matmul(&b1)));
            for &v in zero.data() {
                prop_assert_eq!(v.to_bits(), 0, "k=0 element must be +0.0");
            }
            for (x, y) in one.data().iter().zip(a1.matmul_naive(&b1).data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "k=1 diverged from naive");
            }
        }
    }

    /// The zero-skip regression guard: a zero row in A against NaN/inf
    /// in B must surface NaN (IEEE `0.0 * NaN = NaN`, `0.0 * inf =
    /// NaN`), bitwise equal to the naive reference and invariant across
    /// pool sizes — an "optimised" kernel that skips zero operands would
    /// silently return 0 here.
    #[test]
    fn zero_times_nan_is_not_skipped(
        k in 2usize..300,
        n in 33usize..64,
        poison_col in 0usize..33,
        phase in 0.0f32..6.0,
    ) {
        let m = 40usize;
        let mut a = wavy(m, k, phase);
        for kk in 0..k {
            a.data_mut()[kk] = 0.0; // row 0 of A is all zeros
        }
        let mut b = wavy(k, n, phase + 1.0);
        let col = poison_col % n;
        b.data_mut()[col] = f32::NAN;
        if n > 1 {
            b.data_mut()[(col + 1) % n] = f32::INFINITY;
        }
        let naive = a.matmul_naive(&b);
        prop_assert!(naive.at(0, col).is_nan(), "0*NaN must surface as NaN");
        for threads in [1usize, 2, 4, 8] {
            let tiled = pool::with_threads(threads, || a.matmul(&b));
            for (i, (x, y)) in tiled.data().iter().zip(naive.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "NaN propagation diverged at element {} with {} workers",
                    i, threads
                );
            }
        }
    }
}

/// Known-answer test pinning the fixed-split segment boundaries at
/// multiples of [`K_SEG`] = 256 through the public API: a cancellation
/// pair placed in different 256-element segments survives compensated
/// combination exactly, and would evaluate differently under any other
/// segment length or a flat (unsegmented) accumulation order. A future
/// refactor that silently changes the accumulation order fails here.
#[test]
fn kat_public_api_pins_k_seg_256_segment_boundaries() {
    assert_eq!(K_SEG, 256, "the determinism contract fixes K_SEG at 256");
    let k = 2 * K_SEG + 8;
    let m = 5;
    let n = 17;
    let a = Tensor::from_vec(vec![1.0; m * k], &[m, k]);
    // Column j of B: +1e8 at kk = 0, -1e8 at kk = K_SEG, 1.0 elsewhere.
    // Within segment 0 every subsequent +1.0 is absorbed (ulp(1e8) = 8),
    // so its partial is exactly +1e8; likewise segment 1's is exactly
    // -1e8; segment 2 holds the eight trailing ones. The compensated
    // combination cancels the big partials exactly and the answer is
    // exactly 8.0. A flat (unsegmented) chain gives 263 (the +1e8/-1e8
    // cancel mid-stream, leaving the later ones unabsorbed), and a
    // 128-element segment length gives 264 — so this value pins both
    // the segmentation itself and K_SEG = 256.
    let mut bv = vec![1.0f32; k * n];
    for j in 0..n {
        bv[j] = 1e8;
        bv[K_SEG * n + j] = -1e8;
    }
    let b = Tensor::from_vec(bv, &[k, n]);
    for threads in [1usize, 2, 4, 8] {
        let out = pool::with_threads(threads, || a.matmul(&b));
        for (i, &v) in out.data().iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                8.0f32.to_bits(),
                "element {i} at {threads} workers: got {v}, want exactly 8"
            );
        }
    }
}

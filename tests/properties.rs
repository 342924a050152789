//! Property-based tests of the system's core invariants, across crates.

use naspipe::core::config::{PipelineConfig, SyncPolicy};
use naspipe::core::partition::Partition;
use naspipe::core::pipeline::SimSpec;
use naspipe::core::repro::verify_csp_order;
use naspipe::core::task::{FinishedSet, StageId};
use naspipe::core::train::{replay_training, sequential_training, TrainConfig};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::rng::DetRng;
use naspipe::supernet::space::SearchSpace;
use naspipe::supernet::subnet::{Subnet, SubnetId, SKIP_CHOICE};
use naspipe::tensor::Tensor;
use proptest::prelude::*;

/// Strategy: a small search space shape plus a consistent subnet stream.
fn space_and_subnets() -> impl Strategy<Value = (u32, u32, Vec<Vec<u32>>)> {
    (2u32..12, 2u32..6).prop_flat_map(|(blocks, choices)| {
        let stream = proptest::collection::vec(
            proptest::collection::vec(0..choices, blocks as usize),
            3..24,
        );
        (Just(blocks), Just(choices), stream)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE core invariant: for any subnet stream and any GPU count, the
    /// CSP schedule's per-layer access order equals sequential execution,
    /// and the replayed training is bitwise equal to the sequential
    /// reference.
    #[test]
    fn csp_always_equals_sequential(
        (blocks, _choices, stream) in space_and_subnets(),
        gpus in 1u32..6,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, blocks, 6);
        let subnets: Vec<Subnet> = stream
            .into_iter()
            .enumerate()
            .map(|(i, c)| Subnet::new(SubnetId(i as u64), c))
            .collect();
        let cfg = PipelineConfig::naspipe(gpus, subnets.len() as u64).with_batch(8);
        let mut spec = SimSpec::new(&space, &cfg);
        spec.subnets = Some(subnets.clone());
        let out = spec.run().unwrap();
        prop_assert!(verify_csp_order(&out).is_ok());

        let tc = TrainConfig { dim: 4, rows: 2, residual_scale: 0.5, ..TrainConfig::default() };
        let seq = sequential_training(&space, &subnets, &tc);
        let rep = replay_training(&space, &out, &tc);
        prop_assert_eq!(seq.final_hash, rep.final_hash);
    }

    /// Every policy completes every feasible workload — no deadlocks, no
    /// lost subnets — and executes exactly 2 * D tasks per subnet.
    #[test]
    fn no_policy_deadlocks(
        (blocks, choices, stream) in space_and_subnets(),
        gpus in 1u32..5,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            SyncPolicy::naspipe(),
            SyncPolicy::Bsp { bulk: 0, swap: false },
            SyncPolicy::Bsp { bulk: 0, swap: true },
            SyncPolicy::Asp,
        ][policy_idx];
        let space = SearchSpace::uniform(Domain::Cv, blocks, choices);
        let subnets: Vec<Subnet> = stream
            .into_iter()
            .enumerate()
            .map(|(i, c)| Subnet::new(SubnetId(i as u64), c))
            .collect();
        let n = subnets.len() as u64;
        let mut cfg = PipelineConfig::naspipe(gpus, n).with_batch(8);
        cfg.policy = policy;
        let mut spec = SimSpec::new(&space, &cfg);
        spec.subnets = Some(subnets);
        let out = spec.run().unwrap();
        prop_assert_eq!(out.report.subnets_completed, n);
        prop_assert_eq!(out.tasks.len() as u64, n * u64::from(gpus) * 2);
    }

    /// A backward wakes only the stages its readers sit on, and that
    /// misses nothing, over shapes the schedule pins never reach: random
    /// `uniform(blocks, choices)` spaces with skipped blocks, 1 to 40
    /// stages (most of them more stages than blocks), mirroring on and
    /// off. A debug build checks after every event that no idle stage
    /// holds a queued backward or an admissible forward; any build checks
    /// the run completes under CSP with its records in order.
    #[test]
    fn backward_wakes_miss_no_dispatch(
        blocks in 1u32..12,
        choices in 1u32..5,
        gpus in 1u32..41,
        mirroring in 0u8..2,
        seed in 0u64..u64::MAX,
        n in 4u64..40,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        let mut rng = DetRng::new(seed);
        let subnets: Vec<Subnet> = (0..n)
            .map(|i| {
                let row = (0..blocks)
                    .map(|_| match rng.next_below(u64::from(choices) + 1) {
                        c if c == u64::from(choices) => SKIP_CHOICE,
                        c => c as u32,
                    })
                    .collect();
                Subnet::new(SubnetId(i), row)
            })
            .collect();
        let policy = SyncPolicy::Csp { scheduler: true, predictor: true, mirroring: mirroring == 1 };
        let cfg = PipelineConfig::naspipe(gpus, n).with_batch(8).with_policy(policy);
        let mut spec = SimSpec::new(&space, &cfg);
        spec.subnets = Some(subnets);
        let out = spec.run().unwrap();
        prop_assert_eq!(out.tasks.len() as u64, n * u64::from(gpus) * 2);
        prop_assert!(verify_csp_order(&out).is_ok());
        let key = |t: &naspipe::core::pipeline::TaskRecord| (t.start, t.subnet, t.stage);
        prop_assert!(out.tasks.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
    }

    /// Balanced partitions tile the block range exactly and never do worse
    /// than the trivial uniform split's bottleneck.
    #[test]
    fn balanced_partition_invariants(
        costs in proptest::collection::vec(0.1f64..100.0, 1..64),
        stages in 1u32..9,
    ) {
        let p = Partition::balanced(&costs, stages);
        // Tiling: every block exactly once, in order.
        let mut covered = Vec::new();
        for k in 0..stages {
            covered.extend(p.stage_range(StageId(k)));
        }
        prop_assert_eq!(covered, (0..costs.len()).collect::<Vec<_>>());
        // Bottleneck no worse than a uniform chunk split.
        let chunk = costs.len().div_ceil(stages as usize);
        let uniform_bottleneck = costs
            .chunks(chunk)
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        prop_assert!(p.bottleneck(&costs) <= uniform_bottleneck + 1e-9);
    }

    /// FinishedSet behaves like a plain set regardless of insertion order.
    #[test]
    fn finished_set_matches_btreeset(mut ids in proptest::collection::vec(0u64..64, 1..40)) {
        ids.sort_unstable();
        ids.dedup();
        let mut shuffled = ids.clone();
        // Deterministic shuffle from the data itself.
        let seed = ids.iter().sum::<u64>();
        let mut rng = DetRng::new(seed);
        rng.shuffle(&mut shuffled);
        let mut set = FinishedSet::new();
        for &id in &shuffled {
            set.insert(SubnetId(id));
        }
        for probe in 0..64u64 {
            prop_assert_eq!(set.contains(SubnetId(probe)), ids.binary_search(&probe).is_ok());
        }
        let first_missing = (0..).find(|i| ids.binary_search(i).is_err()).unwrap();
        prop_assert_eq!(set.first_unfinished(), SubnetId(first_missing));
    }

    /// Tensor matmul distributes over addition bitwise-deterministically:
    /// (A + B) C computed twice gives identical bits.
    #[test]
    fn matmul_is_bitwise_stable(
        a in proptest::collection::vec(-10.0f32..10.0, 16),
        b in proptest::collection::vec(-10.0f32..10.0, 16),
    ) {
        let ta = Tensor::from_vec(a, &[4, 4]);
        let tb = Tensor::from_vec(b, &[4, 4]);
        let c1 = ta.add(&tb).matmul(&ta);
        let c2 = ta.add(&tb).matmul(&ta);
        for (x, y) in c1.data().iter().zip(c2.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The memory model is monotone: more GPUs never *reduces* the
    /// supported batch for a fixed policy.
    #[test]
    fn memory_plan_monotone_in_gpus(choices in 4u32..64) {
        let space = SearchSpace::uniform(Domain::Nlp, 24, choices);
        let policy = SyncPolicy::Bsp { bulk: 0, swap: false };
        let mut last = 0u32;
        for gpus in [2u32, 4, 8, 16] {
            let plan = naspipe::core::memory::plan(&space, policy, gpus, 3.0);
            let batch = plan.verdict.batch().unwrap_or(0);
            prop_assert!(batch >= last, "batch fell from {last} to {batch} at {gpus} GPUs");
            last = batch;
        }
    }
}

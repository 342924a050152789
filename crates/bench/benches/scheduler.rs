//! Micro-benchmarks of NASPipe's scheduling-path components.
//!
//! The paper's complexity analysis (§3.2) claims a scheduler call costs
//! well under 0.01 s against second-scale subnet executions; these benches
//! verify the claim holds for this implementation at two scales:
//!
//! * **8 stages / queue 30** — the paper's per-host shape: 60 tracked
//!   48-block NLP.c1 subnets, every other one of the earlier 30 finished,
//!   the later 30 queued at a middle stage;
//! * **32 stages / window-sized** — the full 8 x 4 testbed: the whole
//!   30-subnet injection window in flight, nothing finished, all but the
//!   head queued at stage 0 (the queue the DES scans right after the
//!   window fills; slices are 1-2 layers, so candidates rarely conflict).
//!
//! Besides ns/call the run reports how many candidates one call scans and
//! what the writer index costs to maintain per subnet, and records
//! everything to `target/tmp/scheduler-benches.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use naspipe_core::context::StageCache;
use naspipe_core::memory::mean_subnet_param_bytes;
use naspipe_core::partition::{Partition, PartitionMode, Partitioner};
use naspipe_core::predictor::Predictor;
use naspipe_core::scheduler::{CspScheduler, SubnetTable};
use naspipe_core::task::{FinishedSet, StageId};
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use std::hint::black_box;

/// One scheduling decision to time: `schedule(queue, finished, table, stage)`.
struct Scenario {
    name: &'static str,
    queue: Vec<SubnetId>,
    finished: Vec<FinishedSet>,
    table: SubnetTable,
    stage: StageId,
}

/// `tracked` NLP.c1 subnets registered over `stages` mirrored stages.
fn table_of(stages: u32, tracked: usize) -> SubnetTable {
    let space = SearchSpace::nlp_c1();
    let profile = ProfiledSpace::new(&space, 192);
    let mut partitioner = Partitioner::new(profile, stages, PartitionMode::Mirrored);
    let mut table = SubnetTable::new();
    for subnet in UniformSampler::new(&space, 1).take_subnets(tracked) {
        let p = partitioner.partition_for(&subnet);
        table.insert(subnet, p).expect("fresh sequence IDs");
    }
    table
}

fn scenarios() -> [Scenario; 2] {
    let mut half_finished = vec![FinishedSet::new(); 8];
    for f in &mut half_finished {
        for i in 0..15u64 {
            f.insert(SubnetId(i * 2));
        }
    }
    [
        Scenario {
            name: "8stage_queue30",
            queue: (30..60).map(SubnetId).collect(),
            finished: half_finished,
            table: table_of(8, 60),
            stage: StageId(3),
        },
        Scenario {
            name: "32stage_window30",
            queue: (1..30).map(SubnetId).collect(),
            finished: vec![FinishedSet::new(); 32],
            table: table_of(32, 30),
            stage: StageId(0),
        },
    ]
}

fn bench_scheduler(c: &mut Criterion) {
    for s in scenarios() {
        let mut scheduler = CspScheduler::new();
        c.bench_function(&format!("csp_schedule/{}", s.name), |b| {
            b.iter(|| {
                black_box(scheduler.schedule(
                    black_box(&s.queue),
                    black_box(&s.finished),
                    black_box(&s.table),
                    s.stage,
                ))
            })
        });
        let stats = scheduler.stats();
        c.report_value(
            &format!("csp_schedule/{}/scanned_per_call", s.name),
            stats.scanned as f64 / stats.calls as f64,
            "candidates",
        );
    }
}

/// The writer index's bookkeeping per 48-block NLP.c1 subnet: register
/// the next subnet (built beforehand) in a warm 8-stage table holding a
/// 30-subnet window, and retire the oldest.
fn bench_table(c: &mut Criterion) {
    const WINDOW: u64 = 30;
    let space = SearchSpace::nlp_c1();
    let mut partitioner =
        Partitioner::new(ProfiledSpace::new(&space, 192), 8, PartitionMode::Mirrored);
    let archs: Vec<(Subnet, Partition)> = UniformSampler::new(&space, 1)
        .take_subnets(400)
        .into_iter()
        .map(|s| {
            let p = partitioner.partition_for(&s);
            (s, p)
        })
        .collect();
    // The shim times at most 10 000 iterations after one warm-up call.
    let mut entries = (0..WINDOW + 10_001).map(|i| {
        let (s, p) = &archs[i as usize % archs.len()];
        (Subnet::new(SubnetId(i), s.choices().to_vec()), p.clone())
    });
    let mut table = SubnetTable::new();
    for (s, p) in entries.by_ref().take(WINDOW as usize) {
        table.insert(s, p).expect("fresh sequence IDs");
    }
    let mut entries: Vec<_> = entries.collect();
    entries.reverse();
    c.bench_function("subnet_table/insert_retire", |b| {
        b.iter(|| {
            let (s, p) = entries.pop().expect("one entry per iteration");
            let oldest = SubnetId(s.seq_id().0 + 1 - WINDOW);
            table.insert(black_box(s), p).expect("fresh sequence IDs");
            table.retire_below(oldest);
        })
    });
}

fn bench_predictor(c: &mut Criterion) {
    for s in scenarios() {
        let mut scheduler = CspScheduler::new();
        let mut predictor = Predictor::new();
        let recv = s.queue[1];
        c.bench_function(&format!("predictor_before_backward/{}", s.name), |b| {
            b.iter(|| {
                black_box(predictor.before_backward(
                    &mut scheduler,
                    black_box(&s.queue),
                    black_box(&s.finished),
                    black_box(&s.table),
                    s.stage,
                    recv,
                    &[],
                ))
            })
        });
    }
}

fn bench_partitioner(c: &mut Criterion) {
    let space = SearchSpace::nlp_c1();
    let profile = ProfiledSpace::new(&space, 192);
    let mut sampler = UniformSampler::new(&space, 2);
    let subnet = sampler.next_subnet();
    let costs = profile.subnet_block_costs(&subnet);
    c.bench_function("balanced_partition_48_blocks_8_stages", |b| {
        b.iter(|| black_box(Partition::balanced(black_box(&costs), 8)))
    });
    c.bench_function("balanced_partition_48_blocks_32_stages", |b| {
        b.iter(|| black_box(Partition::balanced(black_box(&costs), 32)))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("stage_cache_access_cycle", |b| {
        let mut cache = StageCache::new(600);
        b.iter(|| {
            for i in 0..24u32 {
                cache.access(LayerRef::new(i % 12, i / 12), 40);
            }
        })
    });

    // The cache work of one DES task as stage 3 of 8 sees an NLP.c1
    // stream, in a cache of 3 mean slices like the engine's: prefetch the
    // next two subnets' 6-layer slices, access and pin the running one,
    // release it. Unlike the cycle above it evicts, refuses prefetches
    // and pins on every iteration.
    let space = SearchSpace::nlp_c1();
    let profile = ProfiledSpace::new(&space, 192);
    let slices: Vec<Vec<(LayerRef, u64)>> = UniformSampler::new(&space, 7)
        .take_subnets(400)
        .iter()
        .map(|s| {
            (18..24)
                .map(|b| (s.layer(b), profile.cost(s.layer(b)).param_bytes))
                .collect()
        })
        .collect();
    c.bench_function("stage_cache_task_mix", |b| {
        let mut cache = StageCache::new(mean_subnet_param_bytes(&space) / 8 * 3);
        let mut i = 0;
        b.iter(|| {
            for ahead in [1, 2] {
                for &(l, bytes) in &slices[(i + ahead) % slices.len()] {
                    black_box(cache.prefetch(l, bytes));
                }
            }
            let slice = &slices[i % slices.len()];
            for &(l, bytes) in slice {
                black_box(cache.access(l, bytes));
                cache.pin(l);
            }
            for &(l, _) in slice {
                cache.unpin(l);
            }
            i += 1;
        })
    });
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_table,
    bench_predictor,
    bench_partitioner,
    bench_cache
);
criterion_main!(benches);

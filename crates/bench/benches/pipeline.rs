//! End-to-end engine benchmarks: how fast the discrete-event pipeline
//! simulates each synchronisation policy, what CSP admission costs the
//! simulator per task at the paper's 8 x 4 topology, and how fast the
//! numeric training replay runs. Results are recorded to
//! `target/tmp/pipeline-benches.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, TrainConfig};
use naspipe_obs::NullTracer;
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let space = SearchSpace::uniform(Domain::Nlp, 16, 12);
    let subnets = UniformSampler::new(&space, 7).take_subnets(32);
    let mut group = c.benchmark_group("engine_32_subnets_8_gpus");
    for (name, policy) in [
        ("csp", SyncPolicy::naspipe()),
        (
            "bsp",
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
        ),
        ("asp", SyncPolicy::Asp),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &policy| {
            let mut cfg = PipelineConfig::naspipe(8, 32).with_batch(32);
            cfg.policy = policy;
            b.iter(|| {
                let mut spec = SimSpec::new(&space, &cfg);
                spec.subnets = Some(subnets.clone());
                black_box(spec.run().unwrap())
            })
        });
    }
    group.finish();
}

/// The DES under CSP on NLP.c1 at 8 and 32 stages (untraced, the
/// `des-scale-32gpu` shape at a tenth of its length): host time per
/// simulated task, scheduler calls per task and candidates scanned per
/// admission — the figures behind "admission is event-driven".
fn bench_csp_admission(c: &mut Criterion) {
    const SUBNETS: u64 = 400;
    let space = SearchSpace::nlp_c1();
    let subnets = UniformSampler::new(&space, 2022).take_subnets(SUBNETS as usize);
    for gpus in [8u32, 32] {
        let cfg = PipelineConfig::naspipe(gpus, SUBNETS).with_seed(2022);
        let run = || {
            SimSpec {
                subnets: Some(subnets.clone()),
                tracer: Box::new(NullTracer),
                ..SimSpec::new(&space, &cfg)
            }
            .run()
            .unwrap()
        };
        let name = format!("des_csp_nlp_c1_{SUBNETS}_subnets/{gpus}_gpus");
        c.bench_function(&name, |b| b.iter(|| black_box(run())));
        let out = run();
        let tasks = out.tasks.len() as f64;
        let stats = out.report.scheduler_stats;
        c.report_value(&format!("{name}/tasks"), tasks, "count");
        c.report_value(
            &format!("{name}/scheduler_calls_per_task"),
            stats.calls as f64 / tasks,
            "calls",
        );
        c.report_value(
            &format!("{name}/scanned_per_admission"),
            stats.scanned as f64 / stats.hits.max(1) as f64,
            "candidates",
        );
    }
}

fn bench_replay(c: &mut Criterion) {
    let space = SearchSpace::uniform(Domain::Nlp, 16, 12);
    let subnets = UniformSampler::new(&space, 7).take_subnets(32);
    let cfg = PipelineConfig::naspipe(8, 32).with_batch(32);
    let mut spec = SimSpec::new(&space, &cfg);
    spec.subnets = Some(subnets);
    let outcome = spec.run().unwrap();
    let tc = TrainConfig {
        residual_scale: 0.25,
        ..TrainConfig::default()
    };
    c.bench_function("numeric_replay_32_subnets", |b| {
        b.iter(|| black_box(replay_training(&space, black_box(&outcome), &tc)))
    });
}

criterion_group!(benches, bench_policies, bench_csp_admission, bench_replay);
criterion_main!(benches);

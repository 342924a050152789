//! End-to-end engine benchmarks: how fast the discrete-event pipeline
//! simulates each synchronisation policy, what CSP admission costs the
//! simulator per task at the paper's 8 x 4 topology, what the span store
//! costs per span and per exported byte, what one watchdog observation
//! costs as the stage count grows, what a checkpoint cut and a durable
//! persist cost on the durable workload's shape, and how fast the numeric
//! training replay runs. Results are recorded to
//! `target/tmp/pipeline-benches.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use naspipe_core::checkpoint::{Checkpoint, StageSnapshot};
use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::durable::{encode_snapshot, DurableStore};
use naspipe_core::pipeline::SimSpec;
use naspipe_core::train::{replay_training, TrainConfig};
use naspipe_obs::{
    export_chrome, Counter, MetricsRecorder, NullTracer, Recorder, RunMeta, Sample, SpanDraft,
    SpanId, SpanTrace, SpanTracer, Tracer, Watchdog,
};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_tensor::layers::DenseParams;
use naspipe_tensor::model::ParamStore;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

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
/// simulated task, scheduler calls and candidates scanned per task, and
/// candidates scanned per admission — the figures behind "admission is
/// event-driven".
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
            &format!("{name}/scanned_per_task"),
            stats.scanned as f64 / tasks,
            "candidates",
        );
        c.report_value(
            &format!("{name}/scanned_per_admission"),
            stats.scanned as f64 / stats.hits.max(1) as f64,
            "candidates",
        );
    }
}

/// The span store on the stream the `des-paper-8gpu` workload records
/// (NLP.c1, 8 GPUs, 4000 subnets, seed 2022: 405 540 spans), replayed in
/// emission order: what a span costs to buffer in order and hand over,
/// and what a byte of Chrome export costs at 25 000 and at 200 000 spans.
/// Export follows every causal edge through `SpanTrace::get`, so the two
/// rates agree while lookup is O(1) and fall apart 8x when it scans.
fn bench_span_store(c: &mut Criterion) {
    const SUBNETS: u64 = 4000;
    let space = SearchSpace::nlp_c1();
    let cfg = PipelineConfig::naspipe(8, SUBNETS).with_seed(2022);
    let trace = SimSpec::new(&space, &cfg).run().unwrap().spans;

    // A `SpanTracer::new()` numbers spans 1, 2, 3, ... as they arrive.
    let mut emitted: Vec<_> = trace.spans().iter().collect();
    emitted.sort_unstable_by_key(|s| s.id);
    let drafts: Vec<SpanDraft> = emitted
        .into_iter()
        .map(|s| SpanDraft {
            stage: s.stage,
            kind: s.kind,
            subnet: s.subnet,
            start_us: s.start_us,
            end_us: s.end_us,
            cause: s.cause,
            evicted: s.evicted,
        })
        .collect();
    let emit_take = || {
        let mut tracer = SpanTracer::new();
        for draft in &drafts {
            tracer.emit(draft.clone());
        }
        tracer.take()
    };
    assert_eq!(emit_take(), trace, "the replay rebuilds the recorded trace");
    c.bench_function("span_store/emit_take_405k", |b| {
        b.iter(|| black_box(emit_take()))
    });
    let start = Instant::now();
    black_box(emit_take());
    c.report_value(
        "span_store/emit_take_405k/per_span",
        start.elapsed().as_nanos() as f64 / drafts.len() as f64,
        "ns",
    );

    let meta = RunMeta::new("des", 8).seed(2022);
    for (name, spans) in [("export_25k", 25_000), ("export_200k", 200_000)] {
        let name = format!("span_store/{name}");
        // Exported through a clone each time: `head` itself is never
        // looked up in, so every export builds the id index, as the one
        // export of a run does.
        let head = SpanTrace::from_spans(trace.spans()[..spans].to_vec());
        c.bench_function(&name, |b| {
            b.iter(|| black_box(export_chrome(&head.clone(), &meta)))
        });
        let (fresh, start) = (head.clone(), Instant::now());
        let bytes = black_box(export_chrome(&fresh, &meta)).len();
        c.report_value(
            &format!("{name}/rate"),
            bytes as f64 / 1e6 / start.elapsed().as_secs_f64(),
            "MB/s",
        );
    }
}

/// One watchdog observation at 8, 32 and 256 stages: what the DES pays
/// every 200 ms of simulated time with diagnostics on (5 360 times on the
/// paper's 32-GPU, 4000-subnet run). The watchdog reads the recorder in
/// place; the stages run a healthy spread of paces, so nothing latches
/// and the figure is the steady-state cost per observation.
fn bench_watchdog_observe(c: &mut Criterion) {
    for stages in [8u32, 32, 256] {
        let mut rec = MetricsRecorder::new();
        for k in 0..stages {
            let us = 9_000 + 100 * u64::from(k % 5);
            for _ in 0..100 {
                rec.incr(k, Counter::ForwardTask, 1);
                rec.sample(k, Sample::ForwardLatencyUs, us);
                rec.incr(k, Counter::BackwardTask, 1);
                rec.sample(k, Sample::BackwardLatencyUs, 2 * us);
            }
        }
        let mut wd = Watchdog::new(stages as usize);
        let mut at = 0;
        c.bench_function(&format!("watchdog_observe/{stages}_stages"), |b| {
            b.iter(|| {
                at += 200_000;
                let verdicts = wd.observe(at, rec.stages());
                assert!(verdicts.is_empty());
            })
        });
    }
}

/// One stage's slice at the `rt-durable-ops` shape (48 blocks × 48
/// choices at dim 16 over two stages: blocks 0..24, 1152 layers), and
/// the layers 16 of its subnets write — what one checkpoint interval
/// leaves to copy when a stage refills the spare it took at the cut
/// before last.
fn durable_ops_slice() -> (Vec<Vec<DenseParams>>, Vec<(usize, usize)>) {
    let space = SearchSpace::uniform(Domain::Nlp, 48, 48);
    let params = (0..24)
        .map(|b| ParamStore::init_block(16, 7, b, 48))
        .collect();
    let subnets = UniformSampler::new(&space, 7).take_subnets(16);
    let written: BTreeSet<(usize, usize)> = (subnets.iter())
        .flat_map(|s| {
            (0..24)
                .filter(|&b| !s.skips(b))
                .map(|b| (b, s.layer(b).choice as usize))
        })
        .collect();
    (params, written.into_iter().collect())
}

/// A checkpoint cut on one stage: a clone of the whole slice, against
/// refilling a spare snapshot with the 16-subnet write set.
fn bench_checkpoint_cut(c: &mut Criterion) {
    let (params, written) = durable_ops_slice();
    let engine = TrainConfig::default().engine();
    let losses = BTreeMap::new();
    c.report_value(
        "checkpoint_cut/written_share",
        written.len() as f64 / (24.0 * 48.0),
        "ratio",
    );
    c.bench_function("checkpoint_cut/clone", |b| {
        b.iter(|| {
            black_box(StageSnapshot {
                params: params.clone(),
                engine: engine.clone(),
                losses: losses.clone(),
            })
        })
    });
    let mut spare = StageSnapshot {
        params: params.clone(),
        engine: engine.clone(),
        losses: losses.clone(),
    };
    c.bench_function("checkpoint_cut/spare", |b| {
        b.iter(|| {
            spare.refill(&params, written.iter().copied(), &engine, &losses);
            black_box(&spare);
        })
    });
}

/// One durable persist of a two-stage `rt-durable-ops` cut (2.56 MB):
/// into a created file (keep 1, nothing to recycle), against rewriting
/// the cut retention drops (keep 2). Both fsync the file and the
/// directory, so the figures are this host's disk.
fn bench_durable_persist(c: &mut Criterion) {
    let (params, _) = durable_ops_slice();
    let stage = StageSnapshot {
        params,
        engine: TrainConfig::default().engine(),
        losses: BTreeMap::new(),
    };
    let mut cut = Checkpoint {
        watermark: 0,
        stages: vec![stage.clone(), stage],
        cut_span: SpanId::EXTERNAL,
    };
    c.report_value(
        "durable_persist/cut_mb",
        encode_snapshot(&cut, 0).len() as f64 / 1e6,
        "MB",
    );
    let root = std::env::temp_dir().join(format!("naspipe-bench-persist-{}", std::process::id()));
    for (name, keep) in [("create", 1), ("recycled", 2)] {
        let store = DurableStore::open(&root.join(name), keep, 0).expect("scratch dir");
        c.bench_function(&format!("durable_persist/{name}"), |b| {
            b.iter(|| {
                cut.watermark += 8;
                store.persist(&cut).expect("persist")
            })
        });
    }
    let _ = std::fs::remove_dir_all(&root);
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

criterion_group!(
    benches,
    bench_policies,
    bench_csp_admission,
    bench_span_store,
    bench_watchdog_observe,
    bench_checkpoint_cut,
    bench_durable_persist,
    bench_replay
);
criterion_main!(benches);

//! The traced run: one pass over the workload's ladder and the
//! per-layer microbenchmarks, a harness span around every call into a
//! layer, and the per-layer table derived from those spans.
//!
//! A layer the workload never calls reports 0 for its times and counts.

use crate::calibrate;
use crate::e2e::Plan;
use crate::spans::Spans;
use crate::stats::{median, percentile, undisturbed, Metric};
use crate::workloads::{
    des_config, run_des, run_rt, stream, Clock, DesRung, Engine, RtRung, Stopwatch,
    CHECKPOINT_INTERVAL,
};
use crate::Outcome;
use naspipe_baselines::SystemKind;
use naspipe_core::checkpoint::{Checkpoint, StageSnapshot};
use naspipe_core::config::SyncPolicy;
use naspipe_core::context::StageCache;
use naspipe_core::durable::{decode_snapshot, encode_snapshot, run_fingerprint, DurableStore};
use naspipe_core::partition::{Partition, PartitionMode, Partitioner};
use naspipe_core::pipeline::PipelineOutcome;
use naspipe_core::predictor::Predictor;
use naspipe_core::repro::{verify_csp_order, verify_csp_order_parts};
use naspipe_core::runtime::SupervisedRun;
use naspipe_core::scheduler::{CspScheduler, SubnetTable};
use naspipe_core::task::{FinishedSet, StageId};
use naspipe_core::train::{replay_training, sequential_training, TrainConfig};
use naspipe_core::transcript::Transcript;
use naspipe_obs::{
    critical_path, export_chrome, parse_chrome, CauseKind, Counter, FlightEventKind,
    FlightRecorder, Journal, JournalLevel, MetricsRecorder, Recorder, RunMeta, Sample, SpanDraft,
    SpanId, SpanKind, SpanTrace, SpanTracer, TeeRecorder, TelemetryHub, Tracer,
};
use naspipe_sim::event::EventQueue;
use naspipe_sim::time::SimTime;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use naspipe_tensor::model::ParamStore;
use naspipe_tensor::{pool, MmOp, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order. BENCHMARK.json
/// lists the same names; `tests/quick.rs` holds the two together.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_gflops", "GF/s"),
    ("tensor.matmul_t_gflops", "GF/s"),
    ("tensor.t_matmul_gflops", "GF/s"),
    ("tensor.batch_gflops", "GF/s"),
    ("tensor.flops_total", "count"),
    ("tensor.kernel_s", "s"),
    ("tensor.glue_s", "s"),
    ("supernet.sample_ns_per_subnet", "ns"),
    ("supernet.pair_share_prob", "ratio"),
    ("sim.event_ns", "ns"),
    ("partition.balanced_ns", "ns"),
    ("partition.mirrored_ns_per_subnet", "ns"),
    ("scheduler.schedule_ns_per_call", "ns"),
    ("scheduler.calls", "count"),
    ("scheduler.scanned", "count"),
    ("scheduler.hits", "count"),
    ("scheduler.scanned_per_hit", "ratio"),
    ("scheduler.est_share", "ratio"),
    ("predictor.before_backward_ns", "ns"),
    ("context.access_ns", "ns"),
    ("context.hits", "count"),
    ("context.misses", "count"),
    ("context.evictions", "count"),
    ("context.prefetches", "count"),
    ("context.hit_err_vs_paper", "ratio"),
    ("pipeline.tasks", "count"),
    ("pipeline.host_ns_per_task", "ns"),
    ("pipeline.host_s_null", "s"),
    ("pipeline.host_s_traced", "s"),
    ("pipeline.ns_per_task_growth", "ratio"),
    ("pipeline.idle_blocked_share", "ratio"),
    ("pipeline.idle_empty_share", "ratio"),
    ("runtime.stage1_overhead_s", "s"),
    ("runtime.pipeline_gain_s", "s"),
    ("runtime.ns_per_task", "ns"),
    ("runtime.stall_us", "us"),
    ("runtime.bubble_us", "us"),
    ("runtime.queue_depth_p95", "count"),
    ("runtime.cp_compute_share", "ratio"),
    ("runtime.cp_causal_stall_share", "ratio"),
    ("runtime.cp_bubble_share", "ratio"),
    ("checkpoint.mem_overhead_s", "s"),
    ("durable.persist_overhead_s", "s"),
    ("durable.persist_ms", "ms"),
    ("durable.persist_p90_ms", "ms"),
    ("durable.snapshots", "count"),
    ("durable.snapshot_bytes", "count"),
    ("durable.encode_mb_per_s", "MB/s"),
    ("durable.decode_mb_per_s", "MB/s"),
    ("durable.load_latest_ms", "ms"),
    ("train.sequential_subnets_per_s", "1/s"),
    ("train.replay_subnets_per_s", "1/s"),
    ("transcript.write_mb_per_s", "MB/s"),
    ("transcript.read_mb_per_s", "MB/s"),
    ("repro.verify_csp_order_s", "s"),
    ("obs.diag_overhead_s", "s"),
    ("obs.full_overhead_s", "s"),
    ("obs.des_trace_overhead_s", "s"),
    ("obs.des_hub_overhead_s", "s"),
    ("obs.recorder_ns_per_event", "ns"),
    ("obs.tracer_ns_per_span", "ns"),
    ("obs.flight_ns_per_event", "ns"),
    ("obs.journal_ns_per_event", "ns"),
    ("obs.tee_ns_per_event", "ns"),
    ("obs.spans", "count"),
    ("obs.critical_path_s", "s"),
    ("obs.chrome_export_mb_per_s", "MB/s"),
    ("obs.chrome_parse_mb_per_s", "MB/s"),
    ("baselines.gpipe_host_ns_per_task", "ns"),
    ("baselines.vpipe_host_ns_per_task", "ns"),
    ("baselines.pipedream_host_ns_per_task", "ns"),
    ("baselines.vpipe_sim_samples_per_s", "1/s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.host_speed", "ratio"),
];

/// The in-flight window (`|L_q|`) both engines default to.
const WINDOW: usize = 30;

/// Spans the chrome round trip is measured on. `export_chrome` is
/// superlinear in the span count (a 750 000-span DES trace takes a
/// minute), so its rate only compares at a fixed size.
const CHROME_SPANS: usize = 50_000;

/// State of one traced run.
struct Traced<'a> {
    plan: &'a Plan<'a>,
    spans: Spans,
    values: BTreeMap<&'static str, f64>,
    out: Outcome,
    /// Time each microbenchmark loops for.
    budget: Duration,
    /// Passes over each ladder rung; its time is the fastest pass.
    passes: usize,
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

impl Traced<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Sums the table's `metrics` — what a reader would add up.
    fn sum(&self, metrics: &[&str]) -> f64 {
        metrics
            .iter()
            .map(|m| self.values.get(m).copied().unwrap_or(0.0))
            .sum()
    }

    /// Loops `op` for the microbenchmark budget under a span named
    /// `name`; returns nanoseconds per operation.
    fn micro(&mut self, name: &str, mut op: impl FnMut()) -> f64 {
        let id = self.spans.enter(name);
        let start = Instant::now();
        let mut count = 0u64;
        while start.elapsed() < self.budget {
            for _ in 0..16 {
                op();
            }
            count += 16;
        }
        self.spans.exit(id, count);
        self.spans.ns_per_op(name)
    }

    /// Runs one ladder rung: `pass` once per pass, each result dropped
    /// before the next pass starts so that none pays for another's live
    /// memory. Returns the last result; the rung's time is the fastest
    /// of the spans `pass` records.
    fn rung<T>(
        &mut self,
        mut pass: impl FnMut(&mut Spans) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..self.passes {
            drop(last.take());
            last = Some(pass(&mut self.spans)?);
        }
        Ok(last.expect("a rung has at least one pass"))
    }

    /// The same call with the harness's tracing off; fastest pass.
    fn untraced<T>(
        &self,
        mut pass: impl FnMut(&mut Stopwatch) -> Result<(T, f64), String>,
    ) -> Result<f64, String> {
        let mut fastest = f64::INFINITY;
        for _ in 0..self.passes {
            fastest = fastest.min(pass(&mut Stopwatch)?.1);
        }
        Ok(fastest)
    }

    /// Counts one verification over `ops` subnets.
    fn check(&mut self, ops: usize, ok: bool, what: &str) {
        self.out.attempted += ops as u64;
        if !ok {
            self.out.fail(ops as u64, what);
        }
    }
}

pub fn run(plan: &Plan<'_>) -> Result<Outcome, String> {
    let w = plan.workload;
    let mut t = Traced {
        plan,
        spans: Spans::new(w.name),
        values: BTreeMap::new(),
        out: Outcome::default(),
        budget: Duration::from_millis(if plan.quick { 2 } else { 30 }),
        passes: if plan.quick { 1 } else { 2 },
    };
    let (space, n) = (w.space(), plan.n());
    let cfg = w.train_config(plan.seed);
    let mut calibrations = calibrate::passes().to_vec();

    let (subnets, secs) = t
        .spans
        .time("supernet.sample", n as u64, || stream(&space, plan.seed, n));
    t.set("supernet.sample_ns_per_subnet", secs * 1e9 / n as f64);
    t.set("supernet.pair_share_prob", pair_share_prob(&subnets));
    // Warm up on a quarter of the stream, then time whole passes.
    sequential_training(&space, &subnets[..n.div_ceil(4)], &cfg);
    let seq = t.rung(|spans| {
        let pass = spans.time("train.sequential", n as u64, || {
            sequential_training(&space, &subnets, &cfg)
        });
        Ok(pass.0)
    })?;
    t.set(
        "train.sequential_subnets_per_s",
        n as f64 / t.spans.fastest("train.sequential"),
    );

    // The workload's own engine first, then the DES section: on `des-*`
    // that is the workload itself, on `rt-*` its twin on the same stream.
    let des_top = match w.engine {
        Engine::Rt { dim, rows, top, .. } => {
            let group = t.spans.enter("rt");
            let run = rt_ladder(&mut t, &space, &subnets, &cfg, top, seq.final_hash)?;
            tensor_micro(&mut t, rows, dim);
            if top >= RtRung::Durable {
                durable_micro(&mut t, &space, &subnets, &cfg)?;
            }
            let meta = RunMeta::new("threaded", w.stages()).seed(plan.seed);
            span_consumers(&mut t, &run.spans, &meta, true);
            let (order, secs) =
                t.spans
                    .time("repro.verify_csp_order", run.tasks.len() as u64, || {
                        verify_csp_order_parts(&run.subnets, &run.tasks)
                    });
            t.check(
                n,
                order.is_ok(),
                "CSP order violated in the threaded task stream",
            );
            t.set("repro.verify_csp_order_s", secs);
            t.spans.exit(group, n as u64);
            None
        }
        Engine::Des { top, .. } => Some(top),
    };
    let group = t.spans.enter("des");
    des_section(&mut t, &space, &subnets, &cfg, des_top, seq.final_hash)?;
    t.spans.exit(group, n as u64);
    calibrations.extend(calibrate::passes());
    let group = t.spans.enter("micro");
    common_micro(&mut t);
    t.spans.exit(group, 0);
    // Per-layer times are raw host seconds; this is the factor that
    // turns them into the calibrated seconds of the end-to-end metrics.
    calibrations.extend(calibrate::passes());
    t.set(
        "bench.host_speed",
        calibrate::NOMINAL_S / undisturbed(&calibrations),
    );

    let trace_path = plan.scratch.join(format!("{}.trace.json", w.name));
    t.spans
        .write_json(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    t.out
        .note(format!("spans written to {}", trace_path.display()));
    let values = t.values;
    t.out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| -> Metric { (name, values.get(name).copied().unwrap_or(0.0), unit) })
        .collect();
    Ok(t.out)
}

/// Measured fraction of in-window subnet pairs that share a layer.
fn pair_share_prob(subnets: &[Subnet]) -> f64 {
    let (mut pairs, mut sharing) = (0u64, 0u64);
    for (i, a) in subnets.iter().enumerate() {
        for b in subnets.iter().skip(i + 1).take(WINDOW - 1) {
            pairs += 1;
            sharing += u64::from(a.conflicts_with(b));
        }
    }
    sharing as f64 / pairs.max(1) as f64
}

/// Operands of one dense layer at the workload's shapes: activations
/// `[rows, dim]`, weights `[dim, dim]`, output gradient `[rows, dim]`.
fn layer_operands(rows: usize, dim: usize) -> (Tensor, Tensor, Tensor) {
    let filled = |r: usize, c: usize, salt: usize| {
        let data = (0..r * c)
            .map(|i| ((i * 37 + salt) % 101) as f32 / 50.0 - 1.0)
            .collect();
        Tensor::from_vec(data, &[r, c])
    };
    (
        filled(rows, dim, 1),
        filled(dim, dim, 2),
        filled(rows, dim, 3),
    )
}

/// The threaded ladder up to the workload's own configuration: raw
/// kernels, `sequential_training` (already run), one stage, D stages
/// bare, then one rung per instrument. Each step is a rung's wall minus
/// the rung below it, so the steps telescope to the top rung. Returns
/// the top run.
fn rt_ladder(
    t: &mut Traced<'_>,
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
    top: RtRung,
    seq_hash: u64,
) -> Result<SupervisedRun, String> {
    let (plan, n, stages) = (t.plan, subnets.len(), t.plan.workload.stages());

    // Warm-up and one repetition with the harness's tracing off: the
    // base of `bench.trace_overhead_ratio`.
    run_rt(
        &mut Stopwatch,
        "",
        space,
        &subnets[..n.div_ceil(4)],
        cfg,
        stages,
        top,
        plan.scratch,
    )?;
    let untraced_s =
        t.untraced(|clock| run_rt(clock, "", space, subnets, cfg, stages, top, plan.scratch))?;

    // Raw kernel calls at the workload's shapes with the exact multiply
    // count: per activated layer one forward product and the backward's
    // batched pair.
    let layers: u64 = subnets.iter().map(|s| s.layers().count() as u64).sum();
    let (x, wgt, dz) = layer_operands(cfg.rows, cfg.dim);
    t.rung(|spans| {
        spans.time("tensor.kernels", layers * 3, || {
            pool::with_threads(1, || {
                for _ in 0..layers {
                    black_box(black_box(&x).matmul(&wgt));
                    black_box(Tensor::matmul_batch(&[
                        (MmOp::Tn, &x, &dz),
                        (MmOp::Nt, &dz, &wgt),
                    ]));
                }
            });
        });
        Ok(())
    })?;
    let kernel_s = t.spans.fastest("tensor.kernels");
    let seq_s = t.spans.fastest("train.sequential");
    t.set(
        "tensor.flops_total",
        (layers * 6 * (cfg.rows * cfg.dim * cfg.dim) as u64) as f64,
    );
    t.set("tensor.kernel_s", kernel_s);
    t.set("tensor.glue_s", seq_s - kernel_s);

    // Span name, stage threads, configuration, the step's metric and its
    // sign: the pipeline gain is a saving, positive when D stages beat one.
    let rungs: [(&str, u32, RtRung, &'static str, f64); 6] = [
        (
            "rt.bare.1-stage",
            1,
            RtRung::Bare,
            "runtime.stage1_overhead_s",
            1.0,
        ),
        (
            "rt.bare",
            stages,
            RtRung::Bare,
            "runtime.pipeline_gain_s",
            -1.0,
        ),
        ("rt.diag", stages, RtRung::Diag, "obs.diag_overhead_s", 1.0),
        (
            "rt.mem-checkpoint",
            stages,
            RtRung::MemCheckpoint,
            "checkpoint.mem_overhead_s",
            1.0,
        ),
        (
            "rt.durable",
            stages,
            RtRung::Durable,
            "durable.persist_overhead_s",
            1.0,
        ),
        (
            "rt.full-ops",
            stages,
            RtRung::FullOps,
            "obs.full_overhead_s",
            1.0,
        ),
    ];
    let mut below = seq_s;
    let mut top_run = None;
    let mut top_span = "";
    for (span, stage_count, step, metric, sign) in rungs {
        if step > top {
            break;
        }
        // Drop the previous rung's run first, like the passes do.
        drop(top_run.take());
        let (run, _) = t.rung(|spans| {
            run_rt(
                spans,
                span,
                space,
                subnets,
                cfg,
                stage_count,
                step,
                plan.scratch,
            )
        })?;
        let wall = t.spans.fastest(span);
        t.check(
            n,
            run.result.final_hash == seq_hash,
            &format!("{span}: final_hash differs from sequential"),
        );
        t.set(metric, sign * (wall - below));
        (below, top_run, top_span) = (wall, Some(run), span);
    }
    let run = top_run.expect("the bare rungs always run");
    let wall = t.spans.fastest(top_span);
    // What a reader of the table would add up, against the top span.
    let table_sum = t.sum(&["tensor.kernel_s", "tensor.glue_s"])
        + rungs.iter().map(|r| r.4 * t.sum(&[r.3])).sum::<f64>();
    t.check(
        n,
        (table_sum - wall).abs() < 1e-6,
        "threaded ladder does not sum to the traced wall",
    );

    t.set("bench.trace_overhead_ratio", wall / untraced_s);
    t.set(
        "runtime.ns_per_task",
        wall * 1e9 / (n as f64 * f64::from(stages) * 2.0),
    );
    let obs = &run.report.stages;
    t.set(
        "runtime.stall_us",
        obs.iter().map(|s| s.stall_us).sum::<u64>() as f64,
    );
    t.set(
        "runtime.bubble_us",
        obs.iter().map(|s| s.bubble_us).sum::<u64>() as f64,
    );
    t.set(
        "runtime.queue_depth_p95",
        obs.iter().map(|s| s.queue_depth_p95).fold(0.0, f64::max),
    );
    t.set(
        "durable.snapshots",
        obs.iter().map(|s| s.durable_persists).sum::<u64>() as f64,
    );
    Ok(run)
}

/// Kernel rates at the workload's `rows x dim x dim` shapes.
fn tensor_micro(t: &mut Traced<'_>, rows: usize, dim: usize) {
    let (x, wgt, dz) = layer_operands(rows, dim);
    let flops = 2.0 * (rows * dim * dim) as f64;
    pool::with_threads(1, || {
        let ns = t.micro("tensor.matmul", || {
            drop(black_box(black_box(&x).matmul(&wgt)))
        });
        t.set("tensor.matmul_gflops", flops / ns);
        let ns = t.micro("tensor.matmul_t", || {
            drop(black_box(black_box(&dz).matmul_t(&wgt)))
        });
        t.set("tensor.matmul_t_gflops", flops / ns);
        let ns = t.micro("tensor.t_matmul", || {
            drop(black_box(black_box(&x).t_matmul(&dz)))
        });
        t.set("tensor.t_matmul_gflops", flops / ns);
        let ns = t.micro("tensor.matmul_batch", || {
            drop(black_box(Tensor::matmul_batch(&[
                (MmOp::Tn, &x, &dz),
                (MmOp::Nt, &dz, &wgt),
            ])));
        });
        t.set("tensor.batch_gflops", 2.0 * flops / ns);
    });
}

/// `DurableStore` driven directly on a cut of the workload's own shape.
fn durable_micro(
    t: &mut Traced<'_>,
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
) -> Result<(), String> {
    let stages = t.plan.workload.stages();
    let store = ParamStore::init(space, cfg.dim, cfg.seed);
    let partition = Partition::balanced(&vec![1.0; space.num_blocks()], stages);
    let cut = |watermark: u64| Checkpoint {
        watermark,
        stages: (0..stages)
            .map(|k| StageSnapshot {
                params: partition
                    .stage_range(StageId(k))
                    .map(|b| {
                        (0..space.block(b).num_choices())
                            .map(|c| store.layer(LayerRef::new(b as u32, c)).clone())
                            .collect()
                    })
                    .collect(),
                engine: cfg.engine(),
                losses: BTreeMap::new(),
            })
            .collect(),
        cut_span: SpanId::EXTERNAL,
    };
    let fingerprint = run_fingerprint(space, subnets, cfg, stages, CHECKPOINT_INTERVAL);
    let first = cut(CHECKPOINT_INTERVAL);
    let bytes = encode_snapshot(&first, fingerprint);
    t.set("durable.snapshot_bytes", bytes.len() as f64);
    let ns = t.micro("durable.encode", || {
        drop(black_box(encode_snapshot(&first, fingerprint)))
    });
    t.set("durable.encode_mb_per_s", mb_per_s(bytes.len(), ns / 1e9));
    let ns = t.micro("durable.decode", || {
        black_box(decode_snapshot(
            &bytes,
            Path::new("bench"),
            Some(fingerprint),
        ))
        .expect("own bytes decode");
    });
    t.set("durable.decode_mb_per_s", mb_per_s(bytes.len(), ns / 1e9));

    let dir = t
        .plan
        .scratch
        .join(format!("persist-{}", std::process::id()));
    let durable = DurableStore::open(&dir, 3, fingerprint).map_err(|e| e.to_string())?;
    let mut persists = Vec::new();
    for i in 1..=if t.plan.quick { 3 } else { 12 } {
        let ckpt = cut(CHECKPOINT_INTERVAL * i);
        let (done, secs) = t
            .spans
            .time("durable.persist", 1, || durable.persist(&ckpt));
        done.map_err(|e| e.to_string())?;
        persists.push(secs * 1e3);
    }
    t.set("durable.persist_ms", median(&persists));
    t.set("durable.persist_p90_ms", percentile(&persists, 0.9));
    let mut loads = Vec::new();
    for _ in 0..3 {
        let (loaded, secs) = t
            .spans
            .time("durable.load_latest", 1, || durable.load_latest());
        let loaded = loaded.map_err(|e| e.to_string())?;
        // Params carry the bits; the newest cut holds the same ones.
        let same = loaded
            .checkpoint
            .stages
            .iter()
            .map(|s| &s.params)
            .eq(first.stages.iter().map(|s| &s.params));
        t.check(1, same, "loaded snapshot differs from the persisted cut");
        loads.push(secs * 1e3);
    }
    t.set("durable.load_latest_ms", median(&loads));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// What consumes a run's spans: critical path and chrome export/parse.
fn span_consumers(t: &mut Traced<'_>, trace: &SpanTrace, meta: &RunMeta, runtime: bool) {
    let len = trace.len() as u64;
    t.set("obs.spans", len as f64);
    let (path, secs) = t
        .spans
        .time("obs.critical_path", len, || critical_path(trace));
    t.set("obs.critical_path_s", secs);
    if runtime && path.total_us > 0 {
        let total = path.total_us as f64;
        t.set("runtime.cp_compute_share", path.compute_us as f64 / total);
        t.set(
            "runtime.cp_causal_stall_share",
            path.causal_stall_us as f64 / total,
        );
        t.set("runtime.cp_bubble_share", path.bubble_us as f64 / total);
    }
    let head = SpanTrace::from_spans(trace.spans()[..trace.len().min(CHROME_SPANS)].to_vec());
    let len = head.len() as u64;
    let (text, secs) = t
        .spans
        .time("obs.chrome_export", len, || export_chrome(&head, meta));
    t.set("obs.chrome_export_mb_per_s", mb_per_s(text.len(), secs));
    let (parsed, secs) = t
        .spans
        .time("obs.chrome_parse", len, || parse_chrome(&text));
    t.set("obs.chrome_parse_mb_per_s", mb_per_s(text.len(), secs));
    let round_trip = parsed.is_ok_and(|(spans, _)| spans.len() == head.len());
    t.check(
        1,
        round_trip,
        "chrome export does not parse back to the same span count",
    );
}

/// The DES ladder on `subnets` plus everything that consumes a DES
/// outcome. `top` is the workload's own rung (`None` on a twin). Each
/// outcome is consumed and dropped before the next rung runs, so no rung
/// pays for another's live memory.
fn des_section(
    t: &mut Traced<'_>,
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
    top: Option<DesRung>,
    seq_hash: u64,
) -> Result<(), String> {
    let (plan, n, gpus) = (t.plan, subnets.len(), t.plan.workload.stages());
    let des_cfg = des_config(gpus, n, plan.seed, SyncPolicy::naspipe());
    let quarter = &subnets[..n.div_ceil(4)];
    let quarter_cfg = des_config(gpus, quarter.len(), plan.seed, SyncPolicy::naspipe());
    let mut untraced_s = 0.0;
    if let Some(top) = top {
        run_des(&mut Stopwatch, "", space, &quarter_cfg, quarter, top)?;
        untraced_s = t.untraced(|clock| run_des(clock, "", space, &des_cfg, subnets, top))?;
    }

    let (null, _) =
        t.rung(|spans| run_des(spans, "des.null", space, &des_cfg, subnets, DesRung::Null))?;
    let null_s = t.spans.fastest("des.null");
    let report = null.report.clone();
    let tasks = null.tasks.len() as f64;
    let (order, secs) = t
        .spans
        .time("repro.verify_csp_order", null.tasks.len() as u64, || {
            verify_csp_order(&null)
        });
    t.check(
        n,
        order.is_ok(),
        "CSP order violated in the simulated task stream",
    );
    if top.is_some() {
        t.set("repro.verify_csp_order_s", secs);
    }
    null_consumers(t, space, cfg, &null, seq_hash)?;
    drop(null);

    let (span, _) =
        t.rung(|spans| run_des(spans, "des.span", space, &des_cfg, subnets, DesRung::Span))?;
    let span_s = t.spans.fastest("des.span");
    let mut same = span.report == report;
    if top.is_some() {
        span_consumers(
            t,
            &span.spans,
            &RunMeta::new("des", gpus).seed(plan.seed),
            false,
        );
    }
    drop(span);
    let (hub, _) = t.rung(|spans| {
        run_des(
            spans,
            "des.span-hub",
            space,
            &des_cfg,
            subnets,
            DesRung::SpanHub,
        )
    })?;
    let hub_s = t.spans.fastest("des.span-hub");
    same &= hub.report == report;
    drop(hub);
    t.check(
        n,
        same,
        "simulated statistics differ between tracer configurations",
    );

    t.set("pipeline.tasks", tasks);
    t.set("pipeline.host_s_null", null_s);
    t.set("pipeline.host_s_traced", span_s);
    t.set("obs.des_trace_overhead_s", span_s - null_s);
    t.set("obs.des_hub_overhead_s", hub_s - span_s);
    let own = top.unwrap_or(DesRung::Null);
    let own_s = [null_s, span_s, hub_s][own as usize];
    t.set("pipeline.host_ns_per_task", own_s * 1e9 / tasks);
    if top.is_some() {
        let steps = [
            "pipeline.host_s_null",
            "obs.des_trace_overhead_s",
            "obs.des_hub_overhead_s",
        ];
        let wall = t
            .spans
            .fastest(["des.null", "des.span", "des.span-hub"][own as usize]);
        let ladder_ok = (t.sum(&steps[..=own as usize]) - wall).abs() < 1e-6;
        t.check(n, ladder_ok, "DES ladder does not sum to the traced wall");
        t.set("bench.trace_overhead_ratio", wall / untraced_s);
    }

    // Host cost per task at N over N/4: 1.0 means the engine is linear.
    let (small, _) =
        t.rung(|spans| run_des(spans, "des.quarter", space, &quarter_cfg, quarter, own))?;
    let small_s = t.spans.fastest("des.quarter");
    t.set(
        "pipeline.ns_per_task_growth",
        (own_s / tasks) / (small_s / small.tasks.len() as f64),
    );
    drop(small);

    let idle_total = f64::from(gpus) * report.makespan_secs;
    t.set(
        "pipeline.idle_blocked_share",
        report.stage_idle_blocked_secs.iter().sum::<f64>() / idle_total,
    );
    t.set(
        "pipeline.idle_empty_share",
        report.stage_idle_empty_secs.iter().sum::<f64>() / idle_total,
    );
    let sched = report.scheduler_stats;
    t.set("scheduler.calls", sched.calls as f64);
    t.set("scheduler.scanned", sched.scanned as f64);
    t.set("scheduler.hits", sched.hits as f64);
    t.set(
        "scheduler.scanned_per_hit",
        sched.scanned as f64 / sched.hits.max(1) as f64,
    );
    scheduler_micro(t, sched.calls, null_s);
    let cache = report.cache_stats;
    t.set("context.hits", cache.hits as f64);
    t.set("context.misses", cache.misses as f64);
    t.set("context.evictions", cache.evictions as f64);
    t.set("context.prefetches", cache.prefetches as f64);
    // The paper's design point is a 90 % hit rate.
    t.set("context.hit_err_vs_paper", cache.hit_rate() - 0.90);

    for (system, metric) in [
        (SystemKind::GPipe, "baselines.gpipe_host_ns_per_task"),
        (SystemKind::VPipe, "baselines.vpipe_host_ns_per_task"),
        (
            SystemKind::PipeDream,
            "baselines.pipedream_host_ns_per_task",
        ),
    ] {
        let input = subnets.to_vec();
        let (run, secs) = t.spans.time(&format!("baselines.{system}"), n as u64, || {
            system.run(space, gpus, input)
        });
        match run {
            Ok(run) => {
                t.set(metric, secs * 1e9 / run.tasks.len() as f64);
                if system == SystemKind::VPipe {
                    t.set(
                        "baselines.vpipe_sim_samples_per_s",
                        run.report.throughput_samples_per_sec(),
                    );
                }
            }
            // GPipe and PipeDream keep the whole supernet resident and
            // may not fit the simulated GPUs.
            Err(e) => t.out.note(format!("{system} did not run: {e}")),
        }
    }
    Ok(())
}

/// What consumes an untraced DES outcome: the transcript round trip and
/// the numeric replay of its schedule.
fn null_consumers(
    t: &mut Traced<'_>,
    space: &SearchSpace,
    cfg: &TrainConfig,
    null: &PipelineOutcome,
    seq_hash: u64,
) -> Result<(), String> {
    let (n, tasks) = (null.subnets.len(), null.tasks.len() as u64);
    let transcript = Transcript::from_outcome(null);
    let mut text = Vec::new();
    let (written, secs) = t
        .spans
        .time("transcript.write", tasks, || transcript.write(&mut text));
    written.map_err(|e| format!("transcript write: {e}"))?;
    t.set("transcript.write_mb_per_s", mb_per_s(text.len(), secs));
    let (read, secs) = t.spans.time("transcript.read", tasks, || {
        Transcript::read(&mut text.as_slice())
    });
    t.set("transcript.read_mb_per_s", mb_per_s(text.len(), secs));
    let round_trip = read.is_ok_and(|r| r.into_parts().1 == null.tasks);
    t.check(
        n,
        round_trip,
        "transcript does not read back to the same task stream",
    );

    let (replayed, secs) = t.spans.time("train.replay", n as u64, || {
        replay_training(space, null, cfg)
    });
    t.set("train.replay_subnets_per_s", n as f64 / secs);
    t.check(
        n,
        replayed.final_hash == seq_hash,
        "replayed CSP schedule differs from sequential_training",
    );
    Ok(())
}

/// The `benches/scheduler.rs` scenario: 30 queued NLP.c1 subnets over 8
/// stages, half of the earlier subnets unfinished.
fn scheduling_scenario() -> (Vec<SubnetId>, Vec<FinishedSet>, SubnetTable) {
    let space = SearchSpace::nlp_c1();
    let mut partitioner =
        Partitioner::new(ProfiledSpace::new(&space, 192), 8, PartitionMode::Mirrored);
    let mut table = SubnetTable::new();
    for subnet in stream(&space, 1, 60) {
        let partition = partitioner.partition_for(&subnet);
        table.insert(subnet, partition).expect("fresh sequence IDs");
    }
    let mut finished = vec![FinishedSet::new(); 8];
    for set in &mut finished {
        for i in 0..15u64 {
            set.insert(SubnetId(i * 2));
        }
    }
    ((30..60).map(SubnetId).collect(), finished, table)
}

/// Scheduler and predictor cost on the scenario. `est_share` scales it
/// by the run's call count over the run's host time; the scenario's
/// full queue is the dear case, so a share above 1 says most of the
/// run's calls were cheaper than it.
fn scheduler_micro(t: &mut Traced<'_>, calls: u64, host_s: f64) {
    let (queue, finished, table) = scheduling_scenario();
    let mut scheduler = CspScheduler::new();
    let ns = t.micro("scheduler.schedule", || {
        black_box(scheduler.schedule(black_box(&queue), &finished, &table, StageId(3)));
    });
    t.set("scheduler.schedule_ns_per_call", ns);
    t.set("scheduler.est_share", ns * calls as f64 / 1e9 / host_s);
    let mut predictor = Predictor::new();
    let ns = t.micro("predictor.before_backward", || {
        black_box(predictor.before_backward(
            &mut scheduler,
            &queue,
            &finished,
            &table,
            StageId(3),
            SubnetId(31),
            &[],
        ));
    });
    t.set("predictor.before_backward_ns", ns);
}

/// Microbenchmarks that do not depend on the workload.
fn common_micro(t: &mut Traced<'_>) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..1024u64 {
        queue.push(SimTime::from_us(i * 7919 % 4096), i);
    }
    let mut tick = 0u64;
    let ns = t.micro("sim.event", || {
        let (now, payload) = queue.pop().expect("queue stays full");
        tick = tick
            .wrapping_mul(6364136223846793005)
            .wrapping_add(payload | 1);
        queue.push(SimTime::from_us(now.as_us() + 1 + (tick >> 52)), payload);
    });
    t.set("sim.event_ns", ns);

    let space = SearchSpace::nlp_c1();
    let profile = ProfiledSpace::new(&space, 192);
    let sample = stream(&space, 2, 256);
    let costs = profile.subnet_block_costs(&sample[0]);
    let ns = t.micro("partition.balanced", || {
        drop(black_box(Partition::balanced(black_box(&costs), 8)))
    });
    t.set("partition.balanced_ns", ns);
    // A fresh partitioner per pass, so its cache never answers.
    let (_, secs) = t.spans.time("partition.mirrored", sample.len() as u64, || {
        let mut partitioner = Partitioner::new(profile.clone(), 8, PartitionMode::Mirrored);
        for subnet in &sample {
            black_box(partitioner.partition_for(subnet));
        }
    });
    t.set(
        "partition.mirrored_ns_per_subnet",
        secs * 1e9 / sample.len() as f64,
    );

    let mut cache = StageCache::new(600);
    let mut i = 0u32;
    let ns = t.micro("context.access", || {
        black_box(cache.access(LayerRef::new(i % 12, i / 12 % 2), 40));
        i = i.wrapping_add(1);
    });
    t.set("context.access_ns", ns);

    // Each sink driven directly through its public API, alternating the
    // two event shapes the runtimes emit.
    let mut n = 0u64;
    let mut recorder = MetricsRecorder::new();
    let ns = t.micro("obs.recorder", || {
        n += 1;
        recorder.incr((n % 4) as u32, Counter::ForwardTask, 1);
        recorder.sample((n % 4) as u32, Sample::ForwardLatencyUs, n % 997);
    });
    t.set("obs.recorder_ns_per_event", ns / 2.0);
    let mut tee = TeeRecorder::new(Some(Arc::new(TelemetryHub::new(4, 0))));
    let ns = t.micro("obs.tee", || {
        n += 1;
        tee.incr((n % 4) as u32, Counter::ForwardTask, 1);
        tee.sample((n % 4) as u32, Sample::ForwardLatencyUs, n % 997);
    });
    t.set("obs.tee_ns_per_event", ns / 2.0);
    let mut tracer = SpanTracer::new();
    let mut prev = SpanId::EXTERNAL;
    let ns = t.micro("obs.tracer", || {
        n += 1;
        let draft = SpanDraft::new((n % 4) as u32, SpanKind::Forward, n, n + 5)
            .subnet(n)
            .caused_by(prev, CauseKind::ActivationArrival);
        prev = tracer.emit(draft);
    });
    t.set("obs.tracer_ns_per_span", ns);
    let flight = FlightRecorder::new(4, 0);
    let ns = t.micro("obs.flight", || {
        n += 1;
        flight.record((n % 4) as u32, n, FlightEventKind::Admission, n);
    });
    t.set("obs.flight_ns_per_event", ns);
    let sink = t
        .plan
        .scratch
        .join(format!("journal-{}.jsonl", std::process::id()));
    if let Ok(journal) = Journal::new(0).with_sink(&sink) {
        let ns = t.micro("obs.journal", || {
            n += 1;
            journal.emit(
                JournalLevel::Info,
                "bench",
                Some((n % 4) as u32),
                n,
                "checkpoint cut",
                Vec::new(),
            );
        });
        t.set("obs.journal_ns_per_event", ns);
    }
    let _ = std::fs::remove_file(&sink);
}

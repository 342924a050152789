//! Regenerates the NASPipe paper's tables and figures.
//!
//! ```text
//! repro <experiment> [..]     where experiment is one of:
//!   fig1 table1 fig4 fig5 table2 table3 table4 table5 fig6 fig7
//!   cache soundness generation topology recompute obs trace bench all
//! ```
//!
//! The first row is the paper's figures and tables; the second explains
//! them further. With no arguments, prints usage. `all` runs everything,
//! the paper first, in order.
//! Build with `--release`; the training-semantics experiments replay real
//! floating-point training for dozens of pipeline schedules.

use naspipe_bench::experiments::{
    cache_sweep, compute, fig1, fig4, fig5, fig6, fig7, generation, obs, recompute, soundness,
    table1, table2, table3, table4, table5, topology, trace,
};
use naspipe_bench::{THROUGHPUT_SUBNETS, TRAINING_SUBNETS};
use naspipe_supernet::space::SpaceId;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "table1",
    "fig4",
    "fig5",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig6",
    "fig7",
    "cache",
    "soundness",
    "generation",
    "topology",
    "recompute",
    "obs",
    "trace",
    "bench",
];

/// Resolves an artifact env var: unset/empty/`"0"` = off, `"1"` = the
/// default path under the gitignored `artifacts/` directory, anything
/// else = an explicit path. Parent directories are created.
fn artifact_path(var: &str, default: &str) -> Option<String> {
    let v = std::env::var(var).ok()?;
    if v.is_empty() || v == "0" {
        return None;
    }
    let path = if v == "1" { default.to_string() } else { v };
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("artifact directory creatable");
        }
    }
    Some(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <{}|all> [..]", EXPERIMENTS.join("|"));
        std::process::exit(2);
    }
    let mut selected: Vec<&str> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => selected.extend_from_slice(EXPERIMENTS),
            name if EXPERIMENTS.contains(&name) => selected.push(name),
            other => {
                eprintln!("unknown experiment '{other}'; expected one of {EXPERIMENTS:?} or 'all'");
                std::process::exit(2);
            }
        }
    }
    for name in selected {
        let started = Instant::now();
        run_experiment(name);
        eprintln!("[{name} took {:.1}s]\n", started.elapsed().as_secs_f64());
    }
}

fn banner(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}\n");
}

fn run_experiment(name: &str) {
    match name {
        "fig1" => {
            banner(
                "Figure 1",
                "ASP vs BSP vs CSP pipelines on an ordered subnet list with causal dependencies (4 stages).",
            );
            println!("{}", fig1::run().render());
        }
        "table1" => {
            banner(
                "Table 1",
                "Default evaluation setup of the seven search spaces.",
            );
            println!("{}", table1::render(&table1::run()));
        }
        "fig4" => {
            banner(
                "Figure 4",
                "End-to-end training convergence (replayed numeric training, 8 GPUs): smoothed loss at checkpoints and searched-subnet score.",
            );
            println!("{}", fig4::render(&fig4::run(TRAINING_SUBNETS)));
        }
        "fig5" => {
            banner(
                "Figure 5",
                "Normalised training throughput on 8 GPUs (GPipe = 1.00; NLP.c0 normalised to VPipe).",
            );
            println!("{}", fig5::render(&fig5::run(8, THROUGHPUT_SUBNETS)));
        }
        "table2" => {
            banner(
                "Table 2",
                "Resource consumption and micro events, four systems x six spaces, 8 GPUs.",
            );
            println!("{}", table2::render(&table2::run(8, THROUGHPUT_SUBNETS)));
        }
        "table3" => {
            banner(
                "Table 3",
                "Reproducibility: converged supernet loss and search accuracy on 4/8/16 GPUs under CSP/BSP/ASP.",
            );
            println!("{}", table3::render(&table3::run(TRAINING_SUBNETS)));
        }
        "table4" => {
            banner(
                "Table 4",
                "Access & update order of the most-shared layer, 4 vs 8 GPUs (nF = read by n-th subnet's forward, nB = written by its backward).",
            );
            println!(
                "{}",
                table4::render(&table4::run(SpaceId::NlpC2, TRAINING_SUBNETS))
            );
        }
        "table5" => {
            banner(
                "Table 5",
                "Per-layer forward/backward compute vs CPU->GPU swap time (profiled cost catalog).",
            );
            println!("{}", table5::render(&table5::run()));
        }
        "fig6" => {
            banner(
                "Figure 6",
                "Component ablation: throughput normalised to full NASPipe (bubble ratio in parentheses), 8 GPUs.",
            );
            println!("{}", fig6::render(&fig6::run(8, THROUGHPUT_SUBNETS)));
        }
        "fig7" => {
            banner(
                "Figure 7",
                "Total GPU ALU utilisation with scaled GPU counts, NLP.c1 (batch fixed at the 8-GPU configuration).",
            );
            println!(
                "{}",
                fig7::render(&fig7::run(SpaceId::NlpC1, THROUGHPUT_SUBNETS))
            );
        }
        "cache" => {
            banner(
                "Extra: cache-size sweep",
                "Cache hit rate vs GPU cache capacity on NLP.c2 (paper design point: ~90% at ~3x one subnet's context).",
            );
            println!(
                "{}",
                cache_sweep::render(&cache_sweep::run(SpaceId::NlpC2, THROUGHPUT_SUBNETS))
            );
        }
        "generation" => {
            banner(
                "Extra: inter- vs intra-subnet task generation",
                "NASPipe's inter-subnet pipelining vs GPipe-style micro-batching of one subnet at a time (8 GPUs, NLP.c3), quantifying the paper's 2.2 argument.",
            );
            println!(
                "{}",
                generation::render(&generation::run(SpaceId::NlpC3, THROUGHPUT_SUBNETS / 2))
            );
        }
        "topology" => {
            banner(
                "Extra: interconnect sensitivity",
                "NASPipe on 8 GPUs packed 1/2/4/8 per host (7/3/1/0 Ethernet boundaries), CV.c1 — isolating the 5.4 communication effect (CV boundary tensors are ~50 MiB).",
            );
            println!(
                "{}",
                topology::render(&topology::run(SpaceId::CvC1, THROUGHPUT_SUBNETS))
            );
        }
        "recompute" => {
            banner(
                "Extra: recompute-ahead ablation",
                "CSP with hoisted activation recomputation (DESIGN.md 3a.2) vs standard in-backward rematerialisation, NLP spaces, 8 GPUs.",
            );
            println!("{}", recompute::render(&recompute::run(THROUGHPUT_SUBNETS)));
        }
        "soundness" => {
            banner(
                "Extra: cross-stage soundness refinement",
                "Stale reads a purely stage-local Algorithm 2 would admit under layer mirroring, prevented by the owner-stage check (DESIGN.md 3a.1).",
            );
            println!(
                "{}",
                soundness::render(&soundness::run(SpaceId::NlpC2, THROUGHPUT_SUBNETS))
            );
        }
        "obs" => {
            banner(
                "Extra: per-stage runtime observability",
                "The naspipe-obs report for a CSP run on NLP.c2, 8 GPUs: per-stage utilization, stall/bubble split, preemptions, queue depths, task latencies and cache behaviour. Set REPRO_OBS_JSON=1 to also dump JSON.",
            );
            let r = obs::run(SpaceId::NlpC2, 8, THROUGHPUT_SUBNETS);
            println!("{}", obs::render(&r));
            let json_on = std::env::var("REPRO_OBS_JSON").is_ok_and(|v| !v.is_empty() && v != "0");
            if json_on {
                println!("{}", obs::render_json(&r));
            }
        }
        "trace" => {
            banner(
                "Extra: causal span tracing and critical-path attribution",
                "Both engines (DES pipeline and threaded supervised runtime) traced on NLP.c2, 4 stages: per-task spans with causal edges, exported as Perfetto-loadable Chrome JSON, plus the critical path through the span graph attributed to compute / fetch / causal-stall / bubble. Set REPRO_TRACE_JSON=<dir> to write des.trace.json and threaded.trace.json (the inputs of `naspipe doctor --base/--cand`).",
            );
            let traces = trace::run(SpaceId::NlpC2, 4, 24);
            println!("{}", trace::render(&traces));
            if let Some(dir) = artifact_path("REPRO_TRACE_JSON", "artifacts/trace") {
                let paths = trace::write_artifacts(&traces, &dir).expect("trace artifacts written");
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
        }
        "bench" => {
            banner(
                "Extra: compute-backend benchmark matrix",
                "The deterministic packed kernels vs the naive reference matmul (GFLOP/s per shape), transposed multiplies vs explicit transposition, the batched small-matmul path, numeric replay throughput and threaded-runtime makespan — each at pool sizes {1, 4, 8}, with bitwise-equality and cross-pool-size invariance verdicts asserted. Set BENCH_COMPUTE_JSON=<path> to write the machine-readable artifact (BENCH_compute.json, schema 2).",
            );
            let r = compute::run_matrix(24, compute::DEFAULT_THREAD_COUNTS);
            println!("{}", compute::render(&r));
            if let Some(path) = artifact_path("BENCH_COMPUTE_JSON", "artifacts/BENCH_compute.json")
            {
                std::fs::write(&path, compute::render_json(&r))
                    .expect("compute bench artifact written");
                println!("wrote {path}");
            }
            assert!(
                r.all_ok(),
                "compute verdicts failed: every kernel must match the naive \
                 reference bitwise and every output and end-to-end hash must \
                 be invariant across pool sizes {{1, 4, 8}}"
            );
        }
        _ => unreachable!("validated in main"),
    }
}

//! Regenerates the NASPipe paper's tables and figures.
//!
//! ```text
//! repro <experiment> [..]     where experiment is one of:
//!   fig1 table1 fig4 fig5 table2 table3 table4 table5 fig6 fig7 all
//! ```
//!
//! With no arguments, prints usage. `all` runs everything in paper order.
//! Build with `--release`; the training-semantics experiments replay real
//! floating-point training for dozens of pipeline schedules.

use naspipe_bench::experiments::{
    cache_sweep, compute, crash, doctor, faults, fig1, fig4, fig5, fig6, fig7, generation, obs,
    ops_plane, recompute, replay, soundness, table1, table2, table3, table4, table5, telemetry,
    topology, trace,
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
    "faults",
    "crash",
    "trace",
    "bench",
    "telemetry",
    "ops",
    "replay",
    "doctor",
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
        "faults" => {
            banner(
                "Extra: supervised fault tolerance",
                "A seeded failure scenario (one fatal stage panic plus transient channel faults) injected into the threaded CSP runtime on NLP.c2, 4 stages: the supervisor retries, restarts from the CSP-watermark checkpoint, and the recovered run is bitwise equal to sequential training with a reproducible recovery schedule. Set REPRO_FAULTS_JSON=1 to also dump JSON.",
            );
            let r = faults::run(SpaceId::NlpC2, 4, 48, 7, 8);
            println!("{}", faults::render(&r));
            let json_on =
                std::env::var("REPRO_FAULTS_JSON").is_ok_and(|v| !v.is_empty() && v != "0");
            if json_on {
                println!("{}", faults::render_json(&r));
            }
            assert!(
                r.bitwise_equal && r.csp_ok && r.schedule_reproducible,
                "fault-tolerance verdicts failed"
            );
        }
        "crash" => {
            banner(
                "Extra: crash-injection and durable resume",
                "A seed x stages x crash-point matrix of real process deaths: each cell trains NLP.c2 in a child naspipe process with durable checkpointing, aborts it either at a specific forward task or in the middle of a snapshot write (the third one under keep 2 overwrites a recycled file), then resumes a fresh process from disk — demanding a final parameter hash and loss digest bitwise equal to an uninterrupted baseline. Set REPRO_CRASH_JSON=1 to also dump JSON. Requires the naspipe binary in the same target directory (or NASPIPE_BIN).",
            );
            let r = crash::run(SpaceId::NlpC2, 32, 8, &[5, 13, 21], &[3]);
            println!("{}", crash::render(&r));
            let json_on =
                std::env::var("REPRO_CRASH_JSON").is_ok_and(|v| !v.is_empty() && v != "0");
            if json_on {
                println!("{}", crash::render_json(&r));
            }
            assert!(
                r.all_ok(),
                "crash-matrix verdicts failed: every cell must crash, resume \
                 from disk, and finish bitwise equal to its uninterrupted \
                 baseline (failed cells keep their snapshot directories under \
                 the system temp dir for inspection)"
            );
        }
        "trace" => {
            banner(
                "Extra: causal span tracing and critical-path attribution",
                "Both engines (DES pipeline and threaded supervised runtime) traced on NLP.c2, 4 stages: per-task spans with causal edges, exported as Perfetto-loadable Chrome JSON, plus the critical path through the span graph attributed to compute / fetch / causal-stall / bubble. Set REPRO_TRACE_JSON=<dir> to write the .trace.json artifacts.",
            );
            let r = trace::run(SpaceId::NlpC2, 4, 24);
            println!("{}", trace::render(&r));
            if let Some(dir) = artifact_path("REPRO_TRACE_JSON", "artifacts/trace") {
                let paths = trace::write_artifacts(&r, &dir).expect("trace artifacts written");
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            assert!(
                r.all_ok(),
                "trace verdicts failed: critical path must equal the makespan,                  the chrome export must round-trip, and DES path idle must stay                  within the recorder's stall+bubble counters"
            );
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
        "telemetry" => {
            banner(
                "Extra: live telemetry",
                "The threaded CSP runtime on NLP.c2, 4 stages, with a TelemetryHub attached and a Prometheus endpoint on an ephemeral port — scraped by the experiment itself mid-run. Hard verdicts: every scrape is well-formed 0.0.4 text, counters never move backwards between scrapes, and the final snapshot equals the observability report.",
            );
            let r = telemetry::run(SpaceId::NlpC2, 4, 32);
            println!("{}", telemetry::render(&r));
            assert!(
                r.all_ok(),
                "telemetry verdicts failed: the live endpoint and the \
                 post-mortem report must tell one consistent story"
            );
        }
        "ops" => {
            banner(
                "Extra: ops plane",
                "The threaded CSP runtime on NLP.c2, 4 stages, run twice: bare, then with the full ops plane attached — structured journal sinking to a JSONL file and a multi-route HTTP server (/metrics /healthz /readyz /status /flight /events) scraped concurrently by the experiment mid-run. Hard verdicts: results are bitwise identical to the bare run, every route answers schema-valid content on every sweep, /events replays exactly the journal lines the sink wrote, and /readyz flips to 503 once a stage-stall watchdog verdict latches.",
            );
            let r = ops_plane::run(SpaceId::NlpC2, 4, 32);
            println!("{}", ops_plane::render(&r));
            assert!(
                r.all_ok(),
                "ops-plane verdicts failed: full observability must be \
                 bitwise zero-effect with every route live and the journal \
                 single-sourced"
            );
        }
        "replay" => {
            banner(
                "Extra: golden-trace replay gate",
                "The behavioral twin of bench-check: every committed golden trace (CSP DES runs, threaded fault-recovery runs, a multi-engine agreement case) re-executed against the current scheduler and validated — CSP admission order, checkpoint-cut consistency, transcript bitwise equality, critical-path attribution — plus a deliberate-divergence smoke test that must name the first divergent task.",
            );
            let r = replay::run(std::path::Path::new(
                naspipe_core::replay_gate::DEFAULT_CORPUS_DIR,
            ));
            println!("{}", replay::render(&r));
            assert!(
                r.all_ok(),
                "replay-gate verdicts failed: the strict gate must pass on the \
                 corpus and the smoke mutation must be caught naming the first \
                 divergent task"
            );
        }
        "doctor" => {
            banner(
                "Extra: automated regression diagnosis",
                "Two regressions planted into the deterministic DES engine (an all-stage compute throttle and a single slow stage) and diagnosed against the same clean baseline by the `naspipe doctor` critical-path differ. Hard verdicts: the throttle is attributed to compute with the kernel verdict, the slow stage ranks as the top straggler with its exported causal-stall time growing, and per-class deltas sum exactly to each makespan delta. Set REPRO_DOCTOR_JSON=<path> (or =1 for artifacts/REPRO_doctor.json) to write the machine-readable artifact.",
            );
            let r = doctor::run(SpaceId::NlpC2, 4, 24);
            println!("{}", doctor::render(&r));
            if let Some(path) = artifact_path("REPRO_DOCTOR_JSON", "artifacts/REPRO_doctor.json") {
                std::fs::write(&path, doctor::render_json(&r)).expect("doctor artifact written");
                println!("wrote {path}");
            }
            assert!(
                r.all_ok(),
                "doctor verdicts failed: every planted regression must be \
                 diagnosed to its cause with attribution summing to the \
                 makespan delta"
            );
        }
        _ => unreachable!("validated in main"),
    }
}

//! The `naspipe` command-line tool: train, replay, and search supernets
//! from the shell.
//!
//! ```text
//! naspipe spaces
//! naspipe train  --space NLP.c2 --gpus 8 --subnets 120 [--system gpipe]
//!                [--seed 7] [--batch 64] [--threads 4] [--transcript run.nt]
//!                [--engine des|threaded] [--metrics-addr 127.0.0.1:9464]
//!                [--journal run.journal.jsonl] [--sample-interval-ms 200]
//!                [--checkpoint-dir DIR] [--checkpoint-keep 3]
//!                [--checkpoint-interval 8] [--resume] [--kill-at 1:13]
//! naspipe replay --space NLP.c2 --transcript run.nt [--seed 7]
//! naspipe search --space CV.c2 --gpus 8 --subnets 120 --rounds 96 [--seed 7]
//!                [--metrics-addr 127.0.0.1:9464]
//! naspipe top    --addr 127.0.0.1:9464 [--interval-ms 1000]
//!                [--iterations 0] [--once]
//! naspipe bench-check [--baseline BENCH_compute.json] [--threshold-pct 15]
//!                [--e2e-threshold-pct 35] [--gate kernels|all] [--explain]
//! naspipe replay-check [--corpus traces/golden] [--mode strict|lenient]
//!                [--case SUBSTR] [--bless] [--explain]
//! naspipe doctor --base base_trace.json --cand cand_trace.json [--top 5]
//!                [--base-bench A.json --cand-bench B.json]
//!                [--base-flight A.flight.json] [--cand-flight B.flight.json]
//!                [--journal run.journal.jsonl]
//!                [--threshold-pct 15] [--json]
//! ```
//!
//! With `--metrics-addr`, the run serves the full ops plane while
//! training: `GET /metrics` (Prometheus 0.0.4 text), `/healthz` +
//! `/readyz` (liveness vs. admitting-work), `/status` (versioned JSON
//! status document), `/flight` (on-demand flight-recorder dump), and
//! `/events` (the structured journal as JSONL). `--journal
//! PATH` tees the same journal to a JSONL file; `naspipe top` renders a
//! live per-stage terminal view by scraping `/status` + `/metrics`.
//!
//! `replay-check` is the behavioral twin of `bench-check`: it re-executes
//! the committed golden traces against the current scheduler and fails
//! (strict mode) on any divergence, naming the first divergent task.
//!
//! `doctor` diagnoses a regression between two runs from their artifacts:
//! chrome traces (see `REPRO_TRACE_JSON` / `repro trace`) are required and
//! yield the ranked critical-path attribution; bench and flight artifacts
//! are folded in when given. `--explain` on a failing gate runs the same
//! analysis inline. `train --flight-dump PATH` writes the always-on
//! flight recorder's ring to PATH at end of run (and on faults/watchdog
//! trips) for `doctor` to ingest.

use naspipe::baselines::SystemKind;
use naspipe::core::config::DiagnosticsOptions;
use naspipe::core::fault::FaultPlan;
use naspipe::core::pipeline::SimSpec;
use naspipe::core::replay_gate::loss_digest;
use naspipe::core::runtime::{DurableOptions, RecoveryOptions, RunSpec};
use naspipe::core::task::TaskKind;
use naspipe::core::train::{replay_training, search_best_subnet, TrainConfig};
use naspipe::core::transcript::{replay_transcript, Transcript};
use naspipe::obs::{
    http_get, parse_json, render_top, Journal, OpsServer, OpsState, RunMeta, TelemetryHub,
    TelemetryOptions,
};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed `--key value` options and bare `--flag`s plus the subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: BTreeSet<String>,
}

/// Every subcommand with its value-taking options and bare flags. The
/// parser validates against this table so a typo like `--thread 4` is an
/// error with a suggestion instead of a silent no-op.
const COMMANDS: &[(&str, &[&str], &[&str])] = &[
    ("spaces", &[], &[]),
    (
        "train",
        &[
            "space",
            "gpus",
            "subnets",
            "seed",
            "batch",
            "threads",
            "system",
            "transcript",
            "engine",
            "metrics-addr",
            "sample-interval-ms",
            "checkpoint-dir",
            "checkpoint-keep",
            "checkpoint-interval",
            "kill-at",
            "flight-dump",
            "journal",
        ],
        &["resume"],
    ),
    ("replay", &["space", "transcript", "seed", "threads"], &[]),
    ("top", &["addr", "interval-ms", "iterations"], &["once"]),
    (
        "search",
        &[
            "space",
            "gpus",
            "subnets",
            "seed",
            "rounds",
            "threads",
            "metrics-addr",
            "sample-interval-ms",
        ],
        &[],
    ),
    (
        "bench-check",
        &[
            "baseline",
            "threshold-pct",
            "e2e-threshold-pct",
            "gate",
            "subnets",
        ],
        &["explain"],
    ),
    (
        "replay-check",
        &["corpus", "mode", "case"],
        &["bless", "explain"],
    ),
    (
        "doctor",
        &[
            "base",
            "cand",
            "top",
            "base-bench",
            "cand-bench",
            "base-flight",
            "cand-flight",
            "journal",
            "threshold-pct",
        ],
        &["json"],
    ),
];

/// Edit distance for the did-you-mean suggestion on unknown options.
fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

fn suggest<'a>(unknown: &str, known: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    known
        .map(|k| (levenshtein(unknown, k), k))
        .filter(|&(d, _)| d <= 3)
        .min()
        .map(|(_, k)| k)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing subcommand")?;
    let (_, value_opts, flag_opts) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == command)
        .ok_or_else(|| {
            let hint = suggest(&command, COMMANDS.iter().map(|(n, _, _)| *n))
                .map(|s| format!(" (did you mean '{s}'?)"))
                .unwrap_or_default();
            format!("unknown subcommand '{command}'{hint}")
        })?;
    let mut options = BTreeMap::new();
    let mut flags = BTreeSet::new();
    let mut i = 1;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{}'", argv[i]))?;
        if flag_opts.contains(&key) {
            flags.insert(key.to_string());
            i += 1;
            continue;
        }
        if !value_opts.contains(&key) {
            let hint = suggest(key, value_opts.iter().chain(flag_opts.iter()).copied())
                .map(|s| format!(" (did you mean --{s}?)"))
                .unwrap_or_default();
            return Err(format!("unknown option --{key} for '{command}'{hint}"));
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        options.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(Args {
        command,
        options,
        flags,
    })
}

impl Args {
    fn space(&self) -> Result<SearchSpace, String> {
        let name = self.options.get("space").ok_or("--space is required")?;
        SpaceId::ALL
            .into_iter()
            .find(|id| id.to_string() == *name)
            .map(SearchSpace::from_id)
            .ok_or_else(|| format!("unknown space '{name}' (try `naspipe spaces`)"))
    }

    fn u64_opt(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer")),
        }
    }

    /// Like [`u64_opt`](Self::u64_opt), for a value that must fit a `u32`.
    fn u32_opt(&self, key: &str, default: u32) -> Result<u32, String> {
        u32::try_from(self.u64_opt(key, default.into())?)
            .map_err(|_| format!("--{key} wants an integer up to {}", u32::MAX))
    }

    fn system(&self) -> Result<SystemKind, String> {
        match self.options.get("system").map(String::as_str) {
            None | Some("naspipe") => Ok(SystemKind::NasPipe),
            Some("gpipe") => Ok(SystemKind::GPipe),
            Some("pipedream") => Ok(SystemKind::PipeDream),
            Some("vpipe") => Ok(SystemKind::VPipe),
            Some(other) => Err(format!(
                "unknown system '{other}' (naspipe|gpipe|pipedream|vpipe)"
            )),
        }
    }

    fn engine(&self) -> Result<Engine, String> {
        match self.options.get("engine").map(String::as_str) {
            None | Some("des") => Ok(Engine::Des),
            Some("threaded") => Ok(Engine::Threaded),
            Some(other) => Err(format!("unknown engine '{other}' (des|threaded)")),
        }
    }

    /// `--sample-interval-ms` as microseconds (0 = telemetry default).
    fn sample_interval_us(&self) -> Result<u64, String> {
        self.u64_opt("sample-interval-ms", 0)?
            .checked_mul(1000)
            .ok_or_else(|| {
                format!(
                    "--sample-interval-ms wants an integer up to {}",
                    u64::MAX / 1000
                )
            })
    }

    /// `--kill-at STAGE:SUBNET`: abort the whole process when that stage
    /// starts that subnet's forward (crash-injection for durable-resume
    /// testing). A point the run of `gpus` stages over `subnets` subnets
    /// never reaches is an error, not a clean run.
    fn kill_at(&self, gpus: u32, subnets: u64) -> Result<Option<(u32, u64)>, String> {
        let Some(v) = self.options.get("kill-at") else {
            return Ok(None);
        };
        let (stage, subnet) = v
            .split_once(':')
            .and_then(|(s, y)| Some((s.parse::<u32>().ok()?, y.parse::<u64>().ok()?)))
            .ok_or_else(|| format!("--kill-at wants STAGE:SUBNET, got '{v}'"))?;
        if stage >= gpus || subnet >= subnets {
            return Err(format!(
                "--kill-at {v} never fires: stages are 0..{gpus} and subnets 0..{subnets}"
            ));
        }
        Ok(Some((stage, subnet)))
    }

    /// Durable-checkpoint options when `--checkpoint-dir` is given.
    fn durable(&self) -> Result<Option<DurableOptions>, String> {
        let resume = self.flags.contains("resume");
        let Some(dir) = self.options.get("checkpoint-dir") else {
            if resume || self.options.contains_key("checkpoint-keep") {
                return Err("--resume/--checkpoint-keep need --checkpoint-dir".into());
            }
            return Ok(None);
        };
        let mut durable = DurableOptions::new(dir);
        durable.keep = self.u64_opt("checkpoint-keep", durable.keep as u64)? as usize;
        durable.resume = resume;
        Ok(Some(durable))
    }

    /// When `--metrics-addr` and/or `--journal` is given: the live ops
    /// plane — a telemetry hub, the shared run state behind `/status` /
    /// `/readyz`, a mirrored (and optionally file-sinked) structured
    /// journal, and, with `--metrics-addr`, the bound multi-route HTTP
    /// server (port 0 resolves to an ephemeral port, printed once so it
    /// can be curled).
    fn ops_plane(&self, engine: &str, gpus: u32, seed: u64) -> Result<Option<OpsPlane>, String> {
        let interval_us = self.sample_interval_us()?;
        let addr = self.options.get("metrics-addr");
        let journal_path = self.options.get("journal");
        if addr.is_none() && journal_path.is_none() {
            return Ok(None);
        }
        let hub = Arc::new(TelemetryHub::new(gpus as usize, 0));
        let meta = RunMeta::new(engine, gpus).seed(seed);
        let mut journal = Journal::new(0).with_mirror();
        if let Some(path) = journal_path {
            journal = journal
                .with_sink(std::path::Path::new(path))
                .map_err(|e| format!("cannot write journal to {path}: {e}"))?;
        }
        let state = Arc::new(OpsState::new(meta, Arc::clone(&hub), Arc::new(journal)));
        let server = match addr {
            Some(addr) => Some(
                OpsServer::bind(addr, Arc::clone(&state))
                    .map_err(|e| format!("cannot serve ops plane on {addr}: {e}"))?,
            ),
            None => None,
        };
        // The progress line stays tied to live scraping: journal-only
        // runs keep their stderr exactly as before.
        let topts = TelemetryOptions::new(hub)
            .with_interval_us(interval_us)
            .with_progress(addr.is_some());
        Ok(Some(OpsPlane {
            topts,
            state,
            server,
        }))
    }
}

/// Everything `--metrics-addr` / `--journal` stand up for one run. The
/// server (when bound) serves until this is dropped at end of run.
struct OpsPlane {
    topts: TelemetryOptions,
    state: Arc<OpsState>,
    server: Option<OpsServer>,
}

/// Which training engine `naspipe train` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Discrete-event simulation plus numeric replay (the default).
    Des,
    /// The supervised threaded runtime (real threads, one per stage).
    Threaded,
}

fn train_config(seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        seed,
        residual_scale: 0.15,
        ..TrainConfig::default()
    }
    .with_threads(threads)
}

fn cmd_spaces() {
    println!("space    blocks  choices  dataset   supernet params");
    for id in SpaceId::ALL {
        let space = SearchSpace::from_id(id);
        let (blocks, choices) = id.shape();
        println!(
            "{:<8} {:<7} {:<8} {:<9} {:.1}B",
            id.to_string(),
            blocks,
            choices,
            id.dataset(),
            space.supernet_param_bytes() as f64 / 4e9,
        );
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let space = args.space()?;
    let gpus = args.u32_opt("gpus", 8)?;
    let n = args.u64_opt("subnets", 64)?;
    let seed = args.u64_opt("seed", 0)?;
    let batch = args.u32_opt("batch", 0)?;
    let threads = args.u64_opt("threads", 0)? as usize;
    let system = args.system()?;
    let engine = args.engine()?;
    let kill_at = args.kill_at(gpus, n)?;

    let subnets = UniformSampler::new(&space, seed).take_subnets(n as usize);
    if engine == Engine::Threaded {
        if system != SystemKind::NasPipe {
            return Err("--engine threaded only trains the naspipe system (CSP)".into());
        }
        return train_threaded(args, &space, subnets, gpus, seed, threads, kill_at);
    }
    if args.options.contains_key("checkpoint-dir")
        || args.options.contains_key("kill-at")
        || args.flags.contains("resume")
    {
        return Err("--checkpoint-dir/--resume/--kill-at need --engine threaded".into());
    }
    let mut cfg = system.config(gpus, n).with_seed(seed);
    cfg.batch = batch;
    cfg.diagnostics.flight_dump = args.options.get("flight-dump").cloned();
    let mut ops = args.ops_plane("des", gpus, seed)?;
    if let Some(o) = &ops {
        cfg.diagnostics.ops = Some(Arc::clone(&o.state));
    }
    let outcome = SimSpec {
        subnets: Some(subnets),
        telemetry: ops.as_ref().map(|o| &o.topts),
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .map_err(|e| e.to_string())?;
    let r = &outcome.report;
    println!(
        "{system} on {} x {gpus} GPUs: {} subnets, batch {}",
        args.options["space"], r.subnets_completed, r.batch
    );
    println!(
        "  throughput {:.0} samples/s ({:.0} subnets/h), bubble {:.2}, ALU {:.2}x",
        r.throughput_samples_per_sec(),
        r.subnets_per_hour(),
        r.bubble_ratio,
        r.total_alu,
    );
    if let Some(hit) = r.cache_hit_rate {
        println!(
            "  cache hit {:.1}%, CPU memory {:.1} GiB",
            hit * 100.0,
            r.cpu_mem_gib
        );
    }

    let trained = replay_training(&space, &outcome, &train_config(seed, threads));
    println!(
        "  trained: converged loss {:.4}, parameter hash {:016x}",
        trained.converged_loss(),
        trained.final_hash,
    );

    write_transcript(args, &Transcript::from_outcome(&outcome))?;
    if let Some(o) = ops.as_mut() {
        if let Some(s) = o.server.as_mut() {
            s.shutdown();
        }
    }
    Ok(())
}

/// Writes `t` to the `--transcript` path, if one is given.
fn write_transcript(args: &Args, t: &Transcript) -> Result<(), String> {
    if let Some(path) = args.options.get("transcript") {
        let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        t.write(&mut file).map_err(|e| e.to_string())?;
        println!("  transcript written to {path}");
    }
    Ok(())
}

/// `naspipe train --engine threaded`: real stage threads under the
/// supervisor, with live telemetry when `--metrics-addr` is given. A
/// failed run writes its record up to the failure as the transcript.
fn train_threaded(
    args: &Args,
    space: &SearchSpace,
    subnets: Vec<naspipe::supernet::subnet::Subnet>,
    gpus: u32,
    seed: u64,
    threads: usize,
    kill_at: Option<(u32, u64)>,
) -> Result<(), String> {
    let n = subnets.len();
    let mut ops = args.ops_plane("threaded", gpus, seed)?;
    let durable = args.durable()?;
    // Durable persistence needs cuts to persist: default the interval on
    // when a checkpoint directory is given.
    let default_interval = if durable.is_some() { 8 } else { 0 };
    let mut opts = RecoveryOptions {
        checkpoint_interval: args.u64_opt("checkpoint-interval", default_interval)?,
        ..RecoveryOptions::default()
    };
    if durable.is_some() && opts.checkpoint_interval == 0 {
        return Err("--checkpoint-dir needs --checkpoint-interval > 0".into());
    }
    if let Some((stage, subnet)) = kill_at {
        opts.fault_plan = FaultPlan::new().kill_on(stage, subnet, TaskKind::Forward);
    }
    let diag = DiagnosticsOptions {
        flight_dump: args.options.get("flight-dump").cloned(),
        ops: ops.as_ref().map(|o| Arc::clone(&o.state)),
        ..DiagnosticsOptions::default()
    };
    let run = RunSpec {
        recovery: opts,
        telemetry: ops.as_ref().map(|o| o.topts.clone()),
        durable,
        diagnostics: diag,
        ..RunSpec::new(space, subnets, train_config(seed, threads), gpus)
    }
    .run();
    let run = match run {
        Ok(run) => run,
        Err(failed) => {
            write_transcript(args, &failed.transcript)?;
            return Err(failed.to_string());
        }
    };
    println!(
        "threaded CSP on {} x {gpus} stages: {n} subnets trained",
        args.options["space"],
    );
    println!(
        "  converged loss {:.4}, parameter hash {:016x}",
        run.result.converged_loss(),
        run.result.final_hash,
    );
    println!(
        "  wall {:.2}s, {} restart(s), {} telemetry sample(s) kept",
        run.report.wall_us as f64 / 1e6,
        run.recovery.restarts,
        run.report.series.len(),
    );
    // Machine-readable line for the crash-recovery harness: two runs
    // trained the same iff these digests match bitwise.
    println!(
        "RESULT hash={:016x} loss_digest={:016x} losses={}",
        run.result.final_hash,
        loss_digest(&run.result.losses),
        run.result.losses.len(),
    );
    write_transcript(args, &Transcript::from(&run))?;
    if let Some(o) = ops.as_mut() {
        if let Some(s) = o.server.as_mut() {
            s.shutdown();
        }
    }
    Ok(())
}

/// `naspipe bench-check`: re-measures the compute backend and fails on
/// throughput regressions beyond the threshold against the tracked
/// `BENCH_compute.json` baseline.
fn cmd_bench_check(args: &Args) -> Result<(), String> {
    use naspipe_bench::experiments::compute;

    let path = args
        .options
        .get("baseline")
        .cloned()
        .unwrap_or_else(|| "BENCH_compute.json".to_string());
    let threshold = args.u64_opt("threshold-pct", 15)? as f64 / 100.0;
    let e2e_threshold = args.u64_opt("e2e-threshold-pct", 35)? as f64 / 100.0;
    let gate = match args.options.get("gate").map(String::as_str) {
        None | Some("all") => "all",
        Some("kernels") => "kernels",
        Some(other) => return Err(format!("unknown gate '{other}' (kernels|all)")),
    };
    let subnets = args.u64_opt("subnets", 24)?;
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {path}: {e} (run `repro bench` with BENCH_COMPUTE_JSON={path} to record one)"))?;

    eprintln!(
        "measuring compute backend at pool sizes {:?} ({subnets} replay subnets)...",
        compute::DEFAULT_THREAD_COUNTS
    );
    let fresh = compute::run_matrix(subnets, compute::DEFAULT_THREAD_COUNTS);
    if !fresh.all_ok() {
        return Err(
            "compute verdicts failed: kernels not bitwise equal or outputs/hashes not \
             invariant across pool sizes"
                .into(),
        );
    }
    let check = compute::check_against(&baseline, &fresh, threshold, e2e_threshold)?;
    println!("regression check against {path}:");
    print!("{}", compute::render_check(&check));
    let passed = match gate {
        "kernels" => check.kernels_ok(),
        _ => check.ok(),
    };
    if passed {
        if !check.ok() {
            eprintln!(
                "note: {} end-to-end metric(s) regressed but --gate kernels only \
                 fails on kernel families",
                check.regressions().len()
            );
        }
        Ok(())
    } else {
        if args.flags.contains("explain") {
            let rows: Vec<_> = check.rows.iter().map(|r| r.delta.clone()).collect();
            print!("{}", naspipe::obs::explain_bench_check(&rows));
        }
        Err(format!(
            "bench-check failed (gate {gate}): {} metric(s) regressed past the tolerance \
             band ({:.0}% kernels, {:.0}% end-to-end) against the baseline",
            check.regressions().len(),
            threshold * 100.0,
            e2e_threshold * 100.0
        ))
    }
}

/// `naspipe replay-check`: the golden-trace behavioral gate. Re-executes
/// every committed golden trace against the current scheduler; strict
/// mode fails on any divergence (the CI gate), lenient mode prints the
/// same report but always exits zero (audit). `--bless` regenerates the
/// corpus after an intentional schedule change.
fn cmd_replay_check(args: &Args) -> Result<(), String> {
    use naspipe::core::replay_gate::{self, GateMode};

    let corpus = args
        .options
        .get("corpus")
        .cloned()
        .unwrap_or_else(|| replay_gate::DEFAULT_CORPUS_DIR.to_string());
    let dir = std::path::Path::new(&corpus);
    let filter = args.options.get("case").map(String::as_str);

    if args.flags.contains("bless") {
        eprintln!("blessing golden traces under {corpus}...");
        let written = replay_gate::bless(dir, filter)?;
        for path in &written {
            println!("blessed {path}");
        }
        println!("replay-check: {} golden trace(s) recorded", written.len());
        return Ok(());
    }

    let mode = match args.options.get("mode").map(String::as_str) {
        None | Some("strict") => GateMode::Strict,
        Some("lenient") => GateMode::Lenient,
        Some(other) => return Err(format!("unknown mode '{other}' (strict|lenient)")),
    };
    eprintln!("replaying golden traces under {corpus}...");
    let report = replay_gate::run_gate(dir, filter)?;
    print!("{}", report.render_text());
    if report.ok() || mode == GateMode::Lenient {
        Ok(())
    } else {
        if args.flags.contains("explain") {
            print!("{}", report.explain());
        }
        Err(format!(
            "replay-check failed: {} divergence(s) from the golden corpus \
             (run with --mode lenient to audit, or --bless after an intentional change)",
            report.divergences()
        ))
    }
}

/// `naspipe doctor`: offline regression diagnosis from two runs'
/// artifacts. The chrome traces are required (write them with
/// `REPRO_TRACE_JSON=1 repro trace` or any span-trace export); bench
/// and flight-recorder artifacts are folded into the report when given.
/// The command is read-only and always exits zero on a successful
/// diagnosis — the verdict is the output, not the exit code.
fn cmd_doctor(args: &Args) -> Result<(), String> {
    use naspipe::obs::{bench_deltas, diagnose, flight_kind_counts, parse_chrome};

    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let print_journal = |path: &str| -> Result<(), String> {
        let (rows, problems) = naspipe::obs::journal_summary(&read(path)?);
        println!("journal event mix ({path}):");
        for (kind, count) in rows {
            println!("  {kind:<24} {count}");
        }
        for p in &problems {
            println!("  schema problem: {p}");
        }
        if problems.is_empty() {
            println!("  journal schema: ok");
        }
        Ok(())
    };
    // Journal-only mode: summarize one run's structured event log
    // without a trace diagnosis.
    if !args.options.contains_key("base") && !args.options.contains_key("cand") {
        if let Some(path) = args.options.get("journal") {
            return print_journal(path);
        }
    }

    let base_path = args
        .options
        .get("base")
        .ok_or("--base is required (the baseline run's chrome trace JSON)")?;
    let cand_path = args
        .options
        .get("cand")
        .ok_or("--cand is required (the candidate run's chrome trace JSON)")?;
    let top = args.u64_opt("top", 5)? as usize;
    let threshold = args.u64_opt("threshold-pct", 15)? as f64 / 100.0;
    let (base, _) = parse_chrome(&read(base_path)?).map_err(|e| format!("{base_path}: {e}"))?;
    let (cand, _) = parse_chrome(&read(cand_path)?).map_err(|e| format!("{cand_path}: {e}"))?;
    let d = diagnose(&base, &cand, top);
    if args.flags.contains("json") {
        println!("{}", d.to_json());
        return Ok(());
    }
    print!("{}", d.render_text());
    if let (Some(bb), Some(cb)) = (
        args.options.get("base-bench"),
        args.options.get("cand-bench"),
    ) {
        let rows = bench_deltas(&read(bb)?, &read(cb)?, threshold);
        print!("{}", naspipe::obs::explain_bench_check(&rows));
    }
    for (label, key) in [("base", "base-flight"), ("cand", "cand-flight")] {
        if let Some(path) = args.options.get(key) {
            println!("flight event mix, {label} ({path}):");
            for (kind, count) in flight_kind_counts(&read(path)?) {
                println!("  {kind:<18} {count}");
            }
        }
    }
    if let Some(path) = args.options.get("journal") {
        print_journal(path)?;
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let space = args.space()?;
    let seed = args.u64_opt("seed", 0)?;
    let threads = args.u64_opt("threads", 0)? as usize;
    let path = args
        .options
        .get("transcript")
        .ok_or("--transcript is required")?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let t = Transcript::read(&mut BufReader::new(file)).map_err(|e| e.to_string())?;
    println!(
        "replaying {} tasks over {} subnets...",
        t.tasks.len(),
        t.subnets.len()
    );
    let result = replay_transcript(&space, &t, &train_config(seed, threads))
        .map_err(|e| format!("cannot replay {path}: {e}"))?;
    println!(
        "converged loss {:.4}, parameter hash {:016x}",
        result.converged_loss(),
        result.final_hash,
    );
    println!("top-5 subnets by training loss:");
    for (step, loss) in result.quality_ranking().into_iter().take(5) {
        println!("  SN{step}: {loss:.4}");
    }
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let space = args.space()?;
    let gpus = args.u32_opt("gpus", 8)?;
    let n = args.u64_opt("subnets", 64)?;
    let seed = args.u64_opt("seed", 0)?;
    let rounds = args.u64_opt("rounds", 64)? as usize;
    let threads = args.u64_opt("threads", 0)? as usize;

    let subnets = UniformSampler::new(&space, seed).take_subnets(n as usize);
    let mut cfg = naspipe::core::config::PipelineConfig::naspipe(gpus, n).with_seed(seed);
    let ops = args.ops_plane("des", gpus, seed)?;
    if let Some(o) = &ops {
        cfg.diagnostics.ops = Some(Arc::clone(&o.state));
    }
    let outcome = SimSpec {
        subnets: Some(subnets),
        telemetry: ops.as_ref().map(|o| &o.topts),
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .map_err(|e| e.to_string())?;
    let tc = train_config(seed, threads);
    let trained = replay_training(&space, &outcome, &tc);
    let (loss, best) = search_best_subnet(&space, &trained.store, &tc, rounds);
    println!(
        "trained {n} subnets, searched {rounds} rounds: best {} with validation loss {loss:.4}",
        best.seq_id(),
    );
    let head: Vec<u32> = best.choices().iter().take(12).copied().collect();
    println!("winning choices (first 12 blocks): {head:?}");
    Ok(())
}

/// `naspipe top`: terminal live view of a run's ops plane. Scrapes
/// `/status` + `/metrics` every interval and renders per-stage
/// utilization / watermark / queue-depth lines, until the run reports
/// done/failed, the endpoint goes away, or the iteration budget is
/// spent. Read-only: it never influences the run it watches.
fn cmd_top(args: &Args) -> Result<(), String> {
    use std::io::IsTerminal;

    let addr = args
        .options
        .get("addr")
        .ok_or("--addr is required (HOST:PORT of a live run's ops plane)")?;
    let interval = std::time::Duration::from_millis(args.u64_opt("interval-ms", 1000)?.max(100));
    let iterations = args.u64_opt("iterations", 0)?;
    let once = args.flags.contains("once");
    // Only a real terminal gets the clear-screen dance; piped output is
    // plain appended frames (what the docs' transcript shows).
    let live = std::io::stdout().is_terminal();
    let mut scraped = 0u64;
    loop {
        let status = http_get(addr, "/status")
            .map_err(|e| format!("cannot scrape http://{addr}/status: {e}"))?;
        if status.status != 200 {
            return Err(format!(
                "http://{addr}/status answered {} (not an ops plane?)",
                status.status
            ));
        }
        let metrics = http_get(addr, "/metrics")
            .map_err(|e| format!("cannot scrape http://{addr}/metrics: {e}"))?;
        let doc = parse_json(&status.body).map_err(|e| format!("/status is not JSON: {e}"))?;
        let frame = render_top(&doc, &metrics.body)?;
        if live {
            // ANSI clear + home, so the view repaints in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        scraped += 1;
        let phase = doc
            .get("phase")
            .and_then(|p| p.as_str())
            .unwrap_or("unknown")
            .to_string();
        if once || (iterations > 0 && scraped >= iterations) {
            return Ok(());
        }
        if phase == "done" || phase == "failed" {
            println!("run {phase}; exiting");
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn usage() -> &'static str {
    "usage: naspipe <spaces|train|replay|search|top|bench-check|replay-check|doctor> [--option value ..]\n\
     \n\
     naspipe spaces\n\
     naspipe train  --space NLP.c2 [--gpus 8] [--subnets 64] [--seed 0]\n\
     \x20              [--batch 0] [--system naspipe|gpipe|pipedream|vpipe]\n\
     \x20              [--threads 0] [--transcript FILE]\n\
     \x20              [--engine des|threaded] [--metrics-addr HOST:PORT]\n\
     \x20              [--journal PATH] [--sample-interval-ms 200]\n\
     \x20              [--checkpoint-dir DIR] [--checkpoint-keep 3]\n\
     \x20              [--checkpoint-interval 8] [--resume]\n\
     \x20              [--kill-at STAGE:SUBNET] [--flight-dump PATH]\n\
     naspipe replay --space NLP.c2 --transcript FILE [--seed 0] [--threads 0]\n\
     naspipe search --space CV.c2 [--gpus 8] [--subnets 64] [--rounds 64]\n\
     \x20              [--threads 0] [--metrics-addr HOST:PORT]\n\
     naspipe top    --addr HOST:PORT [--interval-ms 1000] [--iterations 0]\n\
     \x20              [--once]\n\
     naspipe bench-check [--baseline BENCH_compute.json] [--threshold-pct 15]\n\
     \x20              [--e2e-threshold-pct 35] [--gate kernels|all]\n\
     \x20              [--subnets 24] [--explain]\n\
     naspipe replay-check [--corpus traces/golden] [--mode strict|lenient]\n\
     \x20              [--case SUBSTR] [--bless] [--explain]\n\
     naspipe doctor --base TRACE.json --cand TRACE.json [--top 5]\n\
     \x20              [--base-bench A.json --cand-bench B.json]\n\
     \x20              [--base-flight A.flight.json] [--cand-flight B.flight.json]\n\
     \x20              [--journal PATH] [--threshold-pct 15] [--json]\n\
     \n\
     --threads sets the compute-pool worker count (0 = NASPIPE_THREADS\n\
     or the machine's parallelism); it never changes numeric results.\n\
     --checkpoint-dir (threaded engine) persists every completed CSP\n\
     watermark cut durably; --resume continues from the newest valid\n\
     snapshot there, bitwise-identical to an uninterrupted run.\n\
     --kill-at STAGE:SUBNET aborts the whole process at that forward\n\
     task (crash injection; recover with --resume).\n\
     --metrics-addr serves the live ops plane while the run is in\n\
     flight: GET /metrics (Prometheus 0.0.4 text), /healthz, /readyz,\n\
     /status (versioned JSON), /flight (on-demand flight dump), and\n\
     /events (the journal as JSONL); port 0 picks an ephemeral port,\n\
     printed once on stderr.\n\
     --journal PATH tees the structured event journal (watchdog trips,\n\
     checkpoint cuts, recovery and durable notices) to a JSONL file;\n\
     it works with or without --metrics-addr.\n\
     top renders a live per-stage view (watermark, fwd/bwd, tasks/s,\n\
     queue, stall/bubble, cache) by scraping /status and /metrics of a\n\
     run started with --metrics-addr.\n\
     bench-check re-measures the compute backend at pool sizes {1,4,8}\n\
     and exits non-zero when fresh throughput falls outside the tolerance\n\
     band of the tracked BENCH_compute.json (schema 2) baseline:\n\
     --threshold-pct bounds the kernel GFLOP/s families, the wider\n\
     --e2e-threshold-pct bounds replay subnets/s and threaded makespan\n\
     (wall clock is noisy); --gate kernels fails only on kernel families.\n\
     replay-check re-executes the committed golden traces against the\n\
     current scheduler; --mode strict (default) fails on any divergence,\n\
     naming the first divergent task; --mode lenient prints the same\n\
     report but exits zero; --bless regenerates the corpus.\n\
     --flight-dump writes the always-on flight recorder's per-stage ring\n\
     to PATH at end of run and on faults/watchdog trips.\n\
     --explain appends an automated doctor analysis to a failing gate.\n\
     doctor diagnoses a regression between two runs offline: ranked\n\
     critical-path attribution deltas, straggler and exported-stall\n\
     rankings, and a kernel-vs-scheduling verdict from their trace\n\
     (and optionally bench / flight) artifacts."
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "spaces" => {
            cmd_spaces();
            Ok(())
        }
        "train" => cmd_train(&args),
        "replay" => cmd_replay(&args),
        "search" => cmd_search(&args),
        "top" => cmd_top(&args),
        "bench-check" => cmd_bench_check(&args),
        "replay-check" => cmd_replay_check(&args),
        "doctor" => cmd_doctor(&args),
        // parse_args already rejects unknown subcommands.
        other => Err(format!("unknown subcommand '{other}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse_args(&argv("train --space NLP.c2 --gpus 4")).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.options["space"], "NLP.c2");
        assert_eq!(a.u64_opt("gpus", 8).unwrap(), 4);
        assert_eq!(a.u64_opt("subnets", 64).unwrap(), 64);
    }

    #[test]
    fn rejects_malformed_options() {
        assert!(parse_args(&argv("train space NLP.c2")).is_err());
        assert!(parse_args(&argv("train --space")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn rejects_unknown_options_with_a_suggestion() {
        // `--thread` used to be silently ignored; now it must error and
        // point at the real spelling.
        let err = parse_args(&argv("train --space NLP.c2 --thread 4")).unwrap_err();
        assert!(err.contains("unknown option --thread for 'train'"), "{err}");
        assert!(err.contains("did you mean --threads?"), "{err}");
        // An option valid elsewhere is still unknown here.
        let err = parse_args(&argv("replay --space NLP.c2 --rounds 9")).unwrap_err();
        assert!(
            err.contains("unknown option --rounds for 'replay'"),
            "{err}"
        );
        // No close match: no misleading suggestion.
        let err = parse_args(&argv("train --space NLP.c2 --zzzzzzzzzz 1")).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn rejects_unknown_subcommands_with_a_suggestion() {
        let err = parse_args(&argv("trian --space NLP.c2")).unwrap_err();
        assert!(err.contains("unknown subcommand 'trian'"), "{err}");
        assert!(err.contains("did you mean 'train'?"), "{err}");
    }

    #[test]
    fn parses_replay_check_flags() {
        let a = parse_args(&argv("replay-check --mode lenient --bless --case des")).unwrap();
        assert_eq!(a.command, "replay-check");
        assert_eq!(a.options["mode"], "lenient");
        assert_eq!(a.options["case"], "des");
        assert!(a.flags.contains("bless"));
        // --bless is a bare flag: the next token is not swallowed as a value.
        let a = parse_args(&argv("replay-check --bless --mode strict")).unwrap();
        assert!(a.flags.contains("bless"));
        assert_eq!(a.options["mode"], "strict");
    }

    #[test]
    fn parses_durable_checkpoint_options() {
        let a = parse_args(&argv(
            "train --space NLP.c2 --engine threaded --checkpoint-dir /tmp/ck \
             --checkpoint-keep 5 --checkpoint-interval 4 --resume --kill-at 1:13",
        ))
        .unwrap();
        let d = a.durable().unwrap().unwrap();
        assert_eq!(d.dir, std::path::PathBuf::from("/tmp/ck"));
        assert_eq!(d.keep, 5);
        assert!(d.resume);
        assert_eq!(a.kill_at(8, 64).unwrap(), Some((1, 13)));
        // A point the run never reaches is rejected too.
        assert!(a.kill_at(1, 64).is_err(), "stage 1 of 1");
        assert!(a.kill_at(8, 13).is_err(), "subnet 13 of 13");

        // --resume without --checkpoint-dir is a usage error.
        let a = parse_args(&argv("train --space NLP.c2 --resume")).unwrap();
        assert!(a.durable().is_err());
        // Malformed --kill-at is rejected, not silently ignored.
        let a = parse_args(&argv("train --space NLP.c2 --kill-at 13")).unwrap();
        assert!(a.kill_at(8, 64).is_err());
        let a = parse_args(&argv("train --space NLP.c2 --kill-at a:b")).unwrap();
        assert!(a.kill_at(8, 64).is_err());
        // No durable options at all: None, no error.
        let a = parse_args(&argv("train --space NLP.c2")).unwrap();
        assert_eq!(a.durable().unwrap(), None);
    }

    #[test]
    fn parses_doctor_and_explain_options() {
        let a = parse_args(&argv(
            "doctor --base a.json --cand b.json --top 3 --base-flight a.flight.json --json",
        ))
        .unwrap();
        assert_eq!(a.command, "doctor");
        assert_eq!(a.options["base"], "a.json");
        assert_eq!(a.options["cand"], "b.json");
        assert_eq!(a.u64_opt("top", 5).unwrap(), 3);
        assert_eq!(a.options["base-flight"], "a.flight.json");
        assert!(a.flags.contains("json"));

        // --explain is a bare flag on both gates.
        let a = parse_args(&argv("bench-check --explain --threshold-pct 10")).unwrap();
        assert!(a.flags.contains("explain"));
        assert_eq!(a.options["threshold-pct"], "10");
        let a = parse_args(&argv("replay-check --explain --mode strict")).unwrap();
        assert!(a.flags.contains("explain"));

        // --flight-dump takes a path on train, for either engine.
        let a = parse_args(&argv("train --space NLP.c2 --flight-dump run.flight.json")).unwrap();
        assert_eq!(a.options["flight-dump"], "run.flight.json");

        // doctor rejects options it does not take.
        assert!(parse_args(&argv("doctor --base a.json --bless")).is_err());
    }

    #[test]
    fn parses_ops_plane_options() {
        // train takes --journal alongside --metrics-addr.
        let a = parse_args(&argv(
            "train --space NLP.c2 --metrics-addr 127.0.0.1:0 --journal run.jsonl",
        ))
        .unwrap();
        assert_eq!(a.options["metrics-addr"], "127.0.0.1:0");
        assert_eq!(a.options["journal"], "run.jsonl");

        // top: --addr with pacing options and the bare --once flag.
        let a = parse_args(&argv(
            "top --addr 127.0.0.1:9464 --interval-ms 250 --iterations 3 --once",
        ))
        .unwrap();
        assert_eq!(a.command, "top");
        assert_eq!(a.options["addr"], "127.0.0.1:9464");
        assert_eq!(a.u64_opt("interval-ms", 1000).unwrap(), 250);
        assert_eq!(a.u64_opt("iterations", 0).unwrap(), 3);
        assert!(a.flags.contains("once"));

        // top rejects train-only options; doctor takes --journal.
        assert!(parse_args(&argv("top --addr 127.0.0.1:1 --space NLP.c2")).is_err());
        let a = parse_args(&argv(
            "doctor --base a.json --cand b.json --journal j.jsonl",
        ))
        .unwrap();
        assert_eq!(a.options["journal"], "j.jsonl");
    }

    #[test]
    fn resolves_spaces_and_systems() {
        let a = parse_args(&argv("train --space CV.c3 --system vpipe")).unwrap();
        assert_eq!(a.space().unwrap().num_blocks(), 32);
        assert_eq!(a.system().unwrap(), SystemKind::VPipe);
        let bad = parse_args(&argv("train --space Nope")).unwrap();
        assert!(bad.space().is_err());
        let bad_sys = parse_args(&argv("train --space CV.c3 --system zz")).unwrap();
        assert!(bad_sys.system().is_err());
    }
}

//! Ops-plane integration tests: the multi-route HTTP surface scraped
//! concurrently while a real durable-checkpoint **resume** trains, held
//! to bitwise identity with an ops-disabled resume — plus the CLI-level
//! `--journal` zero-effect check on a real `naspipe` child process, and
//! the DES engine's side of the same surface.
//!
//! The child binary is the workspace `naspipe` CLI, located via
//! `CARGO_BIN_EXE_naspipe` (cargo builds it for integration tests).

use naspipe::core::config::{DiagnosticsOptions, PipelineConfig};
use naspipe::core::pipeline::SimSpec;
use naspipe::core::replay_gate::loss_digest;
use naspipe::core::runtime::{DurableOptions, RecoveryOptions, RunSpec};
use naspipe::core::train::TrainConfig;
use naspipe::obs::{
    http_get, parse_journal, parse_json, validate_exposition, validate_journal, validate_status,
    Journal, JournalLevel, NullTracer, OpsServer, OpsState, RunMeta, TelemetryHub,
    TelemetryOptions,
};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
use naspipe_bench::experiments::crash;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED: u64 = 7;
const GPUS: u32 = 3;
const SUBNETS: u64 = 20;
const CKPT_INTERVAL: u64 = 8;

fn naspipe_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_naspipe"))
}

/// A fresh scratch directory under the target tmp space, per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("naspipe-opstest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy target creatable");
    for entry in std::fs::read_dir(src).expect("source dir readable") {
        let entry = entry.expect("dir entry readable");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("snapshot file copies");
        }
    }
}

fn cfg() -> TrainConfig {
    TrainConfig {
        dim: 64,
        rows: 32,
        seed: SEED,
        ..TrainConfig::default()
    }
}

fn stream(space: &SearchSpace) -> Vec<naspipe::supernet::subnet::Subnet> {
    UniformSampler::new(space, SEED).take_subnets(SUBNETS as usize)
}

fn recovery() -> RecoveryOptions {
    RecoveryOptions {
        checkpoint_interval: CKPT_INTERVAL,
        ..RecoveryOptions::default()
    }
}

/// The tentpole guarantee, satellite 3: a durable **resume** with the
/// full ops plane attached — journal sinking to disk, every route
/// served, `/status` and `/metrics` scraped concurrently from another
/// thread while the stages train — produces a bitwise-identical RESULT
/// to the same resume with observability fully disabled.
#[test]
fn concurrent_scrapes_during_durable_resume_are_bitwise_zero_effect() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let cfg = cfg();

    // Seed a durable snapshot directory with an uninterrupted run:
    // cuts land at watermarks 8 and 16, so a resume replays 16..20.
    let seed_dir = scratch("seed");
    let seeded = RunSpec {
        recovery: recovery(),
        durable: Some(DurableOptions {
            dir: seed_dir.clone(),
            keep: 4,
            resume: false,
        }),
        ..RunSpec::new(&space, stream(&space), cfg, GPUS)
    }
    .run()
    .expect("seeding run trains");

    let bare_dir = scratch("resume-bare");
    let ops_dir = scratch("resume-ops");
    copy_dir(&seed_dir, &bare_dir);
    copy_dir(&seed_dir, &ops_dir);

    // Resume with observability fully off: the baseline RESULT.
    let bare = RunSpec {
        recovery: recovery(),
        durable: Some(DurableOptions {
            dir: bare_dir,
            keep: 4,
            resume: true,
        }),
        ..RunSpec::new(&space, stream(&space), cfg, GPUS)
    }
    .run()
    .expect("bare resume trains");

    // Resume with the whole ops plane on: telemetry hub, journal with a
    // file sink, a live multi-route server, and scraper threads
    // hammering /status and /metrics while the run is in flight.
    let journal_path = scratch("journal").join("resume.journal.jsonl");
    let hub = Arc::new(TelemetryHub::new(GPUS as usize, 0));
    let journal = Journal::new(0)
        .with_sink(&journal_path)
        .expect("journal sink creatable");
    let state = Arc::new(OpsState::new(
        RunMeta::new("threaded", GPUS).seed(SEED),
        Arc::clone(&hub),
        Arc::new(journal),
    ));
    let mut server =
        OpsServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("ops plane binds port 0");
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = ["/status", "/metrics"]
        .into_iter()
        .map(|route| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sweeps = 0usize;
                let mut errors = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match http_get(&addr, route) {
                        Ok(r) if r.status == 200 => {
                            let problems: Vec<String> = match route {
                                "/status" => match parse_json(&r.body) {
                                    Ok(doc) => validate_status(&doc),
                                    Err(e) => vec![format!("/status unparseable: {e}")],
                                },
                                _ => validate_exposition(&r.body).err().into_iter().collect(),
                            };
                            for p in problems {
                                errors.push(format!("{route}: {p}"));
                            }
                            sweeps += 1;
                        }
                        Ok(r) => errors.push(format!("{route} answered {}", r.status)),
                        Err(e) => errors.push(format!("{route} unreachable: {e}")),
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                (sweeps, errors)
            })
        })
        .collect();

    let topts = TelemetryOptions::new(Arc::clone(&hub))
        .with_interval_us(2_000)
        .with_progress(false);
    let diag = DiagnosticsOptions::default().with_ops(Arc::clone(&state));
    let observed = RunSpec {
        recovery: recovery(),
        telemetry: Some(topts),
        durable: Some(DurableOptions {
            dir: ops_dir,
            keep: 4,
            resume: true,
        }),
        diagnostics: diag,
        ..RunSpec::new(&space, stream(&space), cfg, GPUS)
    }
    .run()
    .expect("instrumented resume trains");

    stop.store(true, Ordering::Relaxed);
    for handle in scrapers {
        let (sweeps, errors) = handle.join().expect("scraper thread joins");
        assert!(sweeps > 0, "scraper never completed a sweep");
        assert!(errors.is_empty(), "scrape errors: {errors:?}");
    }

    // Bitwise identity: instrumented resume == bare resume == the
    // uninterrupted seeding run.
    assert_eq!(
        observed.result.final_hash, bare.result.final_hash,
        "ops plane changed the final parameter hash of a durable resume"
    );
    assert_eq!(
        loss_digest(&observed.result.losses),
        loss_digest(&bare.result.losses),
        "ops plane changed the loss stream of a durable resume"
    );
    assert_eq!(observed.result.losses.len(), bare.result.losses.len());
    assert_eq!(
        bare.result.final_hash, seeded.result.final_hash,
        "resume diverged from the uninterrupted run"
    );

    // The server outlives the run: /status must report the completed
    // phase and the watermark the resume actually started from.
    let status = http_get(&addr, "/status").expect("/status reachable after run");
    assert_eq!(status.status, 200);
    let doc = parse_json(&status.body).expect("/status is JSON");
    assert_eq!(doc.get("phase").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(
        doc.get("resume_watermark").and_then(|v| v.as_u64()),
        Some(16),
        "resume should have started from the second durable cut"
    );
    server.shutdown();

    // The journal sink captured the resume as structured events.
    let text = std::fs::read_to_string(&journal_path).expect("journal sink readable");
    assert_eq!(validate_journal(&text), Vec::<String>::new());
    let events = parse_journal(&text).expect("journal parses");
    assert!(
        events.iter().any(|e| e.kind == "durable-resume"),
        "journal missing the durable-resume event: {:?}",
        events.iter().map(|e| e.kind.clone()).collect::<Vec<_>>()
    );
    assert!(events.iter().any(|e| e.kind == "run-end"));
    assert!(events.iter().all(|e| e.level != JournalLevel::Error));
}

/// CLI-level zero-effect: `--journal PATH` on a real child process
/// leaves the printed RESULT bitwise unchanged, and the file it wrote
/// is schema-valid with the run lifecycle events present.
#[test]
fn journal_flag_is_zero_effect_on_child_process() {
    let dir = scratch("cli-journal");
    let journal_path = dir.join("train.journal.jsonl");
    let base_args: [&str; 13] = [
        "train",
        "--space",
        "NLP.c2",
        "--engine",
        "threaded",
        "--gpus",
        "3",
        "--subnets",
        "16",
        "--seed",
        "5",
        "--threads",
        "2",
    ];

    let plain = Command::new(naspipe_bin())
        .args(base_args)
        .output()
        .expect("plain child spawns");
    let journaled = Command::new(naspipe_bin())
        .args(base_args)
        .args(["--journal", journal_path.to_str().expect("utf8 path")])
        .output()
        .expect("journaled child spawns");
    assert!(plain.status.success(), "plain child failed: {plain:?}");
    assert!(
        journaled.status.success(),
        "journaled child failed: {journaled:?}"
    );

    let a = crash::parse_result(&String::from_utf8_lossy(&plain.stdout))
        .expect("plain child printed RESULT");
    let b = crash::parse_result(&String::from_utf8_lossy(&journaled.stdout))
        .expect("journaled child printed RESULT");
    assert_eq!(a, b, "--journal changed the RESULT line");

    let text = std::fs::read_to_string(&journal_path).expect("journal file written");
    assert_eq!(validate_journal(&text), Vec::<String>::new());
    let events = parse_journal(&text).expect("journal parses");
    assert!(events.iter().any(|e| e.kind == "run-start"));
    assert!(events.iter().any(|e| e.kind == "run-end"));
}

/// Both engines reach the ops plane through the same run-start, so a
/// DES run serves what a threaded one does: its flight ring on
/// `/flight` (a 404 before this was one code path), the ring's drop
/// count on `/status` and `/metrics`, and every stage's finished prefix
/// as its `/status` watermark.
#[test]
fn des_run_serves_its_flight_ring_and_stage_watermarks() {
    const STAGES: u32 = 4;
    // Enough tasks to overflow the 256-event ring of every stage.
    const N: u64 = 300;
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let hub = Arc::new(TelemetryHub::new(STAGES as usize, 0));
    let state = Arc::new(OpsState::new(
        RunMeta::new("des", STAGES).seed(SEED),
        Arc::clone(&hub),
        Arc::new(Journal::new(0)),
    ));
    let mut server =
        OpsServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("ops plane binds port 0");
    let addr = server.local_addr().to_string();
    let get = |route: &str| http_get(&addr, route).expect("route reachable");
    assert_eq!(get("/flight").status, 404, "no ring before the run starts");

    let cfg = PipelineConfig::naspipe(STAGES, N)
        .with_seed(SEED)
        .with_diagnostics(DiagnosticsOptions::default().with_ops(Arc::clone(&state)));
    let out = SimSpec {
        subnets: Some(UniformSampler::new(&space, SEED).take_subnets(N as usize)),
        tracer: Box::new(NullTracer),
        telemetry: Some(&TelemetryOptions::new(hub)),
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .expect("the DES run completes");
    assert!(out.obs.flight.dropped > 0, "the ring must have overflowed");

    let flight = get("/flight");
    assert_eq!(flight.status, 200);
    let dump = parse_json(&flight.body).expect("/flight is JSON");
    assert_eq!(
        dump.get("reason").and_then(|v| v.as_str()),
        Some("on-demand")
    );
    let field = |doc: &naspipe::obs::JsonValue, key: &str| doc.get(key).and_then(|v| v.as_u64());
    assert_eq!(field(&dump, "dropped"), Some(out.obs.flight.dropped));
    assert_eq!(
        dump.get("events").and_then(|v| v.as_arr()).map(<[_]>::len),
        Some(out.obs.flight.events as usize),
        "/flight serves the ring the report summarises"
    );

    let status = parse_json(&get("/status").body).expect("/status is JSON");
    assert_eq!(validate_status(&status), Vec::<String>::new());
    assert_eq!(status.get("phase").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(
        status.get("drops").and_then(|d| field(d, "flight")),
        Some(out.obs.flight.dropped)
    );
    let rows = status
        .get("stages_detail")
        .and_then(|v| v.as_arr())
        .expect("per-stage rows");
    assert_eq!(rows.len(), STAGES as usize);
    for row in rows {
        assert_eq!(field(row, "watermark"), Some(N), "{row:?}");
    }

    let metrics = get("/metrics").body;
    validate_exposition(&metrics).expect("/metrics is well-formed");
    assert!(
        metrics.contains(&format!(
            "naspipe_flight_dropped_total {}",
            out.obs.flight.dropped
        )),
        "{metrics}"
    );
    server.shutdown();
}

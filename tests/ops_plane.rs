//! Ops-plane integration tests: every route swept while a threaded run
//! trains, held to bitwise identity with a bare run and to agreement with
//! its report; the multi-route HTTP surface scraped concurrently while a
//! real durable-checkpoint **resume** trains, held to bitwise identity
//! with an ops-disabled resume — plus the CLI-level `--journal`
//! zero-effect check on a real `naspipe` child process, and the DES
//! engine's side of the same surface.
//!
//! The child binary is the workspace `naspipe` CLI, located via
//! `CARGO_BIN_EXE_naspipe` (cargo builds it for integration tests).

use naspipe::core::config::{DiagnosticsOptions, PipelineConfig};
use naspipe::core::pipeline::SimSpec;
use naspipe::core::replay_gate::loss_digest;
use naspipe::core::runtime::{DurableOptions, RecoveryOptions, RunSpec, SupervisedRun};
use naspipe::core::train::TrainConfig;
use naspipe::obs::telemetry::diff_against_report;
use naspipe::obs::{
    counter_values, http_get, monotonicity_violations, parse_journal, parse_json,
    validate_exposition, validate_journal, validate_status, Journal, JournalLevel, NullTracer,
    OpsServer, OpsState, RunMeta, TelemetryHub, TelemetryOptions,
};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
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

/// The threaded runtime on NLP.c2, 2 stages, 8 subnets, trained bare and
/// then with the whole ops plane attached: a hub sampling every 2 ms, the
/// journal sinking to a file, and every route swept from the test thread
/// while the stages train. Every sweep answers what its phase allows, with
/// `/metrics` well-formed and `/status` schema-valid, and some sweep sees
/// the run running. No counter moves backwards between two `/metrics`
/// scrapes. After the run, the hub's last snapshot equals the report field
/// for field, the scraped `naspipe_tasks_total` series sum to the report's
/// tasks, and `/events` serves exactly the lines the sink wrote. The
/// instrumented run is bitwise the bare one. (`/readyz` turning 503 once a
/// stall verdict latches is `obs`'s own route test.)
#[test]
fn swept_ops_plane_is_zero_effect_and_tells_the_report_s_story() {
    const STAGES: u32 = 2;
    const N: u64 = 8;
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let subnets = UniformSampler::new(&space, 2022).take_subnets(N as usize);
    let cfg = TrainConfig {
        dim: 96,
        rows: 48,
        seed: 2022,
        ..TrainConfig::default()
    };
    let bare = RunSpec::new(&space, subnets.clone(), cfg, STAGES).run();
    let bare = bare.expect("bare run trains");

    let sink = scratch("sweep").join("run.journal.jsonl");
    let hub = Arc::new(TelemetryHub::new(STAGES as usize, 0));
    let journal = Journal::new(0)
        .with_sink(&sink)
        .expect("journal sink creatable");
    let state = Arc::new(OpsState::new(
        RunMeta::new("threaded", STAGES).seed(2022),
        Arc::clone(&hub),
        Arc::new(journal),
    ));
    let mut server =
        OpsServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("ops plane binds port 0");
    let addr = server.local_addr().to_string();
    let get = |route: &str| http_get(&addr, route).unwrap_or_else(|e| panic!("{route}: {e}"));

    let mut scrapes = Vec::new();
    let instrumented = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let topts = TelemetryOptions::new(Arc::clone(&hub))
                .with_interval_us(2_000)
                .with_progress(false);
            RunSpec {
                telemetry: Some(topts),
                diagnostics: DiagnosticsOptions::default().with_ops(Arc::clone(&state)),
                ..RunSpec::new(&space, subnets, cfg, STAGES)
            }
            .run()
        });
        // Until the runtime marks the state running, `/flight` has no ring
        // (404) and `/readyz` is not ready; once running, `/readyz` may
        // leave 200 only on a latched verdict or the run being done.
        let mut running_sweeps = 0;
        while !worker.is_finished() {
            let status = get("/status");
            assert_eq!(status.status, 200);
            let doc = parse_json(&status.body).expect("/status is JSON");
            assert_eq!(validate_status(&doc), Vec::<String>::new());
            let running = doc.get("phase").and_then(|v| v.as_str()) == Some("running");
            running_sweeps += usize::from(running);
            for route in ["/metrics", "/healthz", "/events"] {
                assert_eq!(get(route).status, 200, "{route}");
            }
            scrapes.push(get("/metrics").body);
            let flight = get("/flight").status;
            assert!(
                flight == 200 || flight == 404 && !running,
                "/flight {flight}"
            );
            let ready = get("/readyz");
            let why = &ready.body;
            let excused = !running || why.contains("watchdog") || why.contains("done");
            assert!(
                ready.status == 200 || ready.status == 503 && excused,
                "{why}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(running_sweeps > 0, "no sweep saw the run running");
        worker.join().expect("the run's thread joins")
    })
    .expect("instrumented run trains");

    scrapes.push(get("/metrics").body);
    for scrape in &scrapes {
        validate_exposition(scrape).unwrap_or_else(|e| panic!("{e}\n{scrape}"));
    }
    for pair in scrapes.windows(2) {
        assert_eq!(monotonicity_violations(&pair[0], &pair[1]), Ok(vec![]));
    }
    let last = hub.latest().expect("a final snapshot");
    assert_eq!(
        diff_against_report(&last, &instrumented.report),
        Vec::<String>::new()
    );
    let stages = &instrumented.report.stages;
    let tasks: u64 = stages
        .iter()
        .map(|s| s.forward_tasks + s.backward_tasks)
        .sum();
    assert_eq!(tasks, N * u64::from(STAGES) * 2);
    let scraped = counter_values(scrapes.last().unwrap()).expect("counters parse");
    let scraped = scraped
        .iter()
        .filter(|(k, _)| k.starts_with("naspipe_tasks_total"));
    assert_eq!(scraped.map(|(_, v)| *v as u64).sum::<u64>(), tasks);

    let events = get("/events");
    assert_eq!(events.status, 200);
    assert_eq!(validate_journal(&events.body), Vec::<String>::new());
    let sunk = std::fs::read_to_string(&sink).expect("journal sink readable");
    let lines = |text: &str| -> Vec<String> {
        let lines = text.lines().filter(|l| !l.is_empty());
        lines.map(String::from).collect()
    };
    assert_eq!(lines(&events.body), lines(&sunk), "/events is the sink");
    assert!(lines(&sunk).len() >= 2, "run-start and run-end at least");
    server.shutdown();

    assert_eq!(instrumented.result.final_hash, bare.result.final_hash);
    assert_eq!(
        loss_digest(&instrumented.result.losses),
        loss_digest(&bare.result.losses)
    );
    // Task times are wall clock; what the run did is the multiset of
    // (stage, kind, subnet, blocks).
    let executed = |run: &SupervisedRun| {
        let tasks = run.tasks.iter();
        let mut v: Vec<_> = tasks
            .map(|t| format!("{:?} {:?} {:?} {:?}", t.stage, t.kind, t.subnet, t.blocks))
            .collect();
        v.sort();
        v
    };
    assert_eq!(executed(&instrumented), executed(&bare));
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

    let result_line = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("RESULT "));
        line.map(String::from).expect("the child printed RESULT")
    };
    assert_eq!(
        result_line(&plain),
        result_line(&journaled),
        "--journal changed the RESULT line"
    );

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

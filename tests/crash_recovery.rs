//! Cross-process crash-recovery tests: real `naspipe` child processes
//! killed at seeded points (including mid-checkpoint-write), resumed
//! from the durable snapshot directory, and held to **bitwise identity**
//! with an uninterrupted run — plus the zero-effect guarantee that
//! durability never changes what a run computes.
//!
//! The child binary is the workspace `naspipe` CLI, located via
//! `CARGO_BIN_EXE_naspipe` (cargo builds it for integration tests).

use naspipe::core::config::DiagnosticsOptions;
use naspipe::core::durable::{
    load_cut_in, load_latest_in, snapshot_file_name, DurableError, DEFAULT_KEEP,
};
use naspipe::core::fault::FaultPlan;
use naspipe::core::replay_gate::{self, loss_digest, ScheduleDigest};
use naspipe::core::runtime::{DurableOptions, RecoveryOptions, RunSpec, TrainError};
use naspipe::core::task::TaskKind;
use naspipe::core::train::{sequential_training, TrainConfig};
use naspipe::obs::{Journal, OpsState, RunMeta, TelemetryHub};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
use naspipe::tensor::model::ParamStore;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

/// A fresh scratch directory under the target tmp space, per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("naspipe-crashtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

/// A threaded `naspipe train` child: NLP.c2 on 3 stages, 24 subnets, seed
/// 5, then `args` (the CLI keeps the last value of a repeated option).
fn train(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_naspipe"));
    cmd.args([
        "train",
        "--space",
        "NLP.c2",
        "--engine",
        "threaded",
        "--gpus",
        "3",
        "--subnets",
        "24",
        "--seed",
        "5",
        "--threads",
        "2",
    ])
    .args(args)
    .env_remove("NASPIPE_CRASH_WRITE");
    cmd
}

fn train_cmd(args: &[&str]) -> Output {
    train(args).output().expect("naspipe child spawns")
}

/// The child's `RESULT hash=<hex> loss_digest=<hex> losses=<n>` line.
fn result_line(out: &Output) -> Option<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("RESULT "));
    line.map(String::from)
}

fn result_of(out: &Output) -> String {
    result_line(out).unwrap_or_else(|| {
        panic!(
            "child printed no RESULT line.\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// The watermark of the child's `naspipe: resuming from watermark W
/// (path)` line.
fn resumed_from(out: &Output) -> Option<u64> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find_map(|l| {
        l.strip_prefix("naspipe: resuming from watermark ")
            .map(String::from)
    })?;
    line.split_whitespace().next()?.parse().ok()
}

/// Where a crash cell's child dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// `--kill-at stage:subnet`: abort when that stage starts that
    /// subnet's forward.
    KillAt(u32, u64),
    /// `NASPIPE_CRASH_WRITE=n`: abort half-way through the n-th snapshot
    /// write, leaving a torn tmp file behind.
    MidWrite(u64),
}

/// One cell of the crash matrix: what the crashed child left on disk and
/// what the resumed one did.
#[derive(Debug)]
struct Cell {
    seed: u64,
    point: CrashPoint,
    keep: usize,
    snapshots_after_crash: usize,
    tmp_after_crash: usize,
    resumed_watermark: Option<u64>,
}

/// Runs the crash matrix over `seeds` at `subnets` subnets, a durable cut
/// every 8, in `scratch(tag)`. Per seed: an uninterrupted baseline, then
/// per crash point a child that dies there and a `--resume` child over
/// what it left. The cuts of this stream persist as a full (8), six
/// deltas (16 ..= 56), a full that opens a new chain (64) and a delta on
/// it (72). A snapshot reaches disk one cut behind the stages at most, so
/// a kill just past the second cut (16) resumes from 8 or 16; a torn
/// write resumes from the cut before it: the second write (a delta) from
/// 8, the third (a delta, under keep 2) from 16, the eighth (the full)
/// from 56, and the ninth, under keep 2 the first write into a recycled
/// file (cut 8's: chain 8 ..= 56 is no longer retained), from 64. Every
/// cell must crash, resume inside that bound, leave no tmp file after
/// the resume, and print the baseline's RESULT line. A failing cell keeps
/// its directory.
fn crash_matrix(tag: &str, subnets: u64, seeds: &[u64]) -> Vec<Cell> {
    const INTERVAL: u64 = 8;
    let root = scratch(tag);
    let files = |dir: &Path, suffix: &str| {
        let entries = std::fs::read_dir(dir).unwrap().filter_map(Result::ok);
        let names = entries.map(|e| e.file_name().to_string_lossy().into_owned());
        names.filter(|n| n.ends_with(suffix)).count()
    };
    let mut points = vec![
        (
            CrashPoint::KillAt(2, 2 * INTERVAL + 1),
            DEFAULT_KEEP,
            (8, 16),
        ),
        (CrashPoint::MidWrite(2), DEFAULT_KEEP, (8, 8)),
    ];
    if 3 * INTERVAL < subnets {
        points.push((CrashPoint::MidWrite(3), 2, (16, 16)));
    }
    if 9 * INTERVAL < subnets {
        points.push((CrashPoint::MidWrite(8), 2, (56, 56)));
        points.push((CrashPoint::MidWrite(9), 2, (64, 64)));
    }
    let mut cells = Vec::new();
    for seed in seeds {
        let (seed_arg, n_arg) = (seed.to_string(), subnets.to_string());
        let run = ["--seed", &seed_arg, "--subnets", &n_arg];
        let baseline = result_of(&train_cmd(&run));
        for &(point, keep, (lo, hi)) in &points {
            let dir = root.join(format!("s{seed}-{point:?}"));
            std::fs::create_dir_all(&dir).unwrap();
            let (dir_arg, keep_arg) = (dir.to_str().unwrap(), keep.to_string());
            let durable = ["--checkpoint-dir", dir_arg, "--checkpoint-interval", "8"];
            let durable = [&run[..], &durable, &["--checkpoint-keep", &keep_arg]].concat();
            let mut crash = train(&durable);
            match point {
                CrashPoint::KillAt(stage, subnet) => {
                    crash.args(["--kill-at", &format!("{stage}:{subnet}")])
                }
                CrashPoint::MidWrite(n) => crash.env("NASPIPE_CRASH_WRITE", n.to_string()),
            };
            let crashed = crash.output().expect("naspipe child spawns");
            let left = (files(&dir, ".snap"), files(&dir, ".tmp"));
            let resumed = train_cmd(&[&durable[..], &["--resume"]].concat());
            let cell = Cell {
                seed: *seed,
                point,
                keep,
                snapshots_after_crash: left.0,
                tmp_after_crash: left.1,
                resumed_watermark: resumed_from(&resumed),
            };
            assert!(!crashed.status.success(), "{cell:?} did not crash");
            assert!(
                cell.resumed_watermark.is_some_and(|w| lo <= w && w <= hi),
                "{cell:?} resumed outside {lo}..={hi}"
            );
            assert_eq!(files(&dir, ".tmp"), 0, "{cell:?}: the resume left a tmp");
            assert_eq!(result_line(&resumed).as_ref(), Some(&baseline), "{cell:?}");
            let _ = std::fs::remove_dir_all(&dir);
            cells.push(cell);
        }
    }
    let _ = std::fs::remove_dir(&root);
    cells
}

/// The seeded matrix: kill at a forward task and mid-snapshot-write,
/// across seeds, each cell resumed cross-process and compared bitwise.
#[test]
fn kill_and_resume_matrix_is_bitwise_identical() {
    let cells = crash_matrix("matrix", 24, &[5, 13]);
    let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
    assert_eq!(
        seeds,
        [5, 5, 13, 13],
        "24 subnets hold two cuts: two points"
    );
    for c in &cells {
        // The writer runs at most one cut behind: a kill just past the
        // second cut resumes from it or from the first, never from
        // nothing; a write torn in half resumes from the one before it.
        let allowed: &[u64] = match c.point {
            CrashPoint::KillAt(..) => &[8, 16],
            CrashPoint::MidWrite(_) => &[8],
        };
        assert!(
            c.resumed_watermark.is_some_and(|w| allowed.contains(&w)),
            "cell {c:?} resumed outside {allowed:?}"
        );
    }
}

/// With nine cuts in the stream the matrix tears, under keep 2, the third
/// write (a delta: cuts 8 and 16 are left, no file was recycled), the
/// eighth (the full that opens a new chain: the whole old chain is left)
/// and the ninth, which renamed the first cut's file to its tmp name: the
/// old chain's other files and the new full are left complete, the torn
/// tmp is the orphan, and the resume comes from exactly the cut before,
/// removes the orphan and matches the baseline bitwise. Seeds 5, 13 and
/// 21, five cells each.
#[test]
fn torn_write_into_a_recycled_file_resumes_from_the_cut_before() {
    let cells = crash_matrix("recycled", 80, &[5, 13, 21]);
    assert_eq!(cells.len(), 15, "80 subnets reach a ninth cut");
    for (write, left, resumed) in [(3, 2, 16), (8, 7, 56), (9, 7, 64)] {
        let torn = cells
            .iter()
            .filter(|c| c.point == CrashPoint::MidWrite(write));
        let torn: Vec<&Cell> = torn.collect();
        let seeds: Vec<u64> = torn.iter().map(|c| c.seed).collect();
        assert_eq!(seeds, [5, 13, 21], "{cells:?}");
        for cell in torn {
            assert_eq!(cell.keep, 2);
            assert_eq!(
                (cell.snapshots_after_crash, cell.tmp_after_crash),
                (left, 1),
                "write {write} left the cuts before it and one torn tmp: {cell:?}"
            );
            assert_eq!(cell.resumed_watermark, Some(resumed), "{cell:?}");
        }
    }
}

/// `--resume` on an empty directory is a fresh start, not an error, and
/// still matches the uninterrupted run bitwise.
#[test]
fn resume_with_no_snapshot_starts_fresh() {
    let dir = scratch("fresh");
    let baseline = result_of(&train_cmd(&[]));
    let out = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
        "--resume",
    ]);
    assert!(out.status.success(), "fresh resume run failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no usable snapshot"),
        "expected a fresh-start notice, got:\n{stderr}"
    );
    assert_eq!(result_of(&out), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting the newest snapshot makes the loader *fall back* to the
/// previous good cut — never silently resume corrupt state, never panic.
#[test]
fn corrupt_newest_snapshot_falls_back_to_previous_cut() {
    let dir = scratch("fallback");
    let baseline = result_of(&train_cmd(&[]));
    let full = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
    ]);
    assert!(full.status.success(), "checkpointed run failed");
    assert_eq!(result_of(&full), baseline, "persistence changed the result");

    // Corrupt the newest snapshot (flip one byte in the middle).
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    snaps.sort();
    assert!(
        snaps.len() >= 2,
        "expected at least two cuts, got {snaps:?}"
    );
    let newest = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest, &bytes).unwrap();

    let resumed = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
        "--resume",
    ]);
    assert!(resumed.status.success(), "fallback resume run failed");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("skipping snapshot"),
        "expected the corrupt file to be skipped:\n{stderr}"
    );
    let older = resumed_from(&resumed).expect("resumed from the older cut");
    assert_eq!(older, 8, "must fall back to the previous good watermark");
    assert_eq!(result_of(&resumed), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With *every* snapshot corrupt, the loader reports a typed
/// `NoSnapshot` error naming each rejected file — and a `--resume` run
/// degrades to a fresh start rather than resuming garbage or crashing.
#[test]
fn all_snapshots_corrupt_is_a_typed_fresh_start() {
    let dir = scratch("allcorrupt");
    let baseline = result_of(&train_cmd(&[]));
    let full = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
    ]);
    assert!(full.status.success());
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "snap") {
            let mut bytes = std::fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&p, &bytes).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 2);

    // Library-level: the loader returns the typed error, no panic.
    match load_latest_in(&dir, None) {
        Err(DurableError::NoSnapshot { skipped, .. }) => {
            assert_eq!(skipped.len(), corrupted, "every file named with a reason");
        }
        other => panic!("expected NoSnapshot, got {other:?}"),
    }

    // Process-level: --resume degrades to a fresh start, bitwise equal.
    let resumed = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
        "--resume",
    ]);
    assert!(resumed.status.success(), "all-corrupt resume must not die");
    assert_eq!(result_of(&resumed), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the golden `thr_recover_*` replay cases pass unchanged
/// with durability enabled — persistence is observably zero-effect on
/// results, loss streams, and the recovery schedule.
#[test]
fn golden_thr_recover_cases_pass_with_durability_enabled() {
    let corpus = replay_gate::load_corpus(Path::new("traces/golden"), Some("thr_recover"))
        .expect("golden corpus loads");
    assert!(!corpus.is_empty(), "thr_recover cases must exist");
    for case in corpus {
        let spec = &case.spec;
        let space = SearchSpace::uniform(spec.domain, spec.blocks, spec.choices);
        let dir = scratch(&format!("golden-{}", spec.name));
        let run = RunSpec {
            durable: Some(DurableOptions::new(&dir)),
            ..spec.run_spec(&space)
        }
        .run()
        .expect("golden case trains with durability on");

        assert_eq!(
            run.result.final_hash, case.expect.final_hash,
            "{}: durability changed the final hash",
            spec.name
        );
        assert_eq!(run.result.losses.len() as u64, case.expect.loss_count);
        assert_eq!(
            loss_digest(&run.result.losses),
            case.expect.loss_digest,
            "{}: durability changed the loss stream",
            spec.name
        );
        let got = ScheduleDigest {
            restarts: run.recovery.restarts,
            resume_watermarks: run.recovery.resume_watermarks.clone(),
            faults_fired: run.recovery.faults_fired.len() as u64,
        };
        assert_eq!(
            Some(got),
            case.expect.schedule,
            "{}: durability changed the recovery schedule",
            spec.name
        );
        // And the persistence actually happened: cuts are on disk.
        assert!(
            load_latest_in(&dir, None).is_ok(),
            "{}: no snapshot persisted",
            spec.name
        );
        let persists: u64 = run.report.stages.iter().map(|s| s.durable_persists).sum();
        assert!(persists > 0, "{}: persist counter never moved", spec.name);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `--resume` over a directory of previous-format files is the warned
/// fresh start: one skip notice per file naming the version, then the
/// run trains from scratch to the uninterrupted result.
#[test]
fn resume_over_v1_snapshots_is_a_warned_fresh_start() {
    let dir = scratch("v1dir");
    for watermark in [8, 16] {
        std::fs::copy(
            "tests/data/ckpt-v1.snap",
            dir.join(snapshot_file_name(watermark)),
        )
        .unwrap();
    }
    let baseline = result_of(&train_cmd(&[]));
    let out = train_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-interval",
        "8",
        "--resume",
    ]);
    assert!(out.status.success(), "resume over v1 files failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let skips = stderr.lines().filter(|l| l.contains("skipping snapshot"));
    let skips: Vec<&str> = skips.collect();
    assert_eq!(skips.len(), 2, "one notice per file:\n{stderr}");
    assert!(
        skips.iter().all(|l| l.contains("other than v2")),
        "{stderr}"
    );
    assert!(stderr.contains("no usable snapshot"), "{stderr}");
    assert_eq!(result_of(&out), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One small two-stage threaded run with durable cuts every 4 subnets
/// and a journal the test reads back.
struct WriterRun {
    space: SearchSpace,
    cfg: TrainConfig,
    state: Arc<OpsState>,
    dir: PathBuf,
}

impl WriterRun {
    fn new(tag: &str) -> Self {
        WriterRun {
            space: SearchSpace::from_id(SpaceId::NlpC2),
            cfg: TrainConfig {
                dim: 16,
                rows: 8,
                seed: 3,
                ..TrainConfig::default()
            },
            state: Arc::new(OpsState::new(
                RunMeta::new("threaded", 2).seed(3),
                Arc::new(TelemetryHub::new(2, 0)),
                Arc::new(Journal::new(0)),
            )),
            dir: scratch(tag),
        }
    }

    fn spec(&self, subnets: usize, keep: usize, fault_plan: FaultPlan) -> RunSpec<'_> {
        RunSpec {
            recovery: RecoveryOptions {
                fault_plan,
                checkpoint_interval: 4,
                max_restarts: 1,
                recv_timeout_ms: None,
            },
            durable: Some(DurableOptions {
                dir: self.dir.clone(),
                keep,
                resume: false,
            }),
            diagnostics: DiagnosticsOptions::default().with_ops(Arc::clone(&self.state)),
            ..RunSpec::new(
                &self.space,
                UniformSampler::new(&self.space, 3).take_subnets(subnets),
                self.cfg,
                2,
            )
        }
    }

    /// `(kind, watermark)` of the journal's cut and persist lines.
    fn journal(&self) -> Vec<(String, u64)> {
        let events = self.state.journal().snapshot();
        let durable = events.iter().filter(|e| {
            matches!(
                e.kind.as_str(),
                "checkpoint-cut" | "durable-persist" | "durable-persist-failed"
            )
        });
        durable
            .map(|e| (e.kind.clone(), e.fields[0].1.parse().unwrap()))
            .collect()
    }

    /// Every file name in the snapshot directory, sorted.
    fn files(&self) -> Vec<String> {
        let entries = std::fs::read_dir(&self.dir).unwrap();
        let names = entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
        let mut names: Vec<String> = names.collect();
        names.sort();
        names
    }
}

/// When `run()` returns, the writer has been drained and joined: the
/// directory holds exactly the newest `keep` cuts and the files their
/// chains need, and nothing else, every
/// cut was counted once, and in the journal each persist follows its own
/// cut with watermarks strictly increasing.
#[test]
fn returned_run_left_exactly_the_retained_cuts_in_journal_order() {
    let w = WriterRun::new("writer-ok");
    let spec = w.spec(30, 3, FaultPlan::new());
    let seq = sequential_training(&w.space, &spec.subnets, &w.cfg);
    let run = spec.run().expect("clean run");
    assert_eq!(run.result.final_hash, seq.final_hash);

    // 30 subnets, a cut every 4: 4, 8, .., 28 — seven cuts, a full and
    // six deltas on it. Three are kept, 20, 24 and 28, and their chains
    // need every file.
    let kept = [4, 8, 12, 16, 20, 24, 28].map(snapshot_file_name);
    assert_eq!(w.files(), kept, "no tmp, no manifest, nothing pruned late");
    let newest = load_latest_in(&w.dir, None).expect("newest cut loads");
    assert_eq!(newest.checkpoint.watermark, 28);
    assert!(newest.skipped.is_empty());
    let persists: u64 = run.report.stages.iter().map(|s| s.durable_persists).sum();
    assert_eq!(persists, 7, "every cut counted once, on the writer");

    let journal = w.journal();
    let persisted = journal.iter().filter(|(kind, _)| kind == "durable-persist");
    let persisted: Vec<u64> = persisted.map(|&(_, w)| w).collect();
    assert_eq!(persisted, [4, 8, 12, 16, 20, 24, 28]);
    for w in persisted {
        let at = |kind: &str| journal.iter().position(|e| *e == (kind.to_string(), w));
        assert!(
            at("checkpoint-cut") < at("durable-persist"),
            "persist {w} precedes its cut: {journal:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// A run that gives up returns with the writer joined too: the cut handed
/// over before the failure is on disk, and nothing is written afterwards.
#[test]
fn failed_run_writes_nothing_after_it_returns() {
    let w = WriterRun::new("writer-failed");
    let plan =
        FaultPlan::new()
            .panic_on(1, 6, TaskKind::Forward)
            .panic_on(0, 7, TaskKind::Backward);
    let err = w
        .spec(30, 3, plan)
        .run()
        .err()
        .expect("two panics, one restart")
        .error;
    assert!(matches!(err, TrainError::RecoveryExhausted { .. }), "{err}");
    let listing = |w: &WriterRun| -> Vec<(u64, String)> {
        let len = |name: &String| std::fs::metadata(w.dir.join(name)).unwrap().len();
        w.files()
            .into_iter()
            .map(|name| (len(&name), name))
            .collect()
    };
    let at_return = listing(&w);
    assert_eq!(w.files(), [snapshot_file_name(4)], "cut 4 was handed over");
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(listing(&w), at_return);
    let journal = w.state.journal().snapshot();
    assert_eq!(journal.last().map(|e| e.kind.as_str()), Some("run-failed"));
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// A restart resumes from a cut while the checkpoint store still holds an
/// older spare it must not refill: a fatal fault past the third cut rolls
/// back to 12 with cut 8's snapshots spare, so the next cuts are fresh
/// clones until a spare at or above 12 exists, then refills. Every cut the
/// run completed — all kept on disk here, each loaded through its chain —
/// is the sequential state over its prefix (debug builds also compare
/// every refill with the live slice inside the worker).
#[test]
fn cuts_across_a_restart_are_the_sequential_state_over_their_prefix() {
    let w = WriterRun::new("writer-restart");
    let plan = FaultPlan::new().panic_on(1, 13, TaskKind::Forward);
    let spec = w.spec(30, 64, plan);
    let subnets = spec.subnets.clone();
    let run = spec.run().expect("recovers from one panic");
    assert_eq!(run.recovery.resume_watermarks, [12]);
    let seq = sequential_training(&w.space, &subnets, &w.cfg);
    assert_eq!(run.result.final_hash, seq.final_hash);
    let cuts: Vec<u64> = (4..30).step_by(4).collect();
    assert_eq!(
        w.files(),
        cuts.iter()
            .map(|&c| snapshot_file_name(c))
            .collect::<Vec<_>>()
    );
    for watermark in cuts {
        let cut = load_cut_in(&w.dir, watermark, None).expect("a complete cut");
        let slices = cut.stages.into_iter().flat_map(|s| s.params);
        let at_cut = ParamStore::from_blocks(w.cfg.dim, slices.collect());
        let prefix = &subnets[..watermark as usize];
        let want = sequential_training(&w.space, prefix, &w.cfg).final_hash;
        assert_eq!(at_cut.bitwise_hash(), want, "cut {watermark}");
    }
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// A snapshot directory that goes away mid-run (here: replaced by a plain
/// file as soon as the first cut is on disk — permission bits do not bind
/// root in CI containers) degrades durability, not training: the later
/// persists are `durable-persist-failed` notices and the final hash is
/// the sequential one.
#[test]
fn vanished_snapshot_directory_degrades_to_failed_persists() {
    let w = WriterRun::new("writer-vanish");
    let spec = w.spec(400, 3, FaultPlan::new());
    let seq = sequential_training(&w.space, &spec.subnets, &w.cfg);
    let dir = w.dir.clone();
    let saboteur = std::thread::spawn(move || {
        while !dir.join(snapshot_file_name(4)).exists() {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // The writer may be creating the next tmp file: retry until the
        // directory is really gone and a file has its name.
        while std::fs::remove_dir_all(&dir).is_err() || std::fs::write(&dir, b"").is_err() {}
    });
    let run = spec.run().expect("training does not depend on the disk");
    saboteur.join().unwrap();
    assert_eq!(run.result.final_hash, seq.final_hash);
    assert!(w.dir.is_file());

    let journal = w.journal();
    let count = |kind: &str| journal.iter().filter(|(k, _)| k == kind).count() as u64;
    assert!(count("durable-persist-failed") > 0, "{journal:?}");
    assert_eq!(
        count("durable-persist") + count("durable-persist-failed"),
        99,
        "every cut was attempted once"
    );
    let persists: u64 = run.report.stages.iter().map(|s| s.durable_persists).sum();
    assert_eq!(persists, count("durable-persist"), "only successes count");
    let _ = std::fs::remove_file(&w.dir);
}

//! Cross-process crash-recovery tests: real `naspipe` child processes
//! killed at seeded points (including mid-checkpoint-write), resumed
//! from the durable snapshot directory, and held to **bitwise identity**
//! with an uninterrupted run — plus the zero-effect guarantee that
//! durability never changes what a run computes.
//!
//! The child binary is the workspace `naspipe` CLI, located via
//! `CARGO_BIN_EXE_naspipe` (cargo builds it for integration tests).

use naspipe::core::durable::{load_latest_in, DurableError};
use naspipe::core::replay_gate::{self, loss_digest, ScheduleDigest};
use naspipe::core::runtime::{DurableOptions, RunSpec};
use naspipe::supernet::space::{SearchSpace, SpaceId};
use naspipe_bench::experiments::crash;
use std::path::{Path, PathBuf};
use std::process::Command;

fn naspipe_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_naspipe"))
}

/// A fresh scratch directory under the target tmp space, per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("naspipe-crashtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

fn train_cmd(args: &[&str]) -> std::process::Output {
    Command::new(naspipe_bin())
        .args([
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
        .env_remove("NASPIPE_CRASH_WRITE")
        .output()
        .expect("naspipe child spawns")
}

fn result_of(out: &std::process::Output) -> crash::ChildResult {
    parse_maybe(out).unwrap_or_else(|| {
        panic!(
            "child printed no RESULT line.\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn parse_maybe(out: &std::process::Output) -> Option<crash::ChildResult> {
    crash::parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// The full seeded matrix: kill at a forward task and mid-snapshot-write,
/// across seeds, each cell resumed cross-process and compared bitwise.
#[test]
fn kill_and_resume_matrix_is_bitwise_identical() {
    let r = crash::run_with_bin(naspipe_bin(), SpaceId::NlpC2, 24, 8, &[5, 13], &[3]);
    for c in &r.cells {
        assert!(c.crashed, "cell {c:?} did not crash");
        assert!(
            c.resumed_watermark.is_some(),
            "cell {c:?} did not resume from a snapshot"
        );
    }
    assert!(r.all_ok(), "matrix failed:\n{}", crash::render(&r));
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
    let older = crash::parse_resume_watermark(&stderr).expect("resumed from the older cut");
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

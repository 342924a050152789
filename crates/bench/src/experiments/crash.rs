//! Crash-injection harness: kill a real training *process* at seeded
//! points — including in the middle of a durable checkpoint write — then
//! resume a fresh process from disk and demand bitwise identity.
//!
//! This is the cross-process counterpart of [`crate::experiments::faults`]:
//! there the supervisor recovers threads inside one process; here the
//! whole process dies (`std::process::abort`, exit by signal) and the
//! only surviving state is the durable snapshot directory. For every
//! cell of a seed × stages × crash-point matrix the harness runs three
//! child `naspipe train --engine threaded` processes:
//!
//! 1. **baseline** — uninterrupted, no persistence; records the final
//!    parameter hash and loss digest from the machine-readable `RESULT`
//!    line;
//! 2. **crash** — with `--checkpoint-dir`, killed either at a specific
//!    `(stage, subnet)` forward task (`--kill-at`) or mid-way through
//!    the n-th snapshot write (`NASPIPE_CRASH_WRITE=n`), and expected to
//!    die abnormally;
//! 3. **resume** — same configuration plus `--resume`, expected to load
//!    the newest valid snapshot and finish with a `RESULT` line bitwise
//!    equal to the baseline's.
//!
//! Snapshots are written by the run's writer thread, one cut behind the
//! stages at most: cut `W` is on disk before cut `W + interval` is handed
//! over. So the kill lands just past the *second* cut and must resume from
//! that cut or the one before — never from nothing — while the n-th write
//! torn in half must resume from exactly cut `n - 1`. When the stream has a
//! third cut, one more cell tears the third write under keep 2: that write
//! overwrites the first cut's file in place (the cut retention drops), so
//! the torn file is a recycled one, and the resume must still come from
//! exactly the second cut.

use naspipe_core::durable::DEFAULT_KEEP;
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Where the child process is made to die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort when `stage` starts `subnet`'s forward task.
    KillAt {
        /// The stage whose worker pulls the trigger.
        stage: u32,
        /// The trigger subnet's sequence id.
        subnet: u64,
    },
    /// Abort half-way through writing the n-th durable snapshot,
    /// leaving a torn temp file behind (the atomic-rename protocol must
    /// make this invisible to the resume).
    MidWrite {
        /// Which persist call (1-based) dies mid-write.
        persist_call: u64,
    },
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPoint::KillAt { stage, subnet } => write!(f, "kill-at {stage}:SN{subnet}"),
            CrashPoint::MidWrite { persist_call } => write!(f, "mid-write #{persist_call}"),
        }
    }
}

/// The parsed machine-readable `RESULT` line of one child run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildResult {
    /// The final parameter store's fingerprint (`TrainResult::final_hash`).
    pub hash: u64,
    /// FNV-1a digest over the `(step, loss)` sequence.
    pub loss_digest: u64,
    /// Number of per-subnet losses recorded.
    pub losses: u64,
}

/// Parses `RESULT hash=<hex> loss_digest=<hex> losses=<n>` from a child's
/// stdout.
pub fn parse_result(stdout: &str) -> Option<ChildResult> {
    let line = stdout.lines().find(|l| l.starts_with("RESULT "))?;
    let mut hash = None;
    let mut loss_digest = None;
    let mut losses = None;
    for field in line.split_whitespace().skip(1) {
        let (key, value) = field.split_once('=')?;
        match key {
            "hash" => hash = u64::from_str_radix(value, 16).ok(),
            "loss_digest" => loss_digest = u64::from_str_radix(value, 16).ok(),
            "losses" => losses = value.parse().ok(),
            _ => {}
        }
    }
    Some(ChildResult {
        hash: hash?,
        loss_digest: loss_digest?,
        losses: losses?,
    })
}

/// Parses the resumed watermark from a child's
/// `naspipe: resuming from watermark W (path)` stderr line.
pub fn parse_resume_watermark(stderr: &str) -> Option<u64> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("naspipe: resuming from watermark "))?;
    line.trim_start_matches("naspipe: resuming from watermark ")
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One cell of the crash matrix with its hard verdicts.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// Sampler/training seed of the cell.
    pub seed: u64,
    /// Stage threads in the child runs.
    pub gpus: u32,
    /// Where the crash run was made to die.
    pub point: CrashPoint,
    /// Complete cuts the crash and resume runs keep on disk.
    pub keep: usize,
    /// Whether the crash run died abnormally as demanded.
    pub crashed: bool,
    /// Complete snapshots on disk after the crash.
    pub snapshots_after_crash: usize,
    /// Orphaned tmp files on disk after the crash (a torn write's).
    pub tmp_after_crash: usize,
    /// Tmp files on disk after the resume run, which must have removed
    /// the orphans when it opened the directory.
    pub tmp_after_resume: usize,
    /// Watermark the resume run reported loading, if any.
    pub resumed_watermark: Option<u64>,
    /// The watermarks (lowest, highest) the durability contract allows
    /// the resume to load after this crash point.
    pub resume_bound: (u64, u64),
    /// The uninterrupted baseline's result.
    pub baseline: Option<ChildResult>,
    /// The resumed run's result.
    pub resumed: Option<ChildResult>,
}

impl CrashCell {
    /// Hard verdict: the child crashed, the resume loaded a cut inside
    /// [`resume_bound`](Self::resume_bound), left no tmp file and
    /// finished, and its hash/loss digest are bitwise equal to the
    /// uninterrupted baseline.
    pub fn ok(&self) -> bool {
        let (lo, hi) = self.resume_bound;
        self.crashed
            && self.resumed_watermark.is_some_and(|w| lo <= w && w <= hi)
            && self.tmp_after_resume == 0
            && match (self.baseline, self.resumed) {
                (Some(b), Some(r)) => b == r,
                _ => false,
            }
    }
}

/// The whole matrix run.
#[derive(Debug, Clone)]
pub struct CrashRun {
    /// Space trained by every cell.
    pub space: SpaceId,
    /// Subnets per child run.
    pub num_subnets: u64,
    /// Durable checkpoint interval in subnets.
    pub interval: u64,
    /// One cell per seed × gpus × crash point.
    pub cells: Vec<CrashCell>,
}

impl CrashRun {
    /// Whether every cell's hard verdict holds.
    pub fn all_ok(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(CrashCell::ok)
    }
}

/// Locates the `naspipe` CLI binary: `NASPIPE_BIN` when set, else next
/// to the current executable (cargo puts workspace binaries in the same
/// `target/<profile>` directory; test binaries one level down in
/// `deps/`).
pub fn naspipe_bin() -> PathBuf {
    if let Ok(p) = std::env::var("NASPIPE_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current exe is queryable");
    let mut dir = exe.parent().expect("exe has a parent").to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join(format!("naspipe{}", std::env::consts::EXE_SUFFIX))
}

#[derive(Clone, Copy)]
struct ChildSpec<'a> {
    space: SpaceId,
    gpus: u32,
    subnets: u64,
    seed: u64,
    interval: u64,
    keep: usize,
    checkpoint_dir: Option<&'a Path>,
    resume: bool,
    kill_at: Option<(u32, u64)>,
    crash_write: Option<u64>,
}

fn run_child(bin: &Path, spec: &ChildSpec<'_>) -> std::io::Result<Output> {
    let mut cmd = Command::new(bin);
    cmd.arg("train")
        .arg("--space")
        .arg(spec.space.to_string())
        .arg("--engine")
        .arg("threaded")
        .arg("--gpus")
        .arg(spec.gpus.to_string())
        .arg("--subnets")
        .arg(spec.subnets.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--threads")
        .arg("2");
    if let Some(dir) = spec.checkpoint_dir {
        cmd.arg("--checkpoint-dir")
            .arg(dir)
            .arg("--checkpoint-interval")
            .arg(spec.interval.to_string())
            .arg("--checkpoint-keep")
            .arg(spec.keep.to_string());
    }
    if spec.resume {
        cmd.arg("--resume");
    }
    if let Some((stage, subnet)) = spec.kill_at {
        cmd.arg("--kill-at").arg(format!("{stage}:{subnet}"));
    }
    match spec.crash_write {
        Some(n) => cmd.env("NASPIPE_CRASH_WRITE", n.to_string()),
        None => cmd.env_remove("NASPIPE_CRASH_WRITE"),
    };
    cmd.output()
}

/// The files in `dir` whose name passes `is`.
fn count_files(dir: &Path, is: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| is(&e.file_name().to_string_lossy()))
                .count()
        })
        .unwrap_or(0)
}

fn is_snapshot(name: &str) -> bool {
    name.starts_with("ckpt-") && name.ends_with(".snap")
}

fn is_tmp(name: &str) -> bool {
    name.ends_with(".tmp")
}

/// Runs the crash matrix: for every `seed` × `gpus` × crash point, a
/// baseline, a crashed, and a resumed child process, with bitwise
/// verdicts per cell. The recycled torn write is a crash point only when
/// `n` subnets reach past a third cut (`3 * interval`). Snapshot
/// directories live under a fresh subdirectory of the system temp dir and
/// are removed when the cell's verdict holds (kept for inspection when it
/// fails).
///
/// # Panics
///
/// Panics if the `naspipe` binary cannot be spawned (it must be built
/// into the same target directory, or named via `NASPIPE_BIN`), or if
/// `n` subnets do not reach past the second cut (`2 * interval + 1`).
pub fn run(id: SpaceId, n: u64, interval: u64, seeds: &[u64], gpus_list: &[u32]) -> CrashRun {
    run_with_bin(&naspipe_bin(), id, n, interval, seeds, gpus_list)
}

/// [`run`] against an explicitly named `naspipe` binary (e.g. the
/// `CARGO_BIN_EXE_naspipe` path inside integration tests).
pub fn run_with_bin(
    bin: &Path,
    id: SpaceId,
    n: u64,
    interval: u64,
    seeds: &[u64],
    gpus_list: &[u32],
) -> CrashRun {
    let space = SearchSpace::from_id(id);
    assert!(space.num_blocks() > 0, "space resolves");
    let mut cells = Vec::new();
    let scratch = std::env::temp_dir().join(format!("naspipe-crash-{}", std::process::id()));

    for &seed in seeds {
        for &gpus in gpus_list {
            let baseline_spec = ChildSpec {
                space: id,
                gpus,
                subnets: n,
                seed,
                interval,
                keep: DEFAULT_KEEP,
                checkpoint_dir: None,
                resume: false,
                kill_at: None,
                crash_write: None,
            };
            let baseline_out = run_child(bin, &baseline_spec)
                .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
            let baseline = parse_result(&String::from_utf8_lossy(&baseline_out.stdout));

            // Kill the last stage just past the second cut (handing that
            // one over waited for the first to be on disk), and die
            // mid-way through the second snapshot; with a third cut, also
            // mid-way through the third under keep 2, which recycles the
            // first cut's file.
            assert!(2 * interval + 1 < n, "the kill point needs two cuts");
            let mut points = vec![
                (
                    CrashPoint::KillAt {
                        stage: gpus - 1,
                        subnet: 2 * interval + 1,
                    },
                    DEFAULT_KEEP,
                    (interval, 2 * interval),
                ),
                (
                    CrashPoint::MidWrite { persist_call: 2 },
                    DEFAULT_KEEP,
                    (interval, interval),
                ),
            ];
            if 3 * interval < n {
                let recycled = CrashPoint::MidWrite { persist_call: 3 };
                points.push((recycled, 2, (2 * interval, 2 * interval)));
            }
            for (point, keep, resume_bound) in points {
                let dir = scratch.join(format!("s{seed}-g{gpus}-{point}").replace([' ', ':'], "_"));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).expect("scratch dir creatable");

                let (kill_at, crash_write) = match point {
                    CrashPoint::KillAt { stage, subnet } => (Some((stage, subnet)), None),
                    CrashPoint::MidWrite { persist_call } => (None, Some(persist_call)),
                };
                let crash_spec = ChildSpec {
                    keep,
                    checkpoint_dir: Some(&dir),
                    kill_at,
                    crash_write,
                    ..baseline_spec
                };
                let crash_out = run_child(bin, &crash_spec)
                    .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
                let crashed = !crash_out.status.success();
                let snapshots_after_crash = count_files(&dir, is_snapshot);
                let tmp_after_crash = count_files(&dir, is_tmp);

                let resume_spec = ChildSpec {
                    keep,
                    checkpoint_dir: Some(&dir),
                    resume: true,
                    ..baseline_spec
                };
                let resume_out = run_child(bin, &resume_spec)
                    .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
                let resumed = parse_result(&String::from_utf8_lossy(&resume_out.stdout));
                let resumed_watermark =
                    parse_resume_watermark(&String::from_utf8_lossy(&resume_out.stderr));

                let cell = CrashCell {
                    seed,
                    gpus,
                    point,
                    keep,
                    crashed,
                    snapshots_after_crash,
                    tmp_after_crash,
                    tmp_after_resume: count_files(&dir, is_tmp),
                    resumed_watermark,
                    resume_bound,
                    baseline,
                    resumed,
                };
                if cell.ok() {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                cells.push(cell);
            }
        }
    }
    let _ = std::fs::remove_dir(&scratch);
    CrashRun {
        space: id,
        num_subnets: n,
        interval,
        cells,
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders the matrix as a per-cell table with hard verdicts.
pub fn render(run: &CrashRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} crash matrix: {} subnets per run, durable interval {}, {} cell(s)",
        run.space,
        run.num_subnets,
        run.interval,
        run.cells.len()
    );
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:<18} {:<4} {:<8} {:<6} {:<5} {:<8} {:<18} {:<18} verdict",
        "seed",
        "stages",
        "crash point",
        "keep",
        "crashed",
        "snaps",
        "tmp",
        "resume@",
        "baseline hash",
        "resumed hash"
    );
    for c in &run.cells {
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:<18} {:<4} {:<8} {:<6} {:<5} {:<8} {:<18} {:<18} {}",
            c.seed,
            c.gpus,
            c.point.to_string(),
            c.keep,
            c.crashed,
            c.snapshots_after_crash,
            format!("{}>{}", c.tmp_after_crash, c.tmp_after_resume),
            c.resumed_watermark
                .map(|w| w.to_string())
                .unwrap_or_else(|| "-".into()),
            c.baseline
                .map(|r| format!("{:016x}", r.hash))
                .unwrap_or_else(|| "-".into()),
            c.resumed
                .map(|r| format!("{:016x}", r.hash))
                .unwrap_or_else(|| "-".into()),
            verdict(c.ok()),
        );
    }
    let _ = writeln!(
        out,
        "all cells bitwise equal after cross-process resume: {}",
        verdict(run.all_ok())
    );
    out
}

/// Renders the matrix as a JSON object for CI artifacts.
pub fn render_json(run: &CrashRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"space\":\"{}\",\"num_subnets\":{},\"interval\":{},\"all_ok\":{},\"cells\":[",
        run.space,
        run.num_subnets,
        run.interval,
        run.all_ok()
    );
    for (i, c) in run.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seed\":{},\"gpus\":{},\"point\":\"{}\",\"keep\":{},\"crashed\":{},\
             \"snapshots_after_crash\":{},\"tmp_after_crash\":{},\
             \"tmp_after_resume\":{},\"resumed_watermark\":{},\
             \"baseline_hash\":{},\"resumed_hash\":{},\"ok\":{}}}",
            c.seed,
            c.gpus,
            c.point,
            c.keep,
            c.crashed,
            c.snapshots_after_crash,
            c.tmp_after_crash,
            c.tmp_after_resume,
            c.resumed_watermark
                .map(|w| w.to_string())
                .unwrap_or_else(|| "null".into()),
            c.baseline
                .map(|r| format!("\"{:016x}\"", r.hash))
                .unwrap_or_else(|| "null".into()),
            c.resumed
                .map(|r| format!("\"{:016x}\"", r.hash))
                .unwrap_or_else(|| "null".into()),
            c.ok(),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses() {
        let stdout = "threaded CSP on NLP.c2 x 3 stages: 24 subnets trained\n\
                      RESULT hash=701e0f31c6c01bfc loss_digest=38f5d52f6609eafe losses=24\n";
        let r = parse_result(stdout).unwrap();
        assert_eq!(r.hash, 0x701e_0f31_c6c0_1bfc);
        assert_eq!(r.loss_digest, 0x38f5_d52f_6609_eafe);
        assert_eq!(r.losses, 24);
        assert_eq!(parse_result("no result here"), None);
        assert_eq!(parse_result("RESULT hash=xyz loss_digest=0 losses=1"), None);
    }

    #[test]
    fn resume_watermark_parses() {
        let stderr = "naspipe: resuming from watermark 16 (ck/ckpt-16.snap)\n";
        assert_eq!(parse_resume_watermark(stderr), Some(16));
        assert_eq!(parse_resume_watermark("naspipe: starting fresh"), None);
    }

    #[test]
    fn crash_points_render_distinctly() {
        let a = CrashPoint::KillAt {
            stage: 2,
            subnet: 13,
        };
        let b = CrashPoint::MidWrite { persist_call: 2 };
        assert_eq!(a.to_string(), "kill-at 2:SN13");
        assert_eq!(b.to_string(), "mid-write #2");
    }

    #[test]
    fn empty_matrix_is_not_ok() {
        let r = CrashRun {
            space: SpaceId::NlpC2,
            num_subnets: 24,
            interval: 8,
            cells: Vec::new(),
        };
        assert!(!r.all_ok(), "vacuous success must not count");
    }
}

//! The golden-trace replay gate: zero-flake behavioral CI.
//!
//! `bench-check` gates *performance*; nothing gated *behavior* — a
//! scheduler change that silently reordered CSP admissions or moved a
//! checkpoint cut would merge green as long as throughput held. This
//! module turns the artifacts the engines already record (transcripts,
//! spans, recovery schedules) into a regression harness in the style of
//! Verdict's replay engine: a committed corpus of **golden traces**
//! under `traces/golden/`, re-executed against the current scheduler on
//! every run and validated policy-by-policy:
//!
//! * **transcript equality** (DES cases) — the regenerated schedule must
//!   be bitwise identical to the golden transcript; any divergence is
//!   diffed down to the *first divergent task* (file line, stage,
//!   subnet, kind, time);
//! * **CSP order** — the task stream (golden and fresh) goes through the
//!   one offline audit, [`verify_csp_order_parts`]: every layer's reads
//!   and writes, each placed where it takes effect, must interleave as
//!   sequential execution does. It never consults the scheduler, so a
//!   corrupted golden or a contract-breaking scheduler is caught even in
//!   release builds where the engines' own debug checker is off;
//! * **checkpoint-cut consistency** (threaded cases) — the recovery
//!   schedule must match the golden exactly and satisfy the cut laws
//!   (watermarks on interval boundaries, within range, non-decreasing);
//! * **threaded task order** (threaded cases) — the golden's last
//!   incarnation is replayed on one thread through today's stage worker
//!   ([`RunSpec::replay`]), each stage handed the messages the golden
//!   says it had taken; every stage must pick the golden's task, in its
//!   order, and train the golden's final hash;
//! * **critical-path attribution** (DES cases) — the per-class
//!   attribution sums (compute/fetch/causal-stall/bubble) and their
//!   makespan identity must reproduce exactly;
//! * **training identity** — final parameter hash and the bitwise loss
//!   digest must reproduce; multi-engine cases additionally require the
//!   threaded runtime to agree with the DES replay.
//!
//! Two modes: **strict** (any divergence fails — the CI gate) and
//! **lenient** (divergences are reported, exit stays zero — for audits
//! and intentional schedule-change reviews). An intentional change is
//! blessed with `naspipe replay-check --bless`, which re-executes every
//! case spec and rewrites the corpus.
//!
//! Every golden file is self-contained: the case spec (engine, space,
//! seeds, fault plan) travels with the expectations, so a golden can be
//! regenerated — or audited by hand — without any out-of-band state.

use crate::config::PipelineConfig;
use crate::fault::FaultPlan;
use crate::pipeline::{SimSpec, TaskRecord};
use crate::repro::verify_csp_order_parts;
use crate::runtime::{RecoveryOptions, ReplayDivergence, RunSpec};
use crate::scheduler::DEFAULT_WINDOW;
use crate::task::TaskKind;
use crate::train::{replay_training, TrainConfig, TrainResult};
use crate::transcript::Transcript;
use naspipe_obs::critical_path;
use naspipe_supernet::layer::Domain;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SKIP_CHOICE};
use naspipe_tensor::hash::{fnv1a, FNV_OFFSET};
use std::fmt;
use std::path::Path;

/// First line of every golden-trace file.
pub(crate) const GOLDEN_HEADER: &str = "naspipe-golden v1";

/// Where the committed corpus lives, relative to the repo root.
pub const DEFAULT_CORPUS_DIR: &str = "traces/golden";

/// How a golden case is validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Any divergence fails the gate (CI).
    Strict,
    /// Divergences are reported but do not fail (audit).
    Lenient,
}

/// Which engine(s) a case re-executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseEngine {
    /// Discrete-event CSP pipeline (fully deterministic, bitwise
    /// transcript comparison).
    Des,
    /// Supervised threaded runtime (wall-clock times vary run to run, so
    /// comparison is on the timing-independent projections).
    Threaded,
    /// Both engines on one exploration stream; their training results
    /// must agree bitwise.
    Both,
}

impl CaseEngine {
    fn as_str(self) -> &'static str {
        match self {
            CaseEngine::Des => "des",
            CaseEngine::Threaded => "threaded",
            CaseEngine::Both => "both",
        }
    }

    /// Whether the case produces a deterministic DES transcript.
    fn has_des(self) -> bool {
        matches!(self, CaseEngine::Des | CaseEngine::Both)
    }

    /// Whether the case drives the threaded runtime.
    fn has_threaded(self) -> bool {
        matches!(self, CaseEngine::Threaded | CaseEngine::Both)
    }
}

/// Seeded fault scenario of a threaded recovery case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of [`FaultPlan::seeded`].
    pub seed: u64,
    /// Fatal (panic) faults to inject.
    pub fatal: u32,
    /// Transient channel faults to inject.
    pub transient: u32,
}

/// Everything needed to regenerate a golden run from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Corpus-unique case name (also the file stem).
    pub name: String,
    /// Engine(s) driven.
    pub engine: CaseEngine,
    /// Search-space domain (`uniform` space of `blocks x choices`).
    pub domain: Domain,
    /// Choice blocks in the space.
    pub blocks: u32,
    /// Candidates per block.
    pub choices: u32,
    /// Pipeline stages / stage threads.
    pub gpus: u32,
    /// Subnets explored.
    pub subnets: u64,
    /// Sampler + training seed.
    pub seed: u64,
    /// DES micro-batch rows (`0` = per-subnet adaptive).
    pub batch: u32,
    /// Threaded in-flight window (`0` = runtime default).
    pub window: u64,
    /// Checkpoint every this many subnets (`0` = off).
    pub checkpoint_interval: u64,
    /// Injected failure scenario, if any.
    pub faults: Option<FaultSpec>,
}

impl CaseSpec {
    fn space(&self) -> SearchSpace {
        SearchSpace::uniform(self.domain, self.blocks, self.choices)
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            seed: self.seed,
            ..TrainConfig::default()
        }
    }

    /// The threaded run this case describes, over its `space`.
    pub fn run_spec<'a>(&self, space: &'a SearchSpace) -> RunSpec<'a> {
        let stream = UniformSampler::new(space, self.seed).take_subnets(self.subnets as usize);
        RunSpec {
            // The golden format writes the default window as 0.
            window: if self.window == 0 {
                DEFAULT_WINDOW
            } else {
                self.window
            },
            recovery: self.recovery_options(),
            ..RunSpec::new(space, stream, self.train_config(), self.gpus)
        }
    }

    fn recovery_options(&self) -> RecoveryOptions {
        RecoveryOptions {
            fault_plan: self.faults.map_or_else(FaultPlan::new, |f| {
                FaultPlan::seeded(
                    f.seed,
                    self.gpus,
                    self.subnets,
                    self.checkpoint_interval,
                    f.fatal,
                    f.transient,
                )
            }),
            checkpoint_interval: self.checkpoint_interval,
            max_restarts: 8,
            recv_timeout_ms: Some(30_000),
        }
    }
}

/// Critical-path attribution sums of a DES run (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathTotals {
    /// Path length == makespan.
    pub total: u64,
    /// Compute segments.
    pub compute: u64,
    /// Fetch spans + fetch-gated waits.
    pub fetch: u64,
    /// CSP shared-layer stalls.
    pub causal_stall: u64,
    /// Pipeline bubbles.
    pub bubble: u64,
}

impl fmt::Display for PathTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {}us = compute {} + fetch {} + causal-stall {} + bubble {}",
            self.total, self.compute, self.fetch, self.causal_stall, self.bubble
        )
    }
}

/// The timing-independent projection of a supervised run's recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleDigest {
    /// Full-pipeline restarts.
    pub restarts: u32,
    /// Watermark each restart resumed from, in order.
    pub resume_watermarks: Vec<u64>,
    /// Faults that fired.
    pub faults_fired: u64,
}

impl fmt::Display for ScheduleDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let marks = if self.resume_watermarks.is_empty() {
            "-".to_string()
        } else {
            self.resume_watermarks
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "{} restart(s) resuming at [{marks}], {} fault(s) fired",
            self.restarts, self.faults_fired
        )
    }
}

/// The recorded expectations of one golden case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectations {
    /// The final parameter store's fingerprint (`TrainResult::final_hash`).
    pub final_hash: u64,
    /// Number of per-subnet losses recorded.
    pub loss_count: u64,
    /// FNV-1a digest over the `(step, loss bits)` sequence.
    pub loss_digest: u64,
    /// Forward records (reads) the CSP audit checked in the golden stream.
    pub csp_admissions: u64,
    /// Backward records (writes) the CSP audit checked in the golden
    /// stream.
    pub csp_writes: u64,
    /// DES critical-path attribution sums.
    pub critical_path: Option<PathTotals>,
    /// Threaded recovery schedule.
    pub schedule: Option<ScheduleDigest>,
}

/// One parsed golden-trace file.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    /// How to regenerate the run.
    pub spec: CaseSpec,
    /// What it must reproduce.
    pub expect: Expectations,
    /// The recorded schedule (parsed).
    pub transcript: Transcript,
    /// The recorded schedule, verbatim — the bitwise comparison side.
    pub transcript_text: String,
    /// 1-based file line of the embedded `naspipe-transcript v1` header,
    /// so divergence reports can name exact golden-file lines.
    pub transcript_line: usize,
}

impl GoldenCase {
    /// The golden-file line holding task `index` of the embedded
    /// transcript (header + subnet lines precede the tasks, and a counted
    /// task's `taken` line follows it).
    pub(crate) fn task_line(&self, index: usize) -> usize {
        let t = &self.transcript;
        let counted = index.saturating_sub(t.tasks.len().saturating_sub(t.taken.len()));
        self.transcript_line + t.subnets.len() + 1 + index + counted
    }
}

/// One behavioral divergence between a golden trace and the current
/// scheduler. `Display` is the user-facing diff line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The regenerated schedule departs from the golden transcript; this
    /// names the first task where they differ.
    FirstDivergentTask {
        /// Index into the task stream (0-based).
        index: usize,
        /// 1-based line in the golden file.
        line: usize,
        /// The golden task (`None` = fresh run has extra tasks).
        golden: Option<String>,
        /// The fresh task (`None` = fresh run ended early).
        fresh: Option<String>,
    },
    /// The exploration stream itself differs (sampler change).
    SubnetStream {
        /// Index into the subnet stream.
        index: usize,
        /// Golden subnet line, if any.
        golden: Option<String>,
        /// Fresh subnet line, if any.
        fresh: Option<String>,
    },
    /// A recorded scalar expectation no longer reproduces.
    Metric {
        /// Which expectation.
        name: &'static str,
        /// Recorded value.
        golden: String,
        /// Re-executed value.
        fresh: String,
    },
    /// A policy check failed outright (CSP order, cut laws, or the
    /// engine refusing to run at all).
    Policy {
        /// Which check.
        check: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::FirstDivergentTask {
                index,
                line,
                golden,
                fresh,
            } => {
                writeln!(f, "first divergent task: #{index} (golden line {line})")?;
                writeln!(
                    f,
                    "    golden: {}",
                    golden
                        .as_deref()
                        .unwrap_or("<no task — fresh run has extra tasks>")
                )?;
                write!(
                    f,
                    "    fresh : {}",
                    fresh
                        .as_deref()
                        .unwrap_or("<no task — fresh run ended early>")
                )
            }
            Divergence::SubnetStream {
                index,
                golden,
                fresh,
            } => {
                writeln!(f, "subnet stream diverges at #{index}:")?;
                writeln!(f, "    golden: {}", golden.as_deref().unwrap_or("<none>"))?;
                write!(f, "    fresh : {}", fresh.as_deref().unwrap_or("<none>"))
            }
            Divergence::Metric {
                name,
                golden,
                fresh,
            } => write!(f, "{name} diverged: golden {golden}, fresh {fresh}"),
            Divergence::Policy { check, detail } => write!(f, "{check} check failed: {detail}"),
        }
    }
}

/// Verdict for one golden case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case name.
    pub name: String,
    /// Checks that passed.
    pub checks_passed: u32,
    /// Divergences found (empty = the case reproduces).
    pub divergences: Vec<Divergence>,
}

impl CaseReport {
    /// Whether the case reproduced with no divergence.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Verdict for a whole corpus run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-case verdicts, in corpus (file-name) order.
    pub cases: Vec<CaseReport>,
}

impl GateReport {
    /// Whether every case reproduced.
    pub fn ok(&self) -> bool {
        self.cases.iter().all(CaseReport::ok)
    }

    /// Total divergences across the corpus.
    pub fn divergences(&self) -> usize {
        self.cases.iter().map(|c| c.divergences.len()).sum()
    }

    /// Renders the human-readable gate report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for case in &self.cases {
            if case.ok() {
                let _ = writeln!(
                    out,
                    "case {}: OK ({} checks)",
                    case.name, case.checks_passed
                );
            } else {
                let _ = writeln!(
                    out,
                    "case {}: DIVERGED ({} checks passed, {} divergence(s))",
                    case.name,
                    case.checks_passed,
                    case.divergences.len()
                );
                for d in &case.divergences {
                    let _ = writeln!(out, "  {d}");
                }
            }
        }
        let diverged = self.cases.iter().filter(|c| !c.ok()).count();
        let _ = writeln!(
            out,
            "replay-check: {} case(s), {} ok, {} diverged",
            self.cases.len(),
            self.cases.len() - diverged,
            diverged
        );
        out
    }

    /// The `replay-check --explain` analysis of the report: each
    /// divergence under its case, whole (a divergent task keeps its
    /// `golden:` and `fresh :` lines), then the verdict and what to do.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("doctor: replay-check failure analysis\n");
        for case in &self.cases {
            for d in &case.divergences {
                let d = d.to_string().replace('\n', "\n  ");
                let _ = writeln!(out, "  case {}: {d}", case.name);
            }
        }
        if self.ok() {
            out.push_str("  (no case diverged)\n");
        }
        out.push_str(
            "dominant delta: determinism (behavioral divergence, not throughput)\n\
             hint: the `golden:` and `fresh :` lines show where the two runs part, and a \
             failed check names its rule - re-record with `naspipe replay-check --bless` \
             only if the behavior change is intended\n",
        );
        out
    }
}

/// Bitwise digest of a loss sequence: order, steps, and exact f32 bits
/// (byte-wise FNV-1a, the family whose word-wise sibling fingerprints
/// the parameter store).
pub fn loss_digest(losses: &[(u64, f32)]) -> u64 {
    losses.iter().fold(FNV_OFFSET, |h, &(step, loss)| {
        fnv1a(fnv1a(h, &step.to_le_bytes()), &loss.to_bits().to_le_bytes())
    })
}

/// The one offline CSP audit of a recorded stream
/// ([`verify_csp_order_parts`]) and, when it holds, the forward and
/// backward records it checked.
fn audit_csp(t: &Transcript) -> Result<(u64, u64), String> {
    verify_csp_order_parts(&t.subnets, &t.tasks).map_err(|(layer, order)| {
        format!(
            "layer {layer} accessed {} (not sequential)",
            order.notation()
        )
    })?;
    let forwards = t.tasks.iter().filter(|t| t.kind == TaskKind::Forward);
    let forwards = forwards.count() as u64;
    Ok((forwards, t.tasks.len() as u64 - forwards))
}

/// Renders a task for divergence reports: kind, subnet, stage, blocks,
/// and time interval.
fn render_task(t: &TaskRecord) -> String {
    let kind = match t.kind {
        TaskKind::Forward => "F",
        TaskKind::Backward => "B",
    };
    format!(
        "{kind} {} stage {} blocks [{},{}) {}us..{}us",
        t.subnet,
        t.stage.0,
        t.blocks.start,
        t.blocks.end,
        t.start.as_us(),
        t.end.as_us()
    )
}

fn render_subnet(s: &Subnet) -> String {
    format!("{} choices {:?}", s.seq_id(), s.choices())
}

/// Structural diff of two transcripts: the subnet-stream divergence or
/// the first divergent task, if any.
pub(crate) fn diff_transcripts(golden: &GoldenCase, fresh: &Transcript) -> Option<Divergence> {
    let g = &golden.transcript;
    let n = g.subnets.len().max(fresh.subnets.len());
    for i in 0..n {
        let gs = g.subnets.get(i);
        let fs = fresh.subnets.get(i);
        if gs != fs {
            return Some(Divergence::SubnetStream {
                index: i,
                golden: gs.map(render_subnet),
                fresh: fs.map(render_subnet),
            });
        }
    }
    let n = g.tasks.len().max(fresh.tasks.len());
    for i in 0..n {
        let gt = g.tasks.get(i);
        let ft = fresh.tasks.get(i);
        if gt != ft {
            return Some(Divergence::FirstDivergentTask {
                index: i,
                line: golden.task_line(i),
                golden: gt.map(render_task),
                fresh: ft.map(render_task),
            });
        }
    }
    None
}

// ---------------------------------------------------------------------
// Golden-file format
// ---------------------------------------------------------------------

fn domain_str(d: Domain) -> &'static str {
    match d {
        Domain::Nlp => "nlp",
        Domain::Cv => "cv",
    }
}

/// Renders a golden case in the v1 file format.
pub fn render_golden(case: &GoldenCase) -> String {
    render_meta(case) + &case.transcript_text
}

/// The lines of a golden file before its embedded transcript.
fn render_meta(case: &GoldenCase) -> String {
    use std::fmt::Write as _;
    let s = &case.spec;
    let e = &case.expect;
    let mut out = String::new();
    let _ = writeln!(out, "{GOLDEN_HEADER}");
    let _ = writeln!(out, "case {}", s.name);
    let _ = writeln!(out, "engine {}", s.engine.as_str());
    let _ = writeln!(
        out,
        "space {} {} {}",
        domain_str(s.domain),
        s.blocks,
        s.choices
    );
    let _ = writeln!(out, "gpus {}", s.gpus);
    let _ = writeln!(out, "subnets {}", s.subnets);
    let _ = writeln!(out, "seed {}", s.seed);
    let _ = writeln!(out, "batch {}", s.batch);
    let _ = writeln!(out, "window {}", s.window);
    let _ = writeln!(out, "ckpt-interval {}", s.checkpoint_interval);
    match s.faults {
        Some(f) => {
            let _ = writeln!(out, "faults {} {} {}", f.seed, f.fatal, f.transient);
        }
        None => {
            let _ = writeln!(out, "faults none");
        }
    }
    let _ = writeln!(out, "expect final-hash {:016x}", e.final_hash);
    let _ = writeln!(out, "expect losses {} {:016x}", e.loss_count, e.loss_digest);
    let _ = writeln!(
        out,
        "expect csp-events {} {}",
        e.csp_admissions, e.csp_writes
    );
    if let Some(p) = e.critical_path {
        let _ = writeln!(
            out,
            "expect critical-path {} {} {} {} {}",
            p.total, p.compute, p.fetch, p.causal_stall, p.bubble
        );
    }
    if let Some(sched) = &e.schedule {
        let marks = if sched.resume_watermarks.is_empty() {
            "-".to_string()
        } else {
            sched
                .resume_watermarks
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "expect schedule {} {} {}",
            sched.restarts, marks, sched.faults_fired
        );
    }
    let _ = writeln!(out, "transcript");
    out
}

/// Parses a golden-trace file.
///
/// # Errors
///
/// Returns a message naming the offending line for malformed files.
pub fn parse_golden(text: &str) -> Result<GoldenCase, String> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first().copied() != Some(GOLDEN_HEADER) {
        return Err(format!("line 1: missing '{GOLDEN_HEADER}' header"));
    }
    let mut name = None;
    let mut engine = None;
    let mut domain = None;
    let mut blocks = 0u32;
    let mut choices = 0u32;
    let mut gpus = None;
    let mut subnets = None;
    let mut seed = None;
    let mut batch = 0u32;
    let mut window = 0u64;
    let mut ckpt = 0u64;
    let mut faults = None;
    let mut final_hash = None;
    let mut losses = None;
    let mut csp_events = None;
    let mut path_totals = None;
    let mut schedule = None;
    let mut transcript_line = None;

    let parse_u64 = |lineno: usize, field: &str, tok: Option<&str>| -> Result<u64, String> {
        tok.and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("line {lineno}: bad {field}"))
    };
    // Range-checked before narrowing: `gpus 4294967298` is not 2 GPUs.
    let parse_u32 = |lineno: usize, field: &str, tok: Option<&str>| -> Result<u32, String> {
        let wide = parse_u64(lineno, field, tok)?;
        u32::try_from(wide).map_err(|_| format!("line {lineno}: {field} {wide} out of range"))
    };
    let parse_hex = |lineno: usize, field: &str, tok: Option<&str>| -> Result<u64, String> {
        tok.and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| format!("line {lineno}: bad {field} (want hex)"))
    };

    for (i, line) in lines.iter().enumerate().skip(1) {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let mut p = line.split_whitespace();
        match p.next() {
            Some("case") => name = Some(p.next().ok_or(format!("line {lineno}: bad case"))?.into()),
            Some("engine") => {
                engine = Some(match p.next() {
                    Some("des") => CaseEngine::Des,
                    Some("threaded") => CaseEngine::Threaded,
                    Some("both") => CaseEngine::Both,
                    other => {
                        return Err(format!(
                            "line {lineno}: unknown engine {other:?} (des|threaded|both)"
                        ))
                    }
                });
            }
            Some("space") => {
                domain = Some(match p.next() {
                    Some("nlp") => Domain::Nlp,
                    Some("cv") => Domain::Cv,
                    other => return Err(format!("line {lineno}: unknown domain {other:?}")),
                });
                blocks = parse_u32(lineno, "space blocks", p.next())?;
                choices = parse_u32(lineno, "space choices", p.next())?;
            }
            Some("gpus") => gpus = Some(parse_u32(lineno, "gpus", p.next())?),
            Some("subnets") => subnets = Some(parse_u64(lineno, "subnets", p.next())?),
            Some("seed") => seed = Some(parse_u64(lineno, "seed", p.next())?),
            Some("batch") => batch = parse_u32(lineno, "batch", p.next())?,
            Some("window") => window = parse_u64(lineno, "window", p.next())?,
            Some("ckpt-interval") => ckpt = parse_u64(lineno, "ckpt-interval", p.next())?,
            Some("faults") => match p.next() {
                Some("none") => faults = None,
                tok => {
                    faults = Some(FaultSpec {
                        seed: parse_u64(lineno, "fault seed", tok)?,
                        fatal: parse_u32(lineno, "fatal count", p.next())?,
                        transient: parse_u32(lineno, "transient count", p.next())?,
                    });
                }
            },
            Some("expect") => match p.next() {
                Some("final-hash") => {
                    final_hash = Some(parse_hex(lineno, "final-hash", p.next())?);
                }
                Some("losses") => {
                    losses = Some((
                        parse_u64(lineno, "loss count", p.next())?,
                        parse_hex(lineno, "loss digest", p.next())?,
                    ));
                }
                Some("csp-events") => {
                    csp_events = Some((
                        parse_u64(lineno, "csp admissions", p.next())?,
                        parse_u64(lineno, "csp writes", p.next())?,
                    ));
                }
                Some("critical-path") => {
                    path_totals = Some(PathTotals {
                        total: parse_u64(lineno, "path total", p.next())?,
                        compute: parse_u64(lineno, "path compute", p.next())?,
                        fetch: parse_u64(lineno, "path fetch", p.next())?,
                        causal_stall: parse_u64(lineno, "path causal-stall", p.next())?,
                        bubble: parse_u64(lineno, "path bubble", p.next())?,
                    });
                }
                Some("schedule") => {
                    let restarts = parse_u32(lineno, "restarts", p.next())?;
                    let marks = p
                        .next()
                        .ok_or(format!("line {lineno}: missing resume watermarks"))?;
                    let resume_watermarks = if marks == "-" {
                        Vec::new()
                    } else {
                        marks
                            .split(',')
                            .map(|m| {
                                m.parse()
                                    .map_err(|_| format!("line {lineno}: bad watermark '{m}'"))
                            })
                            .collect::<Result<_, _>>()?
                    };
                    schedule = Some(ScheduleDigest {
                        restarts,
                        resume_watermarks,
                        faults_fired: parse_u64(lineno, "faults fired", p.next())?,
                    });
                }
                other => return Err(format!("line {lineno}: unknown expectation {other:?}")),
            },
            Some("transcript") => {
                transcript_line = Some(lineno + 1);
                break;
            }
            Some(other) => return Err(format!("line {lineno}: unknown field '{other}'")),
            None => {}
        }
    }

    let transcript_line = transcript_line.ok_or("missing 'transcript' section".to_string())?;
    let transcript_text: String = lines[transcript_line - 1..]
        .iter()
        .flat_map(|l| [l, "\n"])
        .collect();
    let transcript =
        Transcript::read(&mut transcript_text.as_bytes()).map_err(|e| format!("embedded {e}"))?;

    let domain = domain.ok_or("missing 'space'")?;
    // The audit and the replays index a subnet's choices by the blocks
    // its tasks name: the transcript must fit the case's space.
    let line_of = |record: &str, n: usize| {
        let records = lines.iter().enumerate().skip(transcript_line);
        let mut at = records.filter(|(_, l)| l.split_whitespace().next() == Some(record));
        at.nth(n).map_or(transcript_line, |(i, _)| i + 1)
    };
    for (n, s) in transcript.subnets.iter().enumerate() {
        let fits = |&c: &u32| c == SKIP_CHOICE || c < choices;
        if s.choices().len() != blocks as usize || !s.choices().iter().all(fits) {
            return Err(format!(
                "line {}: subnet {} does not fit space {blocks} blocks x {choices} choices",
                line_of("subnet", n),
                s.seq_id()
            ));
        }
    }
    let past_the_end = |t: &TaskRecord| t.blocks.end > blocks as usize;
    if let Some(n) = transcript.tasks.iter().position(past_the_end) {
        return Err(format!(
            "line {}: task blocks end past the space's {blocks} blocks",
            line_of("task", n)
        ));
    }

    let engine = engine.ok_or("missing 'engine'")?;
    let (loss_count, loss_dig) = losses.ok_or("missing 'expect losses'")?;
    let (csp_admissions, csp_writes) = csp_events.ok_or("missing 'expect csp-events'")?;
    if engine.has_des() && path_totals.is_none() {
        return Err("DES case missing 'expect critical-path'".into());
    }
    if engine.has_threaded() && schedule.is_none() {
        return Err("threaded case missing 'expect schedule'".into());
    }
    Ok(GoldenCase {
        spec: CaseSpec {
            name: name.ok_or("missing 'case'")?,
            engine,
            domain,
            blocks,
            choices,
            gpus: gpus.ok_or("missing 'gpus'")?,
            subnets: subnets.ok_or("missing 'subnets'")?,
            seed: seed.ok_or("missing 'seed'")?,
            batch,
            window,
            checkpoint_interval: ckpt,
            faults,
        },
        expect: Expectations {
            final_hash: final_hash.ok_or("missing 'expect final-hash'")?,
            loss_count,
            loss_digest: loss_dig,
            csp_admissions,
            csp_writes,
            critical_path: path_totals,
            schedule,
        },
        transcript,
        transcript_text,
        transcript_line,
    })
}

// ---------------------------------------------------------------------
// Re-execution
// ---------------------------------------------------------------------

/// A DES re-execution's comparable artifacts.
struct DesRun {
    transcript: Transcript,
    transcript_text: String,
    result: TrainResult,
    path: PathTotals,
}

fn execute_des(spec: &CaseSpec) -> Result<DesRun, String> {
    let space = spec.space();
    // The default stream is `spec.stream`: same seed, same length.
    let cfg = PipelineConfig::naspipe(spec.gpus, spec.subnets)
        .with_batch(spec.batch)
        .with_seed(spec.seed);
    let out = SimSpec::new(&space, &cfg)
        .run()
        .map_err(|e| format!("DES engine refused the case: {e}"))?;
    let transcript = Transcript::from_outcome(&out);
    let transcript_text = transcript.to_text();
    let result = replay_training(&space, &out, &spec.train_config());
    let cp = critical_path(&out.spans);
    Ok(DesRun {
        transcript,
        transcript_text,
        result,
        path: PathTotals {
            total: cp.total_us,
            compute: cp.compute_us,
            fetch: cp.fetch_us,
            causal_stall: cp.causal_stall_us,
            bubble: cp.bubble_us,
        },
    })
}

/// A threaded re-execution's comparable artifacts.
struct ThreadedRun {
    transcript: Transcript,
    result: TrainResult,
    schedule: ScheduleDigest,
}

fn execute_threaded(spec: &CaseSpec) -> Result<ThreadedRun, String> {
    let space = spec.space();
    let run = spec
        .run_spec(&space)
        .run()
        .map_err(|e| format!("threaded engine failed: {e}"))?;
    let sched = run.recovery.schedule();
    Ok(ThreadedRun {
        transcript: Transcript::from(&run),
        result: run.result,
        schedule: ScheduleDigest {
            restarts: sched.restarts,
            resume_watermarks: sched.resume_watermarks,
            faults_fired: sched.faults.len() as u64,
        },
    })
}

/// Checkpoint-cut laws every recovery schedule must satisfy: watermarks
/// land on interval boundaries, stay within the subnet range, and never
/// regress (a later restart resumes from an equal-or-newer cut).
fn check_cut_laws(spec: &CaseSpec, sched: &ScheduleDigest) -> Result<(), String> {
    let interval = spec.checkpoint_interval;
    let mut prev = 0u64;
    for &w in &sched.resume_watermarks {
        if interval > 0 && !w.is_multiple_of(interval) {
            return Err(format!(
                "resume watermark {w} is not a multiple of the checkpoint interval {interval}"
            ));
        }
        if w > spec.subnets {
            return Err(format!(
                "resume watermark {w} exceeds the {}-subnet run",
                spec.subnets
            ));
        }
        if w < prev {
            return Err(format!(
                "resume watermarks regress: {w} after {prev} — a restart resumed from an older cut"
            ));
        }
        prev = w;
    }
    if sched.restarts as usize != sched.resume_watermarks.len() {
        return Err(format!(
            "{} restart(s) but {} resume watermark(s)",
            sched.restarts,
            sched.resume_watermarks.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

struct CaseRun {
    passed: u32,
    divergences: Vec<Divergence>,
}

impl CaseRun {
    fn metric<T: PartialEq + fmt::Display>(&mut self, name: &'static str, golden: T, fresh: T) {
        if golden == fresh {
            self.passed += 1;
        } else {
            self.divergences.push(Divergence::Metric {
                name,
                golden: golden.to_string(),
                fresh: fresh.to_string(),
            });
        }
    }

    fn metric_hex(&mut self, name: &'static str, golden: u64, fresh: u64) {
        self.metric(name, format!("{golden:016x}"), format!("{fresh:016x}"));
    }

    fn policy(&mut self, check: &'static str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(detail) => self.divergences.push(Divergence::Policy { check, detail }),
        }
    }
}

/// Whether a threaded run trained exactly the DES replay's parameters;
/// if not, the first layer (in block/choice order) where they differ.
fn engines_agree(des: &TrainResult, thr: &TrainResult) -> Result<(), String> {
    match des.store.first_divergence(&thr.store) {
        None => Ok(()),
        Some(layer) => Err(format!(
            "parameters first differ at layer {layer}: des {:016x}, threaded {:016x}",
            des.final_hash, thr.final_hash
        )),
    }
}

/// Re-executes one golden case against the current scheduler and
/// validates every recorded policy.
pub fn run_case(case: &GoldenCase) -> CaseReport {
    let mut run = CaseRun {
        passed: 0,
        divergences: Vec::new(),
    };
    let spec = &case.spec;
    let expect = &case.expect;

    // The golden stream itself must obey the CSP contract — this is the
    // line of defence against hand-edited or bit-rotted goldens.
    match audit_csp(&case.transcript) {
        Ok((forwards, backwards)) => {
            run.passed += 1;
            run.metric("csp-admissions", expect.csp_admissions, forwards);
            run.metric("csp-writes", expect.csp_writes, backwards);
        }
        Err(detail) => run.divergences.push(Divergence::Policy {
            check: "golden-sequential-order",
            detail,
        }),
    }

    // A `both` case's DES result, for the engines' agreement check.
    let mut des_result = None;
    if spec.engine.has_des() {
        match execute_des(spec) {
            Ok(des) => {
                // Bitwise transcript equality, diffed structurally on
                // mismatch so the first divergent task is named.
                if des.transcript_text == case.transcript_text {
                    run.passed += 1;
                } else {
                    match diff_transcripts(case, &des.transcript) {
                        Some(d) => run.divergences.push(d),
                        None => run.divergences.push(Divergence::Metric {
                            name: "transcript-text",
                            golden: format!("{} bytes", case.transcript_text.len()),
                            fresh: format!("{} bytes", des.transcript_text.len()),
                        }),
                    }
                }
                run.metric_hex("final-hash", expect.final_hash, des.result.final_hash);
                run.metric(
                    "loss-count",
                    expect.loss_count,
                    des.result.losses.len() as u64,
                );
                run.metric_hex(
                    "loss-digest",
                    expect.loss_digest,
                    loss_digest(&des.result.losses),
                );
                if let Some(golden_path) = expect.critical_path {
                    run.metric("critical-path", golden_path, des.path);
                }
                run.policy(
                    "critical-path-identity",
                    if des.path.compute + des.path.fetch + des.path.causal_stall + des.path.bubble
                        == des.path.total
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "attribution does not sum to the makespan: {}",
                            des.path
                        ))
                    },
                );
                des_result = Some(des.result);
            }
            Err(detail) => run.divergences.push(Divergence::Policy {
                check: "des-execution",
                detail,
            }),
        }
    }

    if spec.engine.has_threaded() {
        match execute_threaded(spec) {
            Ok(thr) => {
                // Wall-clock times vary run to run, so the threaded
                // comparison is on timing-independent projections.
                run.metric_hex(
                    "threaded-final-hash",
                    expect.final_hash,
                    thr.result.final_hash,
                );
                if let Some(des) = &des_result {
                    run.policy("engine-agreement", engines_agree(des, &thr.result));
                }
                if spec.engine == CaseEngine::Threaded {
                    run.metric(
                        "loss-count",
                        expect.loss_count,
                        thr.result.losses.len() as u64,
                    );
                    run.metric_hex(
                        "loss-digest",
                        expect.loss_digest,
                        loss_digest(&thr.result.losses),
                    );
                }
                if let Some(golden_sched) = &expect.schedule {
                    run.metric(
                        "recovery-schedule",
                        golden_sched.clone(),
                        thr.schedule.clone(),
                    );
                }
                run.policy("checkpoint-cut", check_cut_laws(spec, &thr.schedule));
                run.policy(
                    "fresh-sequential-order",
                    audit_csp(&thr.transcript).map(|_| ()),
                );
            }
            Err(detail) => run.divergences.push(Divergence::Policy {
                check: "threaded-execution",
                detail,
            }),
        }
    }
    if spec.engine == CaseEngine::Threaded {
        replay_threaded(case, &mut run);
    }

    CaseReport {
        name: spec.name.clone(),
        checks_passed: run.passed,
        divergences: run.divergences,
    }
}

/// Replays a threaded golden through today's stage worker: its task
/// order and final hash must be the golden's.
fn replay_threaded(case: &GoldenCase, run: &mut CaseRun) {
    let space = case.spec.space();
    let t = &case.transcript;
    match case.spec.run_spec(&space).replay(t) {
        Ok(replayed) => {
            run.passed += 1;
            let (golden, fresh) = (case.expect.final_hash, replayed.final_hash);
            run.metric_hex("replayed-final-hash", golden, fresh);
        }
        Err(ReplayDivergence::Task { index, ran }) => {
            let golden = t.tasks.get(index);
            let fresh = match (ran, golden) {
                (Some((kind, y)), Some(g)) => {
                    let kind = if kind == TaskKind::Forward { "F" } else { "B" };
                    format!("{kind} {y} stage {} (replayed)", g.stage.0)
                }
                _ => "<nothing picked with the golden's messages>".to_string(),
            };
            run.divergences.push(Divergence::FirstDivergentTask {
                index,
                line: case.task_line(index),
                golden: golden.map(render_task),
                fresh: Some(fresh),
            });
        }
        Err(other) => run.divergences.push(Divergence::Policy {
            check: "threaded-replay",
            detail: other.to_string(),
        }),
    }
}

/// Loads every `.golden` file under `dir` (sorted by file name),
/// optionally filtered by a substring of the case name.
///
/// # Errors
///
/// I/O and parse failures are hard errors in both modes — an unreadable
/// corpus must never pass silently.
pub fn load_corpus(dir: &Path, filter: Option<&str>) -> Result<Vec<GoldenCase>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "golden"))
        .collect();
    files.sort();
    let mut cases = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = parse_golden(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if filter.is_none_or(|f| case.spec.name.contains(f)) {
            cases.push(case);
        }
    }
    if cases.is_empty() {
        return Err(format!(
            "no golden cases{} under {} (run `naspipe replay-check --bless` to record the corpus)",
            filter
                .map(|f| format!(" matching '{f}'"))
                .unwrap_or_default(),
            dir.display()
        ));
    }
    Ok(cases)
}

/// Runs the replay gate over a corpus directory.
///
/// # Errors
///
/// Only corpus I/O and parse failures error; behavioral divergences are
/// reported inside the [`GateReport`].
pub fn run_gate(dir: &Path, filter: Option<&str>) -> Result<GateReport, String> {
    let cases = load_corpus(dir, filter)?;
    Ok(GateReport {
        cases: cases.iter().map(run_case).collect(),
    })
}

/// Regenerates a golden case from its spec by re-executing the engines
/// and recording fresh expectations.
///
/// # Errors
///
/// Fails when an engine cannot run the spec, or when a `both` case's
/// engines disagree (such a spec must never be blessed).
pub fn regenerate(spec: &CaseSpec) -> Result<GoldenCase, String> {
    let (transcript, transcript_text, result, path, schedule) = match spec.engine {
        CaseEngine::Des => {
            let des = execute_des(spec)?;
            (
                des.transcript,
                des.transcript_text,
                des.result,
                Some(des.path),
                None,
            )
        }
        CaseEngine::Threaded => {
            let thr = execute_threaded(spec)?;
            let text = thr.transcript.to_text();
            (thr.transcript, text, thr.result, None, Some(thr.schedule))
        }
        CaseEngine::Both => {
            let des = execute_des(spec)?;
            let thr = execute_threaded(spec)?;
            engines_agree(&des.result, &thr.result)
                .map_err(|e| format!("engines disagree on {}: {e}", spec.name))?;
            (
                des.transcript,
                des.transcript_text,
                des.result,
                Some(des.path),
                Some(thr.schedule),
            )
        }
    };
    let (csp_admissions, csp_writes) = audit_csp(&transcript)
        .map_err(|e| format!("{}: refusing to bless a CSP-violating run: {e}", spec.name))?;
    let mut case = GoldenCase {
        expect: Expectations {
            final_hash: result.final_hash,
            loss_count: result.losses.len() as u64,
            loss_digest: loss_digest(&result.losses),
            csp_admissions,
            csp_writes,
            critical_path: path,
            schedule,
        },
        spec: spec.clone(),
        transcript_line: 0,
        transcript,
        transcript_text,
    };
    // The transcript's header is the line after the metadata, so
    // task_line() is exact for freshly blessed cases.
    case.transcript_line = render_meta(&case).lines().count() + 1;
    Ok(case)
}

/// The built-in corpus: CSP DES runs at several seeds and stage counts,
/// threaded fault-recovery runs, and a multi-engine agreement case.
/// Sized so the whole gate stays in CI-smoke territory.
pub(crate) fn default_corpus() -> Vec<CaseSpec> {
    let des = |name: &str, domain, blocks, choices, gpus, subnets, seed, batch| CaseSpec {
        name: name.into(),
        engine: CaseEngine::Des,
        domain,
        blocks,
        choices,
        gpus,
        subnets,
        seed,
        batch,
        window: 0,
        checkpoint_interval: 0,
        faults: None,
    };
    vec![
        des("des_nlp8x4_g2_s3", Domain::Nlp, 8, 4, 2, 12, 3, 16),
        des("des_nlp8x4_g4_s7", Domain::Nlp, 8, 4, 4, 16, 7, 16),
        des("des_nlp12x5_g8_s11", Domain::Nlp, 12, 5, 8, 20, 11, 8),
        des("des_cv10x4_g4_s5", Domain::Cv, 10, 4, 4, 16, 5, 16),
        CaseSpec {
            name: "thr_recover_g3_s5".into(),
            engine: CaseEngine::Threaded,
            domain: Domain::Nlp,
            blocks: 8,
            choices: 4,
            gpus: 3,
            subnets: 24,
            seed: 5,
            batch: 0,
            window: 0,
            checkpoint_interval: 8,
            faults: Some(FaultSpec {
                seed: 5,
                fatal: 1,
                transient: 1,
            }),
        },
        CaseSpec {
            name: "thr_recover_g4_s13".into(),
            engine: CaseEngine::Threaded,
            domain: Domain::Nlp,
            blocks: 16,
            choices: 5,
            gpus: 4,
            subnets: 32,
            seed: 13,
            batch: 0,
            window: 0,
            checkpoint_interval: 8,
            faults: Some(FaultSpec {
                seed: 13,
                fatal: 2,
                transient: 2,
            }),
        },
        CaseSpec {
            name: "both_nlp8x4_g4_s9".into(),
            engine: CaseEngine::Both,
            domain: Domain::Nlp,
            blocks: 8,
            choices: 4,
            gpus: 4,
            subnets: 16,
            seed: 9,
            batch: 16,
            window: 0,
            checkpoint_interval: 0,
            faults: None,
        },
    ]
}

/// Regenerates the corpus under `dir` — existing `.golden` files are
/// re-blessed from their own embedded specs; an empty (or missing)
/// directory is seeded from `default_corpus`. Returns the written
/// file paths.
///
/// # Errors
///
/// Propagates I/O failures and engine refusals.
pub fn bless(dir: &Path, filter: Option<&str>) -> Result<Vec<String>, String> {
    let mut specs: Vec<CaseSpec> = match load_corpus(dir, filter) {
        Ok(cases) => cases.into_iter().map(|c| c.spec).collect(),
        Err(_) => default_corpus()
            .into_iter()
            .filter(|s| filter.is_none_or(|f| s.name.contains(f)))
            .collect(),
    };
    specs.sort_by(|a, b| a.name.cmp(&b.name));
    if specs.is_empty() {
        return Err("nothing to bless".into());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for spec in &specs {
        let case = regenerate(spec)?;
        let path = dir.join(format!("{}.golden", spec.name));
        std::fs::write(&path, render_golden(&case))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_sim::time::SimTime;
    use naspipe_supernet::layer::LayerRef;

    fn small_des_spec() -> CaseSpec {
        CaseSpec {
            name: "t_des".into(),
            engine: CaseEngine::Des,
            domain: Domain::Nlp,
            blocks: 8,
            choices: 4,
            gpus: 2,
            subnets: 8,
            seed: 3,
            batch: 16,
            window: 0,
            checkpoint_interval: 0,
            faults: None,
        }
    }

    #[test]
    fn golden_round_trips_through_the_file_format() {
        let case = regenerate(&small_des_spec()).unwrap();
        let text = render_golden(&case);
        let parsed = parse_golden(&text).unwrap();
        assert_eq!(parsed.spec, case.spec);
        assert_eq!(parsed.expect, case.expect);
        assert_eq!(parsed.transcript, case.transcript);
        assert_eq!(parsed.transcript_text, case.transcript_text);
        assert_eq!(parsed.transcript_line, case.transcript_line);
    }

    #[test]
    fn fresh_golden_reproduces_clean() {
        let case = regenerate(&small_des_spec()).unwrap();
        let report = run_case(&case);
        assert!(
            report.ok(),
            "unexpected divergences: {:?}",
            report.divergences
        );
        assert!(report.checks_passed >= 8, "got {}", report.checks_passed);
    }

    #[test]
    fn engine_disagreement_names_the_first_differing_layer() {
        let space = SearchSpace::uniform(Domain::Nlp, 3, 2);
        let store = naspipe_tensor::model::ParamStore::init(&space, 4, 1);
        let result = |store: naspipe_tensor::model::ParamStore| TrainResult {
            losses: Vec::new(),
            final_hash: store.bitwise_hash(),
            store,
        };
        let des = result(store.clone());
        assert_eq!(engines_agree(&des, &result(store.clone())), Ok(()));
        let mut other = store;
        for l in [LayerRef::new(2, 0), LayerRef::new(1, 1)] {
            other.layer_mut(l).bias.data_mut()[3] += 1.0;
        }
        let err = engines_agree(&des, &result(other)).unwrap_err();
        assert!(
            err.starts_with("parameters first differ at layer b1c1: des "),
            "{err}"
        );
    }

    #[test]
    fn mutated_golden_names_the_first_divergent_task() {
        let case = regenerate(&small_des_spec()).unwrap();
        let text = render_golden(&case);
        // Perturb the LAST task line's end time: stays parseable (no
        // same-stage overlap can appear behind the final task) and only
        // the schedule comparison should notice.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let last_task = lines
            .iter()
            .rposition(|l| l.starts_with("task "))
            .expect("golden has tasks");
        let mut parts: Vec<String> = lines[last_task]
            .split_whitespace()
            .map(String::from)
            .collect();
        let end: u64 = parts[2].parse().unwrap();
        parts[2] = (end + 7).to_string();
        lines[last_task] = parts.join(" ");
        let mutated = parse_golden(&(lines.join("\n") + "\n")).unwrap();

        let report = run_case(&mutated);
        assert!(!report.ok(), "mutation must diverge");
        let d = report
            .divergences
            .iter()
            .find_map(|d| match d {
                Divergence::FirstDivergentTask {
                    index,
                    line,
                    golden,
                    fresh,
                } => Some((index, line, golden, fresh)),
                _ => None,
            })
            .expect("a first-divergent-task diff");
        let (index, line, golden, fresh) = d;
        assert_eq!(*index, mutated.transcript.tasks.len() - 1);
        assert_eq!(*line, last_task + 1, "diff names the golden-file line");
        let g = golden.as_deref().unwrap();
        let f = fresh.as_deref().unwrap();
        assert_ne!(g, f);
        for rendered in [g, f] {
            assert!(rendered.contains("stage"), "{rendered}");
            assert!(rendered.contains("SN"), "{rendered}");
            assert!(rendered.contains("us"), "{rendered}");
        }
        // Everything else still reproduces: exactly one divergence.
        assert_eq!(report.divergences.len(), 1, "{:?}", report.divergences);
    }

    #[test]
    fn a_swapped_threaded_admission_is_the_first_divergent_task() {
        let case = regenerate(&CaseSpec {
            name: "t_thr".into(),
            engine: CaseEngine::Threaded,
            ..small_des_spec()
        })
        .unwrap();
        assert!(run_case(&case).ok(), "{:?}", run_case(&case).divergences);
        // Two forwards one stage ran back to back, swapped with their
        // counts: the replayed stage picks the first where the golden now
        // has the second. Neither shares a layer of that stage's slice
        // with the other (CSP admitted the second before the first's
        // backward), so nothing else diverges.
        let mut t = case.transcript.clone();
        let i = (0..t.tasks.len() - 1)
            .find(|&i| {
                let (a, b) = (&t.tasks[i], &t.tasks[i + 1]);
                (a.kind, b.kind) == (TaskKind::Forward, TaskKind::Forward) && a.stage == b.stage
            })
            .expect("a stage ran two forwards back to back");
        t.tasks.swap(i, i + 1);
        t.taken.swap(i, i + 1);
        let text = render_golden(&GoldenCase {
            transcript_text: t.to_text(),
            ..case.clone()
        });
        let mutated = parse_golden(&text).unwrap();
        let report = run_case(&mutated);
        assert_eq!(report.divergences.len(), 1, "{:?}", report.divergences);
        let Divergence::FirstDivergentTask {
            index,
            line,
            golden,
            fresh,
        } = &report.divergences[0]
        else {
            panic!("{:?}", report.divergences);
        };
        assert_eq!(*index, i);
        let golden_line = text.lines().nth(line - 1).unwrap();
        let recorded = &mutated.transcript.tasks[i];
        let head = format!(
            "task {} {} F {} ",
            recorded.start.as_us(),
            recorded.end.as_us(),
            recorded.subnet.0
        );
        assert!(golden_line.starts_with(&head), "{golden_line} for {head}");
        assert!(golden
            .as_deref()
            .unwrap()
            .contains(&recorded.subnet.to_string()));
        let first = t.tasks[i + 1].subnet;
        assert_eq!(
            fresh.as_deref(),
            Some(format!("F {first} stage {} (replayed)", recorded.stage.0).as_str())
        );
    }

    #[test]
    fn corrupted_golden_csp_order_is_caught() {
        let case = regenerate(&small_des_spec()).unwrap();
        let mut corrupt = case.clone();
        // Run the stream backwards in time, which no sequential
        // exploration could produce: every layer's write now takes effect
        // before its read.
        let last = corrupt.transcript.tasks.iter().map(|t| t.end.as_us()).max();
        let back = |at: SimTime| SimTime::from_us(last.unwrap() - at.as_us());
        for t in &mut corrupt.transcript.tasks {
            (t.start, t.end) = (back(t.end), back(t.start));
        }
        let report = run_case(&corrupt);
        assert!(report
            .divergences
            .iter()
            .any(|d| matches!(d, Divergence::Policy { check, .. }
                if check.starts_with("golden-"))));
    }

    #[test]
    fn explain_names_every_divergence_whole() {
        let report = GateReport {
            cases: vec![
                CaseReport {
                    name: "a".into(),
                    checks_passed: 9,
                    divergences: vec![Divergence::FirstDivergentTask {
                        index: 7,
                        line: 40,
                        golden: Some("F SN1 stage 0".into()),
                        fresh: None,
                    }],
                },
                CaseReport {
                    name: "b".into(),
                    checks_passed: 2,
                    divergences: vec![Divergence::Policy {
                        check: "golden-sequential-order",
                        detail: "layer b2c1 accessed 3F-4F-3B-4B (not sequential)".into(),
                    }],
                },
            ],
        };
        let text = report.explain();
        for line in [
            "  case a: first divergent task: #7 (golden line 40)",
            "      golden: F SN1 stage 0",
            "      fresh : <no task — fresh run ended early>",
            "  case b: golden-sequential-order check failed: layer b2c1 accessed 3F-4F-3B-4B (not sequential)",
            "dominant delta: determinism (behavioral divergence, not throughput)",
        ] {
            assert!(text.lines().any(|l| l == line), "{line:?} in\n{text}");
        }
        assert!(GateReport::default().explain().contains("no case diverged"));
    }

    #[test]
    fn the_csp_audit_accepts_both_engines_and_counts_every_record() {
        let spec = small_des_spec();
        let des = execute_des(&spec).unwrap();
        let n = spec.subnets * u64::from(spec.gpus);
        assert_eq!(audit_csp(&des.transcript), Ok((n, n)));
        let thr = execute_threaded(&CaseSpec {
            engine: CaseEngine::Threaded,
            checkpoint_interval: 4,
            faults: Some(FaultSpec {
                seed: 3,
                fatal: 1,
                transient: 0,
            }),
            ..spec
        })
        .unwrap();
        // A recovered run: its sequential prefix sits at 0 µs.
        assert_eq!(thr.schedule.restarts, 1);
        assert_eq!(audit_csp(&thr.transcript), Ok((n, n)));
    }

    #[test]
    fn cut_laws_reject_inconsistent_schedules() {
        let spec = CaseSpec {
            checkpoint_interval: 8,
            subnets: 24,
            ..small_des_spec()
        };
        let ok = ScheduleDigest {
            restarts: 2,
            resume_watermarks: vec![8, 16],
            faults_fired: 2,
        };
        check_cut_laws(&spec, &ok).unwrap();
        let off_boundary = ScheduleDigest {
            resume_watermarks: vec![5],
            restarts: 1,
            faults_fired: 1,
        };
        assert!(check_cut_laws(&spec, &off_boundary)
            .unwrap_err()
            .contains("not a multiple"));
        let regressing = ScheduleDigest {
            resume_watermarks: vec![16, 8],
            restarts: 2,
            faults_fired: 2,
        };
        assert!(check_cut_laws(&spec, &regressing)
            .unwrap_err()
            .contains("regress"));
        let out_of_range = ScheduleDigest {
            resume_watermarks: vec![64],
            restarts: 1,
            faults_fired: 1,
        };
        assert!(check_cut_laws(&spec, &out_of_range)
            .unwrap_err()
            .contains("exceeds"));
        let miscounted = ScheduleDigest {
            resume_watermarks: vec![8],
            restarts: 3,
            faults_fired: 1,
        };
        assert!(check_cut_laws(&spec, &miscounted)
            .unwrap_err()
            .contains("watermark(s)"));
    }

    #[test]
    fn loss_digest_is_order_and_bit_sensitive() {
        let a = vec![(0u64, 0.5f32), (1, 0.25)];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(loss_digest(&a), loss_digest(&b));
        let mut c = a.clone();
        c[1].1 = f32::from_bits(c[1].1.to_bits() ^ 1);
        assert_ne!(loss_digest(&a), loss_digest(&c));
        assert_eq!(loss_digest(&a), loss_digest(&a.clone()));
    }
}

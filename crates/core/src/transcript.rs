//! Schedule transcripts: serialise a pipeline run's task schedule to a
//! plain-text format and load it back.
//!
//! The paper's reproducibility pitch is that researchers can "easily
//! debug, reproduce, and analyze any supernet training procedures with a
//! simple and deterministic training replay" (§1). A transcript captures
//! everything the numeric replay needs — the subnet stream and the
//! executed task schedule — so a trial recorded on one machine can be
//! replayed bit-for-bit on another, without re-running the scheduler.
//!
//! The format is line-based and versioned:
//!
//! ```text
//! naspipe-transcript v1
//! subnet <id> <choice>,<choice>,...      (skip rendered as "~")
//! task <start_us> <end_us> <F|B> <subnet> <stage> <block_lo> <block_hi>
//! taken <forwards> <backwards>
//! ```
//!
//! A threaded run follows each task its last incarnation ran with a
//! `taken` record: what the stage had taken from its inbox when it picked
//! the task ([`Taken`]), which [`RunSpec::replay`] hands it again. The
//! tasks without one (a restart's sequential prefix) come first. A DES
//! transcript has no `taken` record.
//!
//! [`RunSpec::replay`]: crate::runtime::RunSpec::replay

use crate::pipeline::{PipelineOutcome, TaskRecord};
use crate::runtime::Taken;
use crate::task::{StageId, TaskKind};
use naspipe_sim::time::SimTime;
use naspipe_supernet::subnet::{Subnet, SubnetId, SKIP_CHOICE};
use std::fmt;
use std::io::{BufRead, Write};

/// A replayable record of one pipeline run.
///
/// # Example
///
/// ```
/// use naspipe_core::config::PipelineConfig;
/// use naspipe_core::pipeline::SimSpec;
/// use naspipe_core::transcript::Transcript;
/// use naspipe_supernet::space::SearchSpace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = SearchSpace::nlp_c3();
/// let config = PipelineConfig::naspipe(2, 4).with_batch(8);
/// let out = SimSpec::new(&space, &config).run()?;
/// let text = Transcript::from_outcome(&out).to_text();
/// let parsed = Transcript::read(&mut text.as_bytes())?;
/// assert_eq!(parsed.tasks.len(), 4 * 2 * 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// The subnets trained, in exploration order.
    pub subnets: Vec<Subnet>,
    /// The executed tasks, in schedule order.
    pub tasks: Vec<TaskRecord>,
    /// What the stage of each of the last `taken.len()` tasks had taken
    /// from its inbox when it picked it, in `tasks`' order (a threaded
    /// run's; a DES run has none).
    pub taken: Vec<Taken>,
}

/// The first line of every transcript.
pub(crate) const TRANSCRIPT_HEADER: &str = "naspipe-transcript v1";

/// Upper bound on plausible stage ids in a transcript — far above any
/// real pipeline depth, so a huge value can only be corruption.
const MAX_STAGES: usize = 4096;

/// Upper bound on plausible block indices — the largest search space has
/// 48 blocks, so anything near integer-width limits is corruption, and
/// bounding here keeps the later `usize` narrowing lossless on every
/// target.
const MAX_BLOCKS: usize = 65_536;

/// Errors from parsing a transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTranscriptError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseTranscriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transcript line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTranscriptError {}

impl Transcript {
    /// Captures the replayable parts of a pipeline outcome.
    pub fn from_outcome(outcome: &PipelineOutcome) -> Self {
        Self {
            subnets: outcome.subnets.clone(),
            tasks: outcome.tasks.clone(),
            taken: Vec::new(),
        }
    }

    /// Writes the transcript in the v1 text format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{TRANSCRIPT_HEADER}")?;
        for s in &self.subnets {
            let choices = s
                .choices()
                .iter()
                .map(|&c| {
                    if c == SKIP_CHOICE {
                        "~".to_string()
                    } else {
                        c.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            writeln!(out, "subnet {} {}", s.seq_id().0, choices)?;
        }
        let counted = self.tasks.len().saturating_sub(self.taken.len());
        for (i, t) in self.tasks.iter().enumerate() {
            let kind = match t.kind {
                TaskKind::Forward => "F",
                TaskKind::Backward => "B",
            };
            writeln!(
                out,
                "task {} {} {kind} {} {} {} {}",
                t.start.as_us(),
                t.end.as_us(),
                t.subnet.0,
                t.stage.0,
                t.blocks.start,
                t.blocks.end,
            )?;
            if let Some(taken) = i.checked_sub(counted).and_then(|j| self.taken.get(j)) {
                writeln!(out, "taken {} {}", taken.forwards, taken.backwards)?;
            }
        }
        Ok(())
    }

    /// Renders the transcript to a string.
    pub fn to_text(&self) -> String {
        let mut buf = Vec::new();
        self.write(&mut buf).expect("writing to memory cannot fail");
        String::from_utf8(buf).expect("transcript is ASCII")
    }

    /// Parses a transcript from the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTranscriptError`] describing the offending line.
    pub fn read(input: &mut impl BufRead) -> Result<Self, ParseTranscriptError> {
        let err = |line: usize, message: &str| ParseTranscriptError {
            line,
            message: message.to_string(),
        };
        let mut lines = Vec::new();
        for (i, l) in input.lines().enumerate() {
            let l = l.map_err(|e| err(i + 1, &format!("I/O error: {e}")))?;
            lines.push(l);
        }
        if lines.first().map(String::as_str) != Some(TRANSCRIPT_HEADER) {
            return Err(err(1, &format!("missing '{TRANSCRIPT_HEADER}' header")));
        }
        let mut subnets: Vec<Subnet> = Vec::new();
        let mut tasks = Vec::new();
        let mut taken: Vec<Taken> = Vec::new();
        // Whether the record before this line was a task without its
        // `taken` yet; once one task has counts, every later one must.
        let (mut open_task, mut counting) = (false, false);
        let mut declared: std::collections::BTreeMap<u64, usize> =
            std::collections::BTreeMap::new();
        let mut task_lines: Vec<usize> = Vec::new();
        for (i, line) in lines.iter().enumerate().skip(1) {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let record = parts.next();
            let after_task = std::mem::take(&mut open_task);
            if after_task && counting && record != Some("taken") {
                return Err(err(
                    task_lines[tasks.len() - 1],
                    "task has no 'taken' record",
                ));
            }
            match record {
                Some("subnet") => {
                    let id: u64 = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| err(lineno, "bad subnet id"))?;
                    let choices: Vec<u32> = parts
                        .next()
                        .ok_or_else(|| err(lineno, "missing choices"))?
                        .split(',')
                        .map(|c| {
                            if c == "~" {
                                Ok(SKIP_CHOICE)
                            } else {
                                c.parse().map_err(|_| err(lineno, "bad choice"))
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    if let Some(stray) = parts.next() {
                        return Err(err(
                            lineno,
                            &format!("stray token '{stray}' after subnet record"),
                        ));
                    }
                    if let Some(prev) = declared.insert(id, lineno) {
                        return Err(err(
                            lineno,
                            &format!("subnet {id} already declared on line {prev}"),
                        ));
                    }
                    subnets.push(Subnet::new(SubnetId(id), choices));
                }
                Some("task") => {
                    let mut next_u64 = || -> Result<u64, ParseTranscriptError> {
                        parts
                            .next()
                            .and_then(|p| p.parse().ok())
                            .ok_or_else(|| err(lineno, "bad task field"))
                    };
                    let start = next_u64()?;
                    let end = next_u64()?;
                    let kind = match parts.next() {
                        Some("F") => TaskKind::Forward,
                        Some("B") => TaskKind::Backward,
                        _ => return Err(err(lineno, "bad task kind (want F|B)")),
                    };
                    let mut next_u64 = || -> Result<u64, ParseTranscriptError> {
                        parts
                            .next()
                            .and_then(|p| p.parse().ok())
                            .ok_or_else(|| err(lineno, "bad task field"))
                    };
                    let subnet = next_u64()?;
                    // Parse into the full width first and range-check
                    // BEFORE narrowing: `as u32` / `as usize` would let
                    // e.g. stage 4294967299 truncate to 3 and sail past
                    // the plausibility bound below.
                    let stage_raw = next_u64()?;
                    if stage_raw >= MAX_STAGES as u64 {
                        return Err(err(
                            lineno,
                            &format!("implausible stage id {stage_raw} (limit {MAX_STAGES})"),
                        ));
                    }
                    let stage = u32::try_from(stage_raw).expect("bounded by MAX_STAGES");
                    let mut next_block = || -> Result<usize, ParseTranscriptError> {
                        let raw = next_u64()?;
                        if raw >= MAX_BLOCKS as u64 {
                            return Err(err(
                                lineno,
                                &format!("implausible block bound {raw} (limit {MAX_BLOCKS})"),
                            ));
                        }
                        Ok(usize::try_from(raw).expect("bounded by MAX_BLOCKS"))
                    };
                    let lo = next_block()?;
                    let hi = next_block()?;
                    if let Some(stray) = parts.next() {
                        return Err(err(
                            lineno,
                            &format!("stray token '{stray}' after task record"),
                        ));
                    }
                    if lo > hi {
                        return Err(err(lineno, "block range reversed"));
                    }
                    if end < start {
                        return Err(err(
                            lineno,
                            &format!("task ends ({end}us) before it starts ({start}us)"),
                        ));
                    }
                    if !declared.contains_key(&subnet) {
                        return Err(err(
                            lineno,
                            &format!("task references undeclared subnet {subnet}"),
                        ));
                    }
                    task_lines.push(lineno);
                    open_task = true;
                    tasks.push(TaskRecord {
                        start: SimTime::from_us(start),
                        end: SimTime::from_us(end),
                        kind,
                        subnet: SubnetId(subnet),
                        stage: StageId(stage),
                        blocks: lo..hi,
                    });
                }
                Some("taken") => {
                    if !after_task {
                        return Err(err(lineno, "'taken' record without its task"));
                    }
                    counting = true;
                    let mut next_u64 = || -> Result<u64, ParseTranscriptError> {
                        parts
                            .next()
                            .and_then(|p| p.parse().ok())
                            .ok_or_else(|| err(lineno, "bad taken field"))
                    };
                    let forwards = next_u64()?;
                    let backwards = next_u64()?;
                    if let Some(stray) = parts.next() {
                        return Err(err(
                            lineno,
                            &format!("stray token '{stray}' after taken record"),
                        ));
                    }
                    taken.push(Taken {
                        forwards,
                        backwards,
                    });
                }
                Some(other) => {
                    return Err(err(lineno, &format!("unknown record '{other}'")));
                }
                None => {}
            }
        }
        if open_task && counting {
            return Err(err(
                task_lines[tasks.len() - 1],
                "task has no 'taken' record",
            ));
        }
        // A stage executes one task at a time: two tasks on the same
        // stage with genuinely overlapping time intervals cannot come
        // from a real run and would corrupt a replay's access order.
        let mut by_stage: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (idx, t) in tasks.iter().enumerate() {
            by_stage.entry(t.stage.0).or_default().push(idx);
        }
        for (stage, mut idxs) in by_stage {
            idxs.sort_by_key(|&i| (tasks[i].start, tasks[i].end));
            for pair in idxs.windows(2) {
                let (a, b) = (&tasks[pair[0]], &tasks[pair[1]]);
                if a.start < b.end && b.start < a.end {
                    return Err(err(
                        task_lines[pair[1]],
                        &format!(
                            "task overlaps the task on line {} (both on stage {stage})",
                            task_lines[pair[0]]
                        ),
                    ));
                }
            }
        }
        Ok(Self {
            subnets,
            tasks,
            taken,
        })
    }

    /// Reconstructs a minimal [`PipelineOutcome`]-shaped pair for
    /// [`crate::train::replay_training`]: `(subnets, tasks)`.
    pub fn into_parts(self) -> (Vec<Subnet>, Vec<TaskRecord>) {
        (self.subnets, self.tasks)
    }
}

/// Replays a transcript numerically — identical semantics to
/// [`crate::train::replay_training`] on the original outcome.
///
/// # Errors
///
/// A [`ReplayError`](crate::train::ReplayError) when the transcript does
/// not fit `space` or a task's input is missing.
pub fn replay_transcript(
    space: &naspipe_supernet::space::SearchSpace,
    transcript: &Transcript,
    cfg: &crate::train::TrainConfig,
) -> Result<crate::train::TrainResult, crate::train::ReplayError> {
    crate::train::replay_tasks(space, &transcript.subnets, &transcript.tasks, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::SimSpec;
    use crate::train::{replay_training, TrainConfig};
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;

    fn outcome() -> (SearchSpace, PipelineOutcome) {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
        let subnets = UniformSampler::new(&space, 3).take_subnets(12);
        let cfg = PipelineConfig::naspipe(4, 12).with_batch(16).with_seed(3);
        let out = SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        (space, out)
    }

    #[test]
    fn round_trips_bitwise() {
        let (_, out) = outcome();
        let t = Transcript::from_outcome(&out);
        let text = t.to_text();
        let parsed = Transcript::read(&mut text.as_bytes()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn replayed_transcript_equals_direct_replay() {
        let (space, out) = outcome();
        let cfg = TrainConfig::default();
        let direct = replay_training(&space, &out, &cfg);
        let t = Transcript::from_outcome(&out);
        let text = t.to_text();
        let parsed = Transcript::read(&mut text.as_bytes()).unwrap();
        let replayed = replay_transcript(&space, &parsed, &cfg).unwrap();
        assert_eq!(direct.final_hash, replayed.final_hash);
        assert_eq!(direct.losses, replayed.losses);
    }

    #[test]
    fn skip_choices_round_trip() {
        use naspipe_supernet::subnet::SKIP_CHOICE;
        let t = Transcript {
            subnets: vec![Subnet::new(SubnetId(0), vec![1, SKIP_CHOICE, 2])],
            tasks: vec![],
            taken: vec![],
        };
        let text = t.to_text();
        assert!(text.contains("1,~,2"));
        let parsed = Transcript::read(&mut text.as_bytes()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn taken_records_round_trip_after_an_uncounted_prefix() {
        let (_, out) = outcome();
        let mut t = Transcript::from_outcome(&out);
        t.tasks.truncate(8);
        let taken = |forwards, backwards| Taken {
            forwards,
            backwards,
        };
        t.taken = vec![taken(0, 0), taken(3, 1), taken(3, 2)];
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let first_task = lines.iter().position(|l| l.starts_with("task ")).unwrap();
        assert!(lines[first_task + 5].starts_with("task "));
        assert_eq!(lines[first_task + 6], "taken 0 0");
        assert_eq!(lines.last(), Some(&"taken 3 2"));
        assert_eq!(Transcript::read(&mut text.as_bytes()).unwrap(), t);
        // A DES transcript has none, and reads back without.
        let des = Transcript::from_outcome(&out);
        assert!(!des.to_text().contains("taken"));
    }

    #[test]
    fn bad_header_rejected() {
        let e = Transcript::read(&mut "bogus\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }

    /// One malformed document per [`ParseTranscriptError`] branch, each
    /// checked against the exact diagnostic it must produce.
    #[test]
    fn malformed_corpus_table() {
        let cases: &[(&str, &str)] = &[
            // header
            ("bogus", "missing 'naspipe-transcript v1' header"),
            ("", "missing 'naspipe-transcript v1' header"),
            // subnet records
            ("subnet x 1,2", "bad subnet id"),
            ("subnet 0", "missing choices"),
            ("subnet 0 1,zz", "bad choice"),
            (
                "subnet 0 1,2 junk",
                "stray token 'junk' after subnet record",
            ),
            ("subnet 0 1,2\nsubnet 0 2,1", "already declared on line 2"),
            // task records
            ("subnet 0 1,2\ntask 1", "bad task field"),
            (
                "subnet 0 1,2\ntask 1 2 Q 0 0 0 1",
                "bad task kind (want F|B)",
            ),
            ("subnet 0 1,2\ntask 1 2 F", "bad task field"),
            (
                "subnet 0 1,2\ntask 1 2 F 0 99999 0 1",
                "implausible stage id 99999 (limit 4096)",
            ),
            // Regression: 4294967299 = 2^32 + 3 used to truncate to
            // stage 3 via `as u32` and pass the plausibility check.
            (
                "subnet 0 1,2\ntask 1 2 F 0 4294967299 0 1",
                "implausible stage id 4294967299",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 18446744073709551615 1",
                "implausible block bound 18446744073709551615 (limit 65536)",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 4294967297",
                "implausible block bound 4294967297",
            ),
            ("subnet 0 1,2\ntask 1 2 F 0 0 5 1", "block range reversed"),
            (
                "subnet 0 1,2\ntask 9 5 F 0 0 0 1",
                "ends (5us) before it starts (9us)",
            ),
            ("subnet 0 1,2\ntask 1 2 F 7 0 0 1", "undeclared subnet 7"),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1 junk",
                "stray token 'junk' after task record",
            ),
            // taken records
            ("subnet 0 1,2\ntaken 0 0", "'taken' record without its task"),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken 0 0\ntaken 0 0",
                "'taken' record without its task",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken x 0",
                "bad taken field",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken 1",
                "bad taken field",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken 0 0 junk",
                "stray token 'junk' after taken record",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken 0 0\ntask 2 3 F 0 1 0 1",
                "line 5: task has no 'taken' record",
            ),
            (
                "subnet 0 1,2\ntask 1 2 F 0 0 0 1\ntaken 0 0\ntask 2 3 F 0 1 0 1\n\
                 task 3 4 F 0 2 0 1\ntaken 0 0",
                "line 5: task has no 'taken' record",
            ),
            // other records
            ("frobnicate", "unknown record 'frobnicate'"),
            (
                "subnet 0 1,2\nsubnet 1 2,1\ntask 0 10 F 0 0 0 1\ntask 5 15 F 1 0 0 1",
                "overlaps the task on line",
            ),
        ];
        for (body, want) in cases {
            let text = if body.is_empty() {
                String::new()
            } else if *body == "bogus" {
                "bogus\n".to_string()
            } else {
                format!("naspipe-transcript v1\n{body}\n")
            };
            let e =
                Transcript::read(&mut text.as_bytes()).expect_err(&format!("accepted {body:?}"));
            assert!(
                e.to_string().contains(want),
                "for {body:?}: wanted {want:?} in {:?}",
                e.to_string()
            );
        }
    }

    /// A stage id that truncates modulo 2^32 into the plausible range
    /// must still be rejected — the regression the width audit fixed.
    #[test]
    fn truncating_stage_id_rejected() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\ntask 1 2 F 0 4294967299 0 1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("4294967299") && msg.contains("line 3"),
            "{msg}"
        );
    }

    #[test]
    fn duplicate_subnet_declarations_rejected_with_both_lines() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\nsubnet 0 2,1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("already declared on line 2"), "{msg}");
    }

    #[test]
    fn undeclared_subnet_reference_rejected() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\ntask 0 5 F 7 0 0 1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 3") && msg.contains("undeclared subnet 7"),
            "{msg}"
        );
    }

    #[test]
    fn implausible_stage_id_rejected() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\ntask 0 5 F 0 99999 0 1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("implausible stage id 99999"));
    }

    #[test]
    fn reversed_time_interval_rejected() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\ntask 9 5 F 0 0 0 1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("ends (5us) before it starts (9us)"));
    }

    #[test]
    fn same_stage_overlapping_tasks_rejected() {
        let text = "naspipe-transcript v1\nsubnet 0 1,2\nsubnet 1 2,1\n\
                    task 0 10 F 0 0 0 1\ntask 5 15 F 1 0 0 1\n";
        let e = Transcript::read(&mut text.as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 5") && msg.contains("line 4"), "{msg}");
        // The same pair on *different* stages is fine.
        let ok = "naspipe-transcript v1\nsubnet 0 1,2\nsubnet 1 2,1\n\
                  task 0 10 F 0 0 0 1\ntask 5 15 F 1 1 0 1\n";
        assert!(Transcript::read(&mut ok.as_bytes()).is_ok());
        // Back-to-back intervals (end == next start) are fine too.
        let abutting = "naspipe-transcript v1\nsubnet 0 1,2\nsubnet 1 2,1\n\
                        task 0 10 F 0 0 0 1\ntask 10 20 F 1 0 0 1\n";
        assert!(Transcript::read(&mut abutting.as_bytes()).is_ok());
    }

    #[test]
    fn into_parts_decomposes() {
        let (_, out) = outcome();
        let t = Transcript::from_outcome(&out);
        let (subnets, tasks) = t.into_parts();
        assert_eq!(subnets.len(), 12);
        assert_eq!(tasks.len(), 12 * 4 * 2);
    }
}

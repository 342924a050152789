//! The scheduling unit: a subnet stage's forward or backward pass.
//!
//! NASPipe's runtime partitions each subnet into `D` stages (one per GPU)
//! and schedules each stage's forward and backward passes independently; a
//! *task* — identified by (kind, subnet ID, stage ID) — is the minimal unit
//! of execution and scheduling (§3.2).

use naspipe_supernet::subnet::SubnetId;
use std::collections::VecDeque;
use std::fmt;

/// Index of a pipeline stage; stage `k` runs on GPU `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StageId(pub u32);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Forward (parameter READ) or backward (parameter WRITE, including the
/// optimizer step) pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Forward => f.write_str("fwd"),
            TaskKind::Backward => f.write_str("bwd"),
        }
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Task {
    /// Forward or backward.
    pub kind: TaskKind,
    /// The subnet this task belongs to.
    pub subnet: SubnetId,
    /// The pipeline stage (GPU) it runs on.
    pub stage: StageId,
}

impl Task {
    /// Creates a forward task.
    pub fn forward(subnet: SubnetId, stage: StageId) -> Self {
        Self {
            kind: TaskKind::Forward,
            subnet,
            stage,
        }
    }

    /// Creates a backward task.
    pub fn backward(subnet: SubnetId, stage: StageId) -> Self {
        Self {
            kind: TaskKind::Backward,
            subnet,
            stage,
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}@{}", self.subnet, self.kind, self.stage)
    }
}

/// The finished list `L_f` with the paper's elimination scheme: when all
/// subnets below a sequence ID have finished, they are dropped from both
/// the set and future dependency checks (§3.2, complexity analysis).
///
/// Stored densely: `prefix` is the smallest unfinished ID and
/// `window[i]` says whether `prefix + i` finished, so a membership test
/// is one compare and one indexed load. The window never ends in `false`
/// (it only grows to mark an ID finished and only shrinks from the
/// front), so equal sets have equal representations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinishedSet {
    prefix: u64,
    window: VecDeque<bool>,
    retained: usize,
}

impl FinishedSet {
    /// Creates an empty set (nothing finished).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `id` finished.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already finished (double completion is a
    /// scheduler bug).
    pub fn insert(&mut self, id: SubnetId) {
        assert!(!self.contains(id), "{id} finished twice");
        if id.0 == self.prefix {
            self.prefix += 1;
            self.window.pop_front();
            while self.window.front() == Some(&true) {
                self.window.pop_front();
                self.prefix += 1;
                self.retained -= 1;
            }
        } else {
            let idx = (id.0 - self.prefix) as usize;
            if idx >= self.window.len() {
                self.window.resize(idx + 1, false);
            }
            self.window[idx] = true;
            self.retained += 1;
        }
    }

    /// Whether `id` has finished.
    #[inline]
    pub fn contains(&self, id: SubnetId) -> bool {
        id.0 < self.prefix
            || self
                .window
                .get((id.0 - self.prefix) as usize)
                .copied()
                .unwrap_or(false)
    }

    /// The smallest unfinished sequence ID. Dependency checks only need to
    /// scan from here (the elimination scheme).
    pub fn first_unfinished(&self) -> SubnetId {
        SubnetId(self.prefix)
    }

    /// Number of finished entries retained beyond the prefix (bounded by
    /// the scheduling window in practice).
    pub fn retained(&self) -> usize {
        self.retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_constructors_and_display() {
        let f = Task::forward(SubnetId(2), StageId(0));
        let b = Task::backward(SubnetId(2), StageId(3));
        assert_eq!(f.kind, TaskKind::Forward);
        assert_eq!(b.kind, TaskKind::Backward);
        assert_eq!(f.to_string(), "SN2.fwd@P0");
        assert_eq!(b.to_string(), "SN2.bwd@P3");
    }

    #[test]
    fn finished_prefix_advances() {
        let mut f = FinishedSet::new();
        f.insert(SubnetId(1));
        f.insert(SubnetId(2));
        assert_eq!(f.first_unfinished(), SubnetId(0));
        assert_eq!(f.retained(), 2);
        f.insert(SubnetId(0));
        assert_eq!(f.first_unfinished(), SubnetId(3));
        assert_eq!(f.retained(), 0);
        assert!(f.contains(SubnetId(1)));
        assert!(!f.contains(SubnetId(3)));
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_insert_panics() {
        let mut f = FinishedSet::new();
        f.insert(SubnetId(3));
        f.insert(SubnetId(3));
    }
}

//! Deterministic fault injection for the threaded runtime.
//!
//! A [`FaultPlan`] is a small declarative DSL describing *exactly* which
//! failures a run must suffer: panic stage `s` while it executes subnet
//! `y`'s forward, fail the send of a particular activation a few times
//! before letting it through, or degrade a stage with an injected delay.
//! Triggers are keyed by `(stage, subnet, task kind)` — the task identity
//! of [`crate::task::Task`] — rather than by wall-clock time, so a plan
//! fires at the same *causal* point of the schedule on every run, even
//! though thread timing differs. Plans can be built by hand or generated
//! from a seed with [`FaultPlan::seeded`], which makes every failure
//! scenario replayable from a single integer.
//!
//! Each fault fires **once per run** (tracked by `FaultInjector`, whose
//! consumed-state survives supervisor restarts — a crash that already
//! happened does not happen again during replay), mirroring how a real
//! worker crash is a one-time event the recovery path must get past.

use crate::task::TaskKind;
use naspipe_supernet::rng::DetRng;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// What happens when a fault's trigger task executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage worker panics at the start of the trigger task —
    /// modelling a hard worker crash (CUDA abort, OOM kill, segfault).
    Panic,
    /// The stage stalls for `delay_ms` before the trigger task —
    /// modelling thermal throttling or a straggler.
    Slow {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// The send of the trigger task's output fails `failures` times
    /// before succeeding — modelling a flaky interconnect. Survivable
    /// while `failures` is at most the retry budget (3); beyond that the
    /// worker gives up with a [`crate::runtime::TrainError::Timeout`].
    TransientSend {
        /// Consecutive send failures before the send goes through.
        failures: u32,
    },
    /// The receive of a message belonging to the trigger task fails
    /// `failures` times before being accepted.
    TransientRecv {
        /// Consecutive receive failures before the message is accepted.
        failures: u32,
    },
    /// The whole process aborts at the start of the trigger task —
    /// modelling a machine crash / OOM-killer / power loss. Unlike
    /// [`FaultKind::Panic`] the in-process supervisor cannot recover
    /// from this; it exists to exercise *durable* checkpoint resume
    /// across process boundaries (see [`crate::durable`]).
    ProcessKill,
}

impl FaultKind {
    /// Whether this fault, under the retry budget, kills its worker.
    pub(crate) fn is_fatal(&self) -> bool {
        match self {
            FaultKind::Panic | FaultKind::ProcessKill => true,
            FaultKind::Slow { .. } => false,
            FaultKind::TransientSend { failures } | FaultKind::TransientRecv { failures } => {
                *failures > MAX_RETRIES
            }
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => f.write_str("panic"),
            FaultKind::Slow { delay_ms } => write!(f, "slow({delay_ms}ms)"),
            FaultKind::TransientSend { failures } => write!(f, "send-fault(x{failures})"),
            FaultKind::TransientRecv { failures } => write!(f, "recv-fault(x{failures})"),
            FaultKind::ProcessKill => f.write_str("process-kill"),
        }
    }
}

/// Where in the worker loop a fault is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSite {
    /// At the start of executing the trigger task (panic / slow).
    Execute,
    /// When sending the trigger task's output downstream/upstream.
    Send,
    /// When a message belonging to the trigger task is received.
    Recv,
}

impl FaultKind {
    fn site(&self) -> FaultSite {
        match self {
            FaultKind::Panic | FaultKind::Slow { .. } | FaultKind::ProcessKill => {
                FaultSite::Execute
            }
            FaultKind::TransientSend { .. } => FaultSite::Send,
            FaultKind::TransientRecv { .. } => FaultSite::Recv,
        }
    }
}

/// One scheduled fault: fire `kind` when `stage` handles the
/// `(subnet, task)` unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The stage the fault strikes.
    pub stage: u32,
    /// The trigger task's subnet sequence ID.
    pub subnet: u64,
    /// The trigger task's kind.
    pub task: TaskKind,
    /// The failure behaviour.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on stage {} at SN{}.{}",
            self.kind, self.stage, self.subnet, self.task
        )
    }
}

/// A deterministic, replayable failure scenario.
///
/// # Example
///
/// ```
/// use naspipe_core::fault::{FaultKind, FaultPlan};
/// use naspipe_core::task::TaskKind;
///
/// let plan = FaultPlan::new()
///     .panic_on(1, 5, TaskKind::Forward)
///     .transient_send(0, 2, TaskKind::Forward, 2);
/// assert_eq!(plan.faults().len(), 2);
/// assert_eq!(plan.fatal_faults().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    backoff_us: u64,
}

/// Retry budget for a transient fault: a worker retries while
/// `failures <= MAX_RETRIES`.
pub(crate) const MAX_RETRIES: u32 = 3;

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan (no faults, 3 retries, 50µs base backoff).
    pub fn new() -> Self {
        Self {
            faults: Vec::new(),
            backoff_us: 50,
        }
    }

    /// Adds a hard crash of `stage` at the given task.
    #[must_use]
    pub fn panic_on(mut self, stage: u32, subnet: u64, task: TaskKind) -> Self {
        self.faults.push(Fault {
            stage,
            subnet,
            task,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Adds a whole-process abort of the run when `stage` reaches the
    /// given task — only survivable via durable checkpoints and a
    /// fresh process resuming from disk.
    #[must_use]
    pub fn kill_on(mut self, stage: u32, subnet: u64, task: TaskKind) -> Self {
        self.faults.push(Fault {
            stage,
            subnet,
            task,
            kind: FaultKind::ProcessKill,
        });
        self
    }

    /// Adds a slow-stage degradation before the given task.
    #[must_use]
    pub fn slow(mut self, stage: u32, subnet: u64, task: TaskKind, delay_ms: u64) -> Self {
        self.faults.push(Fault {
            stage,
            subnet,
            task,
            kind: FaultKind::Slow { delay_ms },
        });
        self
    }

    /// Adds a transient send failure (`failures` attempts fail, then the
    /// send goes through).
    #[must_use]
    pub fn transient_send(
        mut self,
        stage: u32,
        subnet: u64,
        task: TaskKind,
        failures: u32,
    ) -> Self {
        self.faults.push(Fault {
            stage,
            subnet,
            task,
            kind: FaultKind::TransientSend { failures },
        });
        self
    }

    /// Adds a transient receive failure.
    #[must_use]
    pub(crate) fn transient_recv(
        mut self,
        stage: u32,
        subnet: u64,
        task: TaskKind,
        failures: u32,
    ) -> Self {
        self.faults.push(Fault {
            stage,
            subnet,
            task,
            kind: FaultKind::TransientRecv { failures },
        });
        self
    }

    /// Sets the base backoff (doubled per attempt) in microseconds.
    #[must_use]
    pub fn with_backoff_us(mut self, backoff_us: u64) -> Self {
        self.backoff_us = backoff_us;
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The faults that will kill their worker under the retry budget.
    pub fn fatal_faults(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(|f| f.kind.is_fatal())
    }

    /// Base backoff in microseconds.
    pub(crate) fn backoff_us(&self) -> u64 {
        self.backoff_us
    }

    /// Generates a replayable failure scenario from a seed: `fatal` hard
    /// crashes plus `transient` survivable channel faults over a run of
    /// `subnets` subnets on `stages` stages.
    ///
    /// Two properties make the resulting *recovery schedule* (not just
    /// the fault set) a pure function of the seed:
    ///
    /// * at most one fatal fault lands in each checkpoint epoch of
    ///   `checkpoint_interval` subnets — the injection barrier at every
    ///   watermark then guarantees a crash in epoch `e` is observed
    ///   before any task of epoch `e + 1` exists anywhere, so which
    ///   checkpoint each recovery resumes from cannot race;
    /// * transient faults are placed in epochs without a fatal fault, so
    ///   whether they fire before or after a crash is never ambiguous.
    ///
    /// With `checkpoint_interval == 0` (checkpointing off) the whole run
    /// is one epoch and at most one fatal fault is generated.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or `subnets == 0`.
    pub fn seeded(
        seed: u64,
        stages: u32,
        subnets: u64,
        checkpoint_interval: u64,
        fatal: u32,
        transient: u32,
    ) -> Self {
        assert!(stages > 0, "need at least one stage");
        assert!(subnets > 0, "need at least one subnet");
        let mut rng = DetRng::new(seed ^ 0xFAB1_7FA6_17A5_EEDE);
        let interval = if checkpoint_interval == 0 {
            subnets
        } else {
            checkpoint_interval
        };
        let epochs = subnets.div_ceil(interval);
        let mut plan = FaultPlan::new();

        // Fatal panics: distinct epochs, random task within the epoch.
        let mut epoch_ids: Vec<u64> = (0..epochs).collect();
        rng.shuffle(&mut epoch_ids);
        let mut fatal_epochs: Vec<u64> = epoch_ids
            .iter()
            .copied()
            .take((fatal as u64).min(epochs) as usize)
            .collect();
        fatal_epochs.sort_unstable();
        for &e in &fatal_epochs {
            let lo = e * interval;
            let hi = subnets.min(lo + interval);
            let subnet = lo + rng.next_below(hi - lo);
            let stage = rng.next_below(stages as u64) as u32;
            let task = if rng.next_below(2) == 0 {
                TaskKind::Forward
            } else {
                TaskKind::Backward
            };
            plan = plan.panic_on(stage, subnet, task);
        }

        // Transient channel faults: survivable (failures <= MAX_RETRIES),
        // placed in epochs without a fatal fault when possible.
        let free_epochs: Vec<u64> = (0..epochs).filter(|e| !fatal_epochs.contains(e)).collect();
        for _ in 0..transient {
            let e = if free_epochs.is_empty() {
                rng.next_below(epochs)
            } else {
                free_epochs[rng.index(free_epochs.len())]
            };
            let lo = e * interval;
            let hi = subnets.min(lo + interval);
            let subnet = lo + rng.next_below(hi - lo);
            let failures = 1 + rng.next_below(u64::from(MAX_RETRIES)) as u32;
            // Pick a site that exists in the topology: forward sends
            // leave every stage but the last, backward sends leave every
            // stage but the first, and receives mirror them.
            plan = if stages == 1 {
                // Single stage: no channels; degrade instead.
                plan.slow(0, subnet, TaskKind::Forward, 1)
            } else if rng.next_below(2) == 0 {
                let stage = rng.next_below(stages as u64 - 1) as u32;
                plan.transient_send(stage, subnet, TaskKind::Forward, failures)
            } else {
                let stage = 1 + rng.next_below(stages as u64 - 1) as u32;
                plan.transient_recv(stage, subnet, TaskKind::Forward, failures)
            };
        }
        plan
    }
}

/// A record of one fault having fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Which supervisor incarnation (0 = first spawn) the fault hit.
    pub incarnation: u32,
    /// The fault that fired.
    pub fault: Fault,
}

/// Shared, consumed-once view of a [`FaultPlan`] handed to stage workers.
///
/// Firing is a compare-and-swap on a per-fault flag, so a fault consumed
/// in one incarnation stays consumed after a supervisor restart.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<AtomicBool>,
}

impl FaultInjector {
    /// Wraps a plan with fresh (unfired) state.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { plan, fired }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consumes and returns the fault scheduled for `(stage, subnet,
    /// task)` at `site`, if one is still pending. At most one fault per
    /// call site fires; each fault fires exactly once per run.
    pub(crate) fn fire(
        &self,
        stage: u32,
        subnet: u64,
        task: TaskKind,
        site: FaultSite,
    ) -> Option<FaultKind> {
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.stage == stage
                && f.subnet == subnet
                && f.task == task
                && f.kind.site() == site
                && self.fired[i]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.kind);
            }
        }
        None
    }

    /// Indices of the faults that have fired so far.
    pub(crate) fn fired_indices(&self) -> Vec<usize> {
        self.fired
            .iter()
            .enumerate()
            .filter(|(_, f)| f.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// The fault at `index` in the plan.
    pub fn fault(&self, index: usize) -> Fault {
        self.plan.faults[index]
    }
}

/// Installs (once, process-wide) a panic hook that swallows the default
/// "thread panicked" stderr noise for panics injected by a [`FaultPlan`]
/// — their payloads start with `"injected fault"` — and delegates every
/// other panic to the previously installed hook. The supervisor calls
/// this before running a plan with fatal faults so deliberate crashes
/// don't spam test and experiment output.
pub(crate) fn silence_injected_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(7, 4, 40, 8, 2, 3);
        let b = FaultPlan::seeded(7, 4, 40, 8, 2, 3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 4, 40, 8, 2, 3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn seeded_fatal_faults_land_in_distinct_epochs() {
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 4, 48, 8, 3, 2);
            let epochs: Vec<u64> = plan.fatal_faults().map(|f| f.subnet / 8).collect();
            let mut dedup = epochs.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(epochs.len(), dedup.len(), "seed {seed}: {epochs:?}");
            assert_eq!(plan.fatal_faults().count(), 3);
        }
    }

    #[test]
    fn seeded_transients_are_survivable() {
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 4, 40, 0, 1, 4);
            // Without checkpoints there is a single epoch: one fatal max.
            assert!(plan.fatal_faults().count() <= 1);
            for f in plan.faults() {
                match f.kind {
                    FaultKind::TransientSend { failures }
                    | FaultKind::TransientRecv { failures } => {
                        assert!(failures <= MAX_RETRIES);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn injector_fires_each_fault_once() {
        let plan = FaultPlan::new()
            .panic_on(1, 5, TaskKind::Forward)
            .transient_send(0, 5, TaskKind::Forward, 2);
        let inj = FaultInjector::new(plan);
        // Wrong site: the panic is an Execute fault.
        assert_eq!(inj.fire(1, 5, TaskKind::Forward, FaultSite::Send), None);
        assert_eq!(
            inj.fire(1, 5, TaskKind::Forward, FaultSite::Execute),
            Some(FaultKind::Panic)
        );
        // Consumed.
        assert_eq!(inj.fire(1, 5, TaskKind::Forward, FaultSite::Execute), None);
        assert_eq!(
            inj.fire(0, 5, TaskKind::Forward, FaultSite::Send),
            Some(FaultKind::TransientSend { failures: 2 })
        );
        assert_eq!(inj.fired_indices(), vec![0, 1]);
    }

    #[test]
    fn fatality_depends_on_retry_budget() {
        assert!(FaultKind::Panic.is_fatal());
        assert!(!FaultKind::Slow { delay_ms: 5 }.is_fatal());
        assert!(!FaultKind::TransientSend { failures: 3 }.is_fatal());
        assert!(FaultKind::TransientSend { failures: 4 }.is_fatal());
    }

    #[test]
    fn display_names_the_trigger() {
        let f = Fault {
            stage: 2,
            subnet: 9,
            task: TaskKind::Backward,
            kind: FaultKind::Panic,
        };
        assert_eq!(f.to_string(), "panic on stage 2 at SN9.bwd");
    }
}

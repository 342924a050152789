//! Shared machinery for the systems-performance experiments (Figures 5–7,
//! Table 2): run a set of systems over a space on the same subnet stream
//! and collect their reports.

use crate::experiments::subnet_stream;
use naspipe_baselines::SystemKind;
use naspipe_core::pipeline::PipelineError;
use naspipe_core::report::PipelineReport;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// The result of running one system on one space.
#[derive(Debug, Clone)]
pub(crate) enum SystemResult {
    /// The run completed.
    Ok(Box<PipelineReport>),
    /// The system could not hold its parameters (Table 2's "failed to
    /// run" cases).
    OutOfMemory,
}

impl SystemResult {
    /// The report, if the run completed.
    pub fn report(&self) -> Option<&PipelineReport> {
        match self {
            SystemResult::Ok(r) => Some(r),
            SystemResult::OutOfMemory => None,
        }
    }
}

/// Runs `system` on `space` with `num_gpus` GPUs over `n` subnets.
///
/// # Panics
///
/// Panics on configuration errors other than out-of-memory (those are
/// harness bugs).
pub(crate) fn run_system(
    space: &SearchSpace,
    system: SystemKind,
    num_gpus: u32,
    n: u64,
) -> SystemResult {
    let subnets = subnet_stream(space, n);
    match system.run(space, num_gpus, subnets) {
        Ok(out) => SystemResult::Ok(Box::new(out.report)),
        Err(PipelineError::OutOfMemory { .. }) => SystemResult::OutOfMemory,
        Err(e) => panic!("{system} on {:?}: {e}", space.id()),
    }
}

/// All four systems on one space (Table 2 / Figure 5 cell group).
pub(crate) fn run_all_systems(
    id: SpaceId,
    num_gpus: u32,
    n: u64,
) -> Vec<(SystemKind, SystemResult)> {
    let space = SearchSpace::from_id(id);
    SystemKind::ALL
        .into_iter()
        .map(|s| (s, run_system(&space, s, num_gpus, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naspipe_and_vpipe_survive_nlp_c0() {
        let results = run_all_systems(SpaceId::NlpC0, 8, 12);
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, _)| *s == k)
                .map(|(_, r)| r.report().is_some())
                .unwrap()
        };
        assert!(get(SystemKind::NasPipe));
        assert!(get(SystemKind::VPipe));
        assert!(!get(SystemKind::GPipe));
        assert!(!get(SystemKind::PipeDream));
    }
}

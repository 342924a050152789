//! One module per reproduced table/figure, plus shared machinery.

pub mod cache_sweep;
pub mod compute;
pub mod crash;
pub mod doctor;
pub mod faults;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod generation;
pub mod obs;
pub mod ops_plane;
pub mod recompute;
pub mod replay;
pub mod soundness;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod telemetry;
pub mod throughput;
pub mod topology;
pub mod trace;
pub mod training;

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::{PipelineError, PipelineOutcome, SimSpec};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;

/// The shared exploration stream all systems train for a given space:
/// identical subnets in identical order, so differences between systems
/// are purely scheduling.
pub fn subnet_stream(space: &SearchSpace, n: u64) -> Vec<Subnet> {
    UniformSampler::new(space, crate::SEED).take_subnets(n as usize)
}

/// Simulates `cfg` over the shared exploration stream.
pub fn simulate(
    space: &SearchSpace,
    cfg: &PipelineConfig,
) -> Result<PipelineOutcome, PipelineError> {
    let mut spec = SimSpec::new(space, cfg);
    spec.subnets = Some(subnet_stream(space, cfg.num_subnets));
    spec.run()
}

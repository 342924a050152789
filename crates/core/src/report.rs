//! Aggregated results of one pipeline run — the quantities reported in
//! Table 2 and Figures 5–7 of the paper.

use crate::config::SyncPolicy;
use crate::context::CacheStats;
use crate::scheduler::SchedulerStats;
use naspipe_supernet::space::SpaceId;

/// Metrics of one simulated pipeline training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// The search space, if a named one.
    pub space: Option<SpaceId>,
    /// The synchronisation policy.
    pub policy: SyncPolicy,
    /// Pipeline depth (`D`).
    pub num_gpus: u32,
    /// Pipeline input batch size per subnet.
    pub batch: u32,
    /// Virtual wall-clock length of the run, seconds.
    pub makespan_secs: f64,
    /// Subnets fully trained.
    pub subnets_completed: u64,
    /// Input samples consumed.
    pub samples_processed: u64,
    /// Mean idle fraction across GPUs (the "Bub." column).
    pub bubble_ratio: f64,
    /// Total ALU utilisation normalised to one GPU (the "GPU ALU"
    /// column's `x` factor): busy fraction x batch efficiency, summed.
    pub total_alu: f64,
    /// Total GPU memory high-water normalised to one GPU's capacity (the
    /// "GPU Mem." column's `x` factor).
    pub gpu_mem_factor: f64,
    /// Pinned CPU memory consumed, GiB (the "CPU Mem." column).
    pub cpu_mem_gib: f64,
    /// Average bubble-eliminated execution time per subnet, seconds (the
    /// "Exec." column).
    pub avg_subnet_exec_secs: f64,
    /// Layer cache hit rate, if the policy swaps parameters (the
    /// "Cache Hit" column); `None` renders as "N/A".
    pub cache_hit_rate: Option<f64>,
    /// Parameter bytes the "P.S." column reports (cached parameters for
    /// swapping systems, whole supernet otherwise).
    pub reported_param_bytes: u64,
    /// Aggregated cache statistics across stages.
    pub cache_stats: CacheStats,
    /// Aggregated scheduler statistics across stages.
    pub scheduler_stats: SchedulerStats,
    /// Per-stage idle seconds attributable to causal blocking (queued
    /// work, none admissible) — diagnostic behind the bubble ratio.
    pub stage_idle_blocked_secs: Vec<f64>,
    /// Per-stage idle seconds with no queued work at all.
    pub stage_idle_empty_secs: Vec<f64>,
}

impl PipelineReport {
    /// Throughput in samples per virtual second.
    pub fn throughput_samples_per_sec(&self) -> f64 {
        if self.makespan_secs == 0.0 {
            return 0.0;
        }
        self.samples_processed as f64 / self.makespan_secs
    }

    /// Subnets traversed per virtual hour (the red-bar annotations of
    /// Figures 5 and 6).
    pub fn subnets_per_hour(&self) -> f64 {
        if self.makespan_secs == 0.0 {
            return 0.0;
        }
        self.subnets_completed as f64 / (self.makespan_secs / 3_600.0)
    }

    /// Reported parameter count in units of 1e6 parameters (f32), the
    /// paper's "1327M"-style figures.
    pub fn reported_param_m(&self) -> f64 {
        self.reported_param_bytes as f64 / 4.0 / 1e6
    }
}

/// GPU compute efficiency at a given batch size, relative to the
/// saturating batch: small batches underutilise the ALUs even while the
/// GPU is "busy". `reference` is the space's default pipeline batch.
pub fn alu_efficiency(batch: u32, reference: u32) -> f64 {
    let b = f64::from(batch);
    let half_sat = f64::from(reference) / 2.0;
    b / (b + half_sat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PipelineReport {
        PipelineReport {
            space: Some(SpaceId::NlpC1),
            policy: SyncPolicy::naspipe(),
            num_gpus: 8,
            batch: 192,
            makespan_secs: 100.0,
            subnets_completed: 50,
            samples_processed: 9_600,
            bubble_ratio: 0.4,
            total_alu: 3.5,
            gpu_mem_factor: 7.8,
            cpu_mem_gib: 57.8,
            avg_subnet_exec_secs: 1.1,
            cache_hit_rate: Some(0.9),
            reported_param_bytes: 5_308_000_000,
            cache_stats: CacheStats::default(),
            scheduler_stats: SchedulerStats::default(),
            stage_idle_blocked_secs: vec![0.0; 8],
            stage_idle_empty_secs: vec![0.0; 8],
        }
    }

    #[test]
    fn derived_rates() {
        let r = report();
        assert!((r.throughput_samples_per_sec() - 96.0).abs() < 1e-9);
        assert!((r.subnets_per_hour() - 1_800.0).abs() < 1e-9);
        assert!((r.reported_param_m() - 1_327.0).abs() < 1.0);
    }

    #[test]
    fn zero_makespan_rates_are_zero() {
        let mut r = report();
        r.makespan_secs = 0.0;
        assert_eq!(r.throughput_samples_per_sec(), 0.0);
        assert_eq!(r.subnets_per_hour(), 0.0);
    }

    #[test]
    fn efficiency_grows_with_batch_and_saturates() {
        assert!(alu_efficiency(16, 192) < alu_efficiency(64, 192));
        assert!(alu_efficiency(64, 192) < alu_efficiency(192, 192));
        assert!(alu_efficiency(192, 192) > 0.6);
        assert!(alu_efficiency(192, 192) < 1.0);
    }
}

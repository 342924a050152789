//! Per-stage runtime observability: the `naspipe-obs` report for a CSP
//! run — utilization, stall/bubble split, backward-first preemptions,
//! queue depths, task latencies and context-cache behaviour per stage —
//! rendered as a table and, on request, as JSON for downstream tooling.
//!
//! This is the report sink for the metrics the engine records while the
//! other experiments only aggregate: where Table 2 gives one bubble
//! ratio and one cache-hit rate per run, this breaks both down by stage
//! and adds the dispatch-level signals (how often the backward-first
//! rule fired, how deep queues ran, where idle time was a causal stall
//! vs a genuine bubble).

use crate::experiments::simulate;
use naspipe_core::config::PipelineConfig;
use naspipe_obs::ObsReport;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One observed run.
#[derive(Debug, Clone)]
pub struct ObsRun {
    /// The space trained.
    pub space: SpaceId,
    /// GPUs (= pipeline stages).
    pub num_gpus: u32,
    /// Subnets trained.
    pub num_subnets: u64,
    /// The per-stage observability report.
    pub report: ObsReport,
}

/// Trains `n` subnets of `id` under NASPipe on `num_gpus` GPUs and
/// returns the observability snapshot.
pub fn run(id: SpaceId, num_gpus: u32, n: u64) -> ObsRun {
    let space = SearchSpace::from_id(id);
    let cfg = PipelineConfig::naspipe(num_gpus, n);
    let out = simulate(&space, &cfg).expect("NASPipe fits");
    ObsRun {
        space: id,
        num_gpus,
        num_subnets: n,
        report: out.obs,
    }
}

/// Renders the per-stage table plus run totals.
pub fn render(run: &ObsRun) -> String {
    format!(
        "{} on {} GPUs, {} subnets:\n{}",
        run.space,
        run.num_gpus,
        run.num_subnets,
        run.report.render_text()
    )
}

/// Renders the report as a JSON object.
pub fn render_json(run: &ObsRun) -> String {
    run.report.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_stages_and_names_the_key_ratios() {
        let r = run(SpaceId::NlpC2, 4, 24);
        assert_eq!(r.report.stages.len(), 4);
        let text = render(&r);
        assert!(text.contains("bubble ratio"));
        assert!(text.contains("cache hit rate"));
        // CSP on NLP.c2 swaps contexts: per-stage cache numbers present.
        assert!(r.report.cache_hit_rate() > 0.0);
        let json = render_json(&r);
        assert!(json.contains("\"stages\":["));
    }
}

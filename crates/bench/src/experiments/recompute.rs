//! Extra experiment: the recompute-ahead optimisation (DESIGN.md 3a.2).
//!
//! CSP hoists activation recomputation out of the backward task: a stage
//! recomputes a subnet whose backward is still to come when it goes idle,
//! or at the latest when the backward wave reaches the stage above, so
//! the backward wave — the term every causal dependency waits on — moves
//! at backward-only speed. This ablation disables the hoist and measures
//! the damage across search-space sizes.

use crate::experiments::simulate;
use crate::format::render_table;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One space's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputeRow {
    /// The space.
    pub space: SpaceId,
    /// Throughput with recompute-ahead (samples/s).
    pub ahead_throughput: f64,
    /// Bubble with recompute-ahead.
    pub ahead_bubble: f64,
    /// Throughput with in-backward rematerialisation.
    pub inline_throughput: f64,
    /// Bubble with in-backward rematerialisation.
    pub inline_bubble: f64,
}

/// Runs the ablation over the NLP spaces (8 GPUs).
pub fn run(n: u64) -> Vec<RecomputeRow> {
    [SpaceId::NlpC1, SpaceId::NlpC2, SpaceId::NlpC3]
        .into_iter()
        .map(|id| {
            let space = SearchSpace::from_id(id);
            let measure = |ahead: bool| {
                let mut cfg = SystemKind::NasPipe.config(8, n);
                cfg.recompute_ahead = ahead;
                let out = simulate(&space, &cfg).expect("NASPipe fits");
                (
                    out.report.throughput_samples_per_sec(),
                    out.report.bubble_ratio,
                )
            };
            let (ahead_throughput, ahead_bubble) = measure(true);
            let (inline_throughput, inline_bubble) = measure(false);
            RecomputeRow {
                space: id,
                ahead_throughput,
                ahead_bubble,
                inline_throughput,
                inline_bubble,
            }
        })
        .collect()
}

/// Renders the ablation.
pub fn render(rows: &[RecomputeRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.space.to_string(),
                format!("{:.0} (bub {:.2})", r.ahead_throughput, r.ahead_bubble),
                format!("{:.0} (bub {:.2})", r.inline_throughput, r.inline_bubble),
                format!("{:.2}x", r.ahead_throughput / r.inline_throughput),
            ]
        })
        .collect();
    render_table(
        &["Space", "Recompute-ahead", "In-backward", "Speedup"],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoisting_recomputation_helps() {
        let rows = run(64);
        for r in &rows {
            assert!(
                r.ahead_throughput >= r.inline_throughput,
                "{}: ahead {} !>= inline {}",
                r.space,
                r.ahead_throughput,
                r.inline_throughput
            );
            assert!(r.ahead_bubble <= r.inline_bubble + 0.01);
        }
        // The effect is material on at least one space.
        assert!(rows
            .iter()
            .any(|r| r.ahead_throughput > r.inline_throughput * 1.05));
    }
}

//! Figure 7: total ALU utilisation of the four systems with a scaled
//! number of GPUs (NLP.c1).
//!
//! NASPipe scales sub-linearly (communication and a growing causal bubble
//! eat in); the baselines scale worse. GPipe/PipeDream need enough GPUs
//! to hold the supernet's stage slices at all, so their series start
//! where they fit.

use crate::format::render_table;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// GPU counts swept, as in the paper.
pub const GPU_COUNTS: [u32; 4] = [4, 8, 12, 16];

/// One system's scalability series.
#[derive(Debug, Clone)]
pub struct Fig7Series {
    /// The system.
    pub system: SystemKind,
    /// `(gpus, total ALU)`; `None` marks OOM at that depth.
    pub points: Vec<(u32, Option<f64>)>,
}

/// One system's bubble-ratio series (the §5.4 observation that NASPipe's
/// causal bubble grows slightly with depth).
#[derive(Debug, Clone)]
pub struct BubblePoint {
    /// GPU count.
    pub gpus: u32,
    /// NASPipe's bubble ratio.
    pub bubble: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One series per system.
    pub series: Vec<Fig7Series>,
    /// NASPipe's bubble growth with depth.
    pub naspipe_bubbles: Vec<BubblePoint>,
}

/// Runs the sweep on `id` with `n` subnets per point.
///
/// Each system keeps the batch size derived for the default 8-GPU setup
/// across the whole sweep (the paper scales GPUs under the Table 1
/// default configuration); a point is OOM when the system's parameters do
/// not fit at that depth.
pub fn run(id: SpaceId, n: u64) -> Fig7 {
    let space = SearchSpace::from_id(id);
    let mut naspipe_bubbles = Vec::new();
    let series = SystemKind::ALL
        .into_iter()
        .map(|system| {
            let batch8 = naspipe_core::memory::plan(&space, system.policy(), 8, 3.0)
                .verdict
                .batch();
            let points = GPU_COUNTS
                .into_iter()
                .map(|gpus| {
                    // Parameters must fit at *this* depth.
                    let fits = naspipe_core::memory::plan(&space, system.policy(), gpus, 3.0)
                        .verdict
                        .batch()
                        .is_some();
                    let (Some(batch), true) = (batch8, fits) else {
                        return (gpus, None);
                    };
                    let cfg = system.config(gpus, n).with_batch(batch);
                    let out =
                        crate::experiments::simulate(&space, &cfg).expect("feasible point runs");
                    if system == SystemKind::NasPipe {
                        naspipe_bubbles.push(BubblePoint {
                            gpus,
                            bubble: out.report.bubble_ratio,
                        });
                    }
                    (gpus, Some(out.report.total_alu))
                })
                .collect();
            Fig7Series { system, points }
        })
        .collect();
    Fig7 {
        series,
        naspipe_bubbles,
    }
}

/// Renders the figure.
pub fn render(fig: &Fig7) -> String {
    let rows: Vec<Vec<String>> = fig
        .series
        .iter()
        .map(|s| {
            let mut row = vec![s.system.to_string()];
            for (_, alu) in &s.points {
                row.push(match alu {
                    Some(v) => format!("{v:.2}x"),
                    None => "OOM".into(),
                });
            }
            row
        })
        .collect();
    let mut out = render_table(&["System", "4 GPUs", "8 GPUs", "12 GPUs", "16 GPUs"], &rows);
    out.push_str("\nNASPipe bubble ratio by depth: ");
    out.push_str(
        &fig.naspipe_bubbles
            .iter()
            .map(|b| format!("{}GPU {:.2}", b.gpus, b.bubble))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naspipe_alu_grows_with_gpus() {
        let fig = run(SpaceId::NlpC1, 64);
        let nas = fig
            .series
            .iter()
            .find(|s| s.system == SystemKind::NasPipe)
            .unwrap();
        let alu4 = nas.points[0].1.unwrap();
        let alu16 = nas.points[3].1.unwrap();
        assert!(alu16 > alu4 * 1.3, "4GPU {alu4} -> 16GPU {alu16}");
        // Sub-linear: 4x the GPUs gives less than 4x the ALU.
        assert!(alu16 < alu4 * 4.0);
    }

    #[test]
    fn naspipe_dominates_non_swapping_baselines() {
        // NASPipe beats GPipe and PipeDream at every depth where they fit,
        // and stays within ~30% of VPipe (which reaches its utilisation
        // only by abandoning dependency preservation; the causal bubble's
        // cost grows with depth — see EXPERIMENTS.md).
        let fig = run(SpaceId::NlpC1, 64);
        let nas: Vec<Option<f64>> = fig
            .series
            .iter()
            .find(|s| s.system == SystemKind::NasPipe)
            .unwrap()
            .points
            .iter()
            .map(|&(_, a)| a)
            .collect();
        for s in &fig.series {
            if s.system == SystemKind::NasPipe {
                continue;
            }
            for (i, &(_, alu)) in s.points.iter().enumerate() {
                let (Some(other), Some(ours)) = (alu, nas[i]) else {
                    continue;
                };
                if s.system == SystemKind::VPipe {
                    assert!(
                        ours > other * 0.7,
                        "NASPipe more than 30% behind VPipe at {} GPUs: {ours} vs {other}",
                        s.points[i].0
                    );
                } else {
                    assert!(
                        ours > other,
                        "{} beats NASPipe at {} GPUs: {other} vs {ours}",
                        s.system,
                        s.points[i].0
                    );
                }
            }
        }
    }

    #[test]
    fn render_marks_infeasible_depths() {
        let fig = run(SpaceId::NlpC1, 16);
        let s = render(&fig);
        assert!(
            s.contains("OOM"),
            "GPipe cannot hold NLP.c1 on 4 GPUs:\n{s}"
        );
        assert!(s.contains("bubble ratio"));
    }
}

//! Figure 4: end-to-end training convergence of the four systems.
//!
//! For each space, every system trains the same subnet stream on 8 GPUs;
//! the replayed losses form the convergence curve. The paper's message —
//! NASPipe converges to a better score than GPipe (BSP) and PipeDream
//! (ASP) because stale/torn reads hurt the exploration algorithm's
//! assumptions — shows up as ordering of the converged losses.

use crate::experiments::training::{search_score, train, training_space};
use crate::format::render_table;
use crate::score::render_score;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::SpaceId;

/// One system's convergence curve on one space.
#[derive(Debug, Clone)]
pub struct Curve {
    /// The system.
    pub system: SystemKind,
    /// `(step, smoothed loss)` samples.
    pub points: Vec<(u64, f64)>,
    /// Converged loss (tail mean).
    pub final_loss: f64,
    /// Score of the best searched subnet.
    pub score: f64,
}

/// One space's panel.
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// The space.
    pub space: SpaceId,
    /// One curve per system.
    pub curves: Vec<Curve>,
}

/// Moving-average smoothing over a window of `w` steps.
fn smooth(losses: &[(u64, f32)], w: usize) -> Vec<(u64, f64)> {
    losses
        .iter()
        .enumerate()
        .map(|(i, &(step, _))| {
            let lo = i.saturating_sub(w - 1);
            let window = &losses[lo..=i];
            let mean = window.iter().map(|&(_, l)| f64::from(l)).sum::<f64>() / window.len() as f64;
            (step, mean)
        })
        .collect()
}

/// Runs one panel (4 systems on `id`, 8 GPUs, `n` subnets).
pub(crate) fn panel_for(id: SpaceId, n: u64) -> Fig4Panel {
    let space = training_space(id);
    let curves = SystemKind::ALL
        .into_iter()
        .map(|system| {
            let result = train(&space, system, 8, n);
            let score = search_score(&space, &result);
            Curve {
                system,
                points: smooth(&result.losses, 16),
                final_loss: result.converged_loss(),
                score,
            }
        })
        .collect();
    Fig4Panel { space: id, curves }
}

/// Runs the figure over the six Table 2 spaces.
pub fn run(n: u64) -> Vec<Fig4Panel> {
    SpaceId::TABLE2
        .into_iter()
        .map(|id| panel_for(id, n))
        .collect()
}

/// Renders one panel: loss at five checkpoints plus final score.
pub fn render(panels: &[Fig4Panel]) -> String {
    let mut out = String::new();
    for panel in panels {
        out.push_str(&format!("\n== {} ==\n", panel.space));
        let rows: Vec<Vec<String>> = panel
            .curves
            .iter()
            .map(|c| {
                let at = |frac: f64| -> String {
                    let idx = ((c.points.len() as f64 - 1.0) * frac) as usize;
                    format!("{:.4}", c.points[idx].1)
                };
                vec![
                    c.system.to_string(),
                    at(0.1),
                    at(0.25),
                    at(0.5),
                    at(0.75),
                    at(1.0),
                    render_score(panel.space.domain(), c.score),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["System", "10%", "25%", "50%", "75%", "final", "Score"],
            &rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_fall_over_training() {
        let panel = panel_for(SpaceId::CvC3, 80);
        for c in &panel.curves {
            let first = c.points[8].1;
            assert!(
                c.final_loss < first,
                "{} did not converge: {first} -> {}",
                c.system,
                c.final_loss
            );
        }
    }

    #[test]
    fn smoothing_averages() {
        let raw = vec![(0u64, 2.0f32), (1, 4.0), (2, 6.0)];
        let s = smooth(&raw, 2);
        assert_eq!(s[0].1, 2.0);
        assert_eq!(s[1].1, 3.0);
        assert_eq!(s[2].1, 5.0);
    }

    #[test]
    fn render_contains_systems() {
        let panel = panel_for(SpaceId::CvC3, 40);
        let s = render(&[panel]);
        assert!(s.contains("NASPipe") && s.contains("VPipe"));
        assert!(s.contains("CV.c3"));
    }
}

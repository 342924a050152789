//! Figure 5: normalised training throughput of the four systems on the
//! seven search spaces (8 GPUs), with NASPipe's subnets/hour annotated.
//!
//! Throughput is samples per virtual second, normalised per space to
//! GPipe (the BSP reference) where it runs; on NLP.c0, where GPipe and
//! PipeDream cannot hold the supernet, bars are normalised to VPipe.

use crate::experiments::throughput::run_all_systems;
use crate::format::render_table;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::SpaceId;

/// One space's bar group.
#[derive(Debug, Clone)]
pub struct Fig5Group {
    /// The space.
    pub space: SpaceId,
    /// `(system, normalised throughput)`; `None` marks an OOM failure.
    pub bars: Vec<(SystemKind, Option<f64>)>,
    /// NASPipe's traversed subnets per hour (red-bar annotation).
    pub naspipe_subnets_per_hour: f64,
}

/// Runs the full figure (7 spaces x 4 systems).
pub fn run(num_gpus: u32, n: u64) -> Vec<Fig5Group> {
    SpaceId::ALL
        .into_iter()
        .map(|id| group_for(id, num_gpus, n))
        .collect()
}

/// Runs one space's bar group.
pub(crate) fn group_for(id: SpaceId, num_gpus: u32, n: u64) -> Fig5Group {
    let results = run_all_systems(id, num_gpus, n);
    let throughput = |k: SystemKind| -> Option<f64> {
        results
            .iter()
            .find(|(s, _)| *s == k)
            .and_then(|(_, r)| r.report().map(|rep| rep.throughput_samples_per_sec()))
    };
    let baseline = throughput(SystemKind::GPipe)
        .or_else(|| throughput(SystemKind::VPipe))
        .expect("at least one baseline runs everywhere");
    let bars = SystemKind::ALL
        .into_iter()
        .map(|k| (k, throughput(k).map(|t| t / baseline)))
        .collect();
    let naspipe_subnets_per_hour = results
        .iter()
        .find(|(s, _)| *s == SystemKind::NasPipe)
        .and_then(|(_, r)| r.report().map(|rep| rep.subnets_per_hour()))
        .expect("NASPipe always runs");
    Fig5Group {
        space: id,
        bars,
        naspipe_subnets_per_hour,
    }
}

/// Renders the figure as a table.
pub fn render(groups: &[Fig5Group]) -> String {
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            let mut row = vec![g.space.to_string()];
            for (_, bar) in &g.bars {
                row.push(match bar {
                    Some(v) => format!("{v:.2}"),
                    None => "OOM".to_string(),
                });
            }
            row.push(format!("{:.0}", g.naspipe_subnets_per_hour));
            row
        })
        .collect();
    render_table(
        &[
            "Space",
            "NASPipe",
            "GPipe",
            "PipeDream",
            "VPipe",
            "NASPipe subnets/h",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naspipe_beats_gpipe_on_large_nlp_space() {
        let g = group_for(SpaceId::NlpC1, 8, 48);
        let bar = |k: SystemKind| g.bars.iter().find(|(s, _)| *s == k).unwrap().1;
        let nas = bar(SystemKind::NasPipe).unwrap();
        let gp = bar(SystemKind::GPipe).unwrap();
        assert!((gp - 1.0).abs() < 1e-9, "GPipe is the normalisation base");
        assert!(
            nas > 2.0,
            "NASPipe {nas} should beat GPipe by a wide margin"
        );
        assert!(g.naspipe_subnets_per_hour > 0.0);
    }

    #[test]
    fn advantage_shrinks_on_small_spaces() {
        let big = group_for(SpaceId::NlpC1, 8, 48);
        let small = group_for(SpaceId::NlpC3, 8, 48);
        let nas = |g: &Fig5Group| {
            g.bars
                .iter()
                .find(|(s, _)| *s == SystemKind::NasPipe)
                .unwrap()
                .1
                .unwrap()
        };
        assert!(
            nas(&big) > nas(&small),
            "gap should grow with space size: c1 {} !> c3 {}",
            nas(&big),
            nas(&small)
        );
    }

    #[test]
    fn render_marks_oom() {
        let g = group_for(SpaceId::NlpC0, 8, 12);
        let s = render(&[g]);
        assert!(s.contains("OOM"));
    }
}

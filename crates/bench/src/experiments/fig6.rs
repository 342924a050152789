//! Figure 6: ablation of NASPipe's three components — scheduler,
//! predictor, layer mirroring — across the seven search spaces.
//!
//! Each variant disables exactly one component:
//! * **w/o scheduler** — subnets execute one pipeline at a time (bubble
//!   ratio ~0.75 in the paper);
//! * **w/o predictor** — the whole supernet must reside in GPU memory
//!   (batch shrinks to GPipe's; NLP.c0 stops fitting);
//! * **w/o mirroring** — one static partition for all subnets (per-subnet
//!   load imbalance).

use crate::experiments::simulate;
use crate::format::render_table;
use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::PipelineError;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// The four ablation variants in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All components enabled.
    Full,
    /// CSP scheduler disabled.
    WithoutScheduler,
    /// Context predictor disabled.
    WithoutPredictor,
    /// Layer mirroring disabled.
    WithoutMirroring,
}

impl Variant {
    /// All variants.
    pub const ALL: [Variant; 4] = [
        Variant::Full,
        Variant::WithoutScheduler,
        Variant::WithoutPredictor,
        Variant::WithoutMirroring,
    ];

    /// The policy with this variant's component disabled.
    pub fn policy(self) -> SyncPolicy {
        let (scheduler, predictor, mirroring) = match self {
            Variant::Full => (true, true, true),
            Variant::WithoutScheduler => (false, true, true),
            Variant::WithoutPredictor => (true, false, true),
            Variant::WithoutMirroring => (true, true, false),
        };
        SyncPolicy::Csp {
            scheduler,
            predictor,
            mirroring,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "NASPipe",
            Variant::WithoutScheduler => "w/o scheduler",
            Variant::WithoutPredictor => "w/o predictor",
            Variant::WithoutMirroring => "w/o mirroring",
        }
    }
}

/// One space's ablation group.
#[derive(Debug, Clone)]
pub struct Fig6Group {
    /// The space.
    pub space: SpaceId,
    /// `(variant, throughput normalised to full NASPipe, bubble)`;
    /// `None` marks OOM (w/o predictor on NLP.c0).
    pub bars: Vec<(Variant, Option<(f64, f64)>)>,
}

/// Runs one space's ablation.
pub fn group_for(id: SpaceId, num_gpus: u32, n: u64) -> Fig6Group {
    let space = SearchSpace::from_id(id);
    let run_variant = |v: Variant| -> Option<(f64, f64)> {
        let cfg = PipelineConfig::naspipe(num_gpus, n)
            .with_policy(v.policy())
            .with_seed(crate::SEED);
        match simulate(&space, &cfg) {
            Ok(out) => Some((
                out.report.throughput_samples_per_sec(),
                out.report.bubble_ratio,
            )),
            Err(PipelineError::OutOfMemory { .. }) => None,
            Err(e) => panic!("{} on {id}: {e}", v.label()),
        }
    };
    let full = run_variant(Variant::Full).expect("full NASPipe always runs");
    let bars = Variant::ALL
        .into_iter()
        .map(|v| {
            let r = if v == Variant::Full {
                Some(full)
            } else {
                run_variant(v)
            };
            (v, r.map(|(t, b)| (t / full.0, b)))
        })
        .collect();
    Fig6Group { space: id, bars }
}

/// Runs the figure over all seven spaces.
pub fn run(num_gpus: u32, n: u64) -> Vec<Fig6Group> {
    SpaceId::ALL
        .into_iter()
        .map(|id| group_for(id, num_gpus, n))
        .collect()
}

/// Renders the figure.
pub fn render(groups: &[Fig6Group]) -> String {
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            let mut row = vec![g.space.to_string()];
            for (_, bar) in &g.bars {
                row.push(match bar {
                    Some((t, b)) => format!("{t:.2} (bub {b:.2})"),
                    None => "OOM".into(),
                });
            }
            row
        })
        .collect();
    render_table(
        &[
            "Space",
            "NASPipe",
            "w/o scheduler",
            "w/o predictor",
            "w/o mirroring",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(g: &Fig6Group, v: Variant) -> Option<(f64, f64)> {
        g.bars.iter().find(|(b, _)| *b == v).unwrap().1
    }

    #[test]
    fn every_component_contributes() {
        // NLP.c2's supernet is large enough that holding it in GPU memory
        // (w/o predictor) genuinely shrinks the batch.
        let g = group_for(SpaceId::NlpC2, 8, 64);
        let full = bar(&g, Variant::Full).unwrap().0;
        assert!((full - 1.0).abs() < 1e-9);
        for v in [Variant::WithoutScheduler, Variant::WithoutPredictor] {
            let t = bar(&g, v).expect("NLP.c2 fits all variants").0;
            assert!(t < 0.95, "{} should be slower than full ({t})", v.label());
        }
        // Mirroring's measured effect is small (the paper's Figure 6 also
        // shows throughput only "slightly dropped" without it).
        let t = bar(&g, Variant::WithoutMirroring).unwrap().0;
        assert!(t < 1.05, "w/o mirroring should not be faster ({t})");
    }

    #[test]
    fn without_scheduler_has_big_bubble() {
        let g = group_for(SpaceId::CvC2, 8, 48);
        let (_, bubble) = bar(&g, Variant::WithoutScheduler).unwrap();
        assert!(bubble > 0.6, "fill-drain bubble {bubble} should be large");
    }

    #[test]
    fn without_predictor_ooms_on_nlp_c0() {
        let g = group_for(SpaceId::NlpC0, 8, 12);
        assert!(bar(&g, Variant::WithoutPredictor).is_none());
        assert!(bar(&g, Variant::Full).is_some());
    }

    #[test]
    fn labels_and_policies() {
        assert_eq!(Variant::Full.label(), "NASPipe");
        assert!(matches!(
            Variant::WithoutPredictor.policy(),
            SyncPolicy::Csp {
                predictor: false,
                scheduler: true,
                mirroring: true
            }
        ));
    }
}

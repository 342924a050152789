//! ASCII Gantt rendering of pipeline schedules — Figure 1 as text.
//!
//! Each stage is one row; time runs left to right. A cell shows the
//! subnet occupying the stage at that instant: digits/letters for
//! forwards, the same symbol dimmed to lowercase-style (prefixed rows use
//! `F`/`B` markers) for backwards, `.` for idle. Subnet `n` renders as
//! the character `SYMBOLS[n % 36]`.
//!
//! The `F`/`B` rows are the run's task records, which every outcome has;
//! a traced run's span stream ([`PipelineOutcome::spans`]) only adds a
//! third `R` row per stage for hoisted recompute activity.

use crate::pipeline::PipelineOutcome;
use crate::task::TaskKind;
use naspipe_obs::SpanKind;
use std::fmt::Write as _;

const SYMBOLS: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// One paintable interval: which stage row it lands on and what symbol
/// fills it.
struct Cell {
    stage: u32,
    row: Row,
    sym: u8,
    start_us: u64,
    end_us: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Row {
    Fwd,
    Bwd,
    /// Recompute activity (from spans).
    Aux,
}

fn subnet_symbol(subnet: u64) -> u8 {
    SYMBOLS[(subnet % 36) as usize]
}

/// Forward and backward cells from the task records, plus an `R` row of
/// recompute spans (subnet symbol) from the span stream.
fn cells(outcome: &PipelineOutcome) -> Vec<Cell> {
    let tasks = outcome.tasks.iter().map(|t| Cell {
        stage: t.stage.0,
        row: match t.kind {
            TaskKind::Forward => Row::Fwd,
            TaskKind::Backward => Row::Bwd,
        },
        sym: subnet_symbol(t.subnet.0),
        start_us: t.start.as_us(),
        end_us: t.end.as_us(),
    });
    let aux = outcome
        .spans
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Recompute)
        .map(|s| Cell {
            stage: s.stage,
            row: Row::Aux,
            sym: subnet_symbol(s.subnet.unwrap_or(0)),
            start_us: s.start_us,
            end_us: s.end_us,
        });
    tasks.chain(aux).collect()
}

/// Renders the schedule of `outcome` as an ASCII Gantt chart of `width`
/// columns.
///
/// Forward cells render as the subnet's symbol on the stage's `F` row,
/// backwards on its `B` row. When the outcome carries a span trace,
/// stages with recompute spans additionally get an `R` row.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn render_gantt(outcome: &PipelineOutcome, width: usize) -> String {
    assert!(width > 0, "width must be positive");
    let cells = cells(outcome);
    let stages = cells
        .iter()
        .map(|c| c.stage)
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    let makespan = cells.iter().map(|c| c.end_us).max().unwrap_or(0).max(1);
    let col =
        |us: u64| -> usize { ((us as u128 * width as u128) / (makespan as u128 + 1)) as usize };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "time 0 .. {:.2}s ({} cols; digits = subnet id mod 36, '.' = idle)",
        makespan as f64 / 1e6,
        width
    );
    for k in 0..stages {
        for (row, label) in [(Row::Fwd, 'F'), (Row::Bwd, 'B'), (Row::Aux, 'R')] {
            let on_row: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.stage == k && c.row == row)
                .collect();
            if row == Row::Aux && on_row.is_empty() {
                continue; // R rows only where recompute happened
            }
            let mut chars = vec![b'.'; width];
            for c in on_row {
                let lo = col(c.start_us);
                let hi = col(c.end_us).max(lo + 1).min(width);
                for cell in &mut chars[lo..hi] {
                    *cell = c.sym;
                }
            }
            let _ = writeln!(
                out,
                "P{k}.{label} |{}|",
                String::from_utf8(chars).expect("ASCII row")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SyncPolicy};
    use crate::pipeline::SimSpec;
    use naspipe_obs::NullTracer;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe_supernet::space::SearchSpace;

    fn outcome(policy: SyncPolicy) -> PipelineOutcome {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
        let subnets = UniformSampler::new(&space, 3).take_subnets(6);
        let mut cfg = PipelineConfig::naspipe(4, 6).with_batch(16).with_seed(3);
        cfg.policy = policy;
        SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap()
    }

    #[test]
    fn renders_all_stage_rows() {
        let g = render_gantt(&outcome(SyncPolicy::naspipe()), 72);
        for k in 0..4 {
            assert!(g.contains(&format!("P{k}.F")), "{g}");
            assert!(g.contains(&format!("P{k}.B")), "{g}");
        }
        assert!(g.contains("time 0"));
    }

    #[test]
    fn every_subnet_appears() {
        let g = render_gantt(&outcome(SyncPolicy::naspipe()), 120);
        for sym in ['0', '1', '2', '3', '4', '5'] {
            assert!(g.contains(sym), "missing subnet {sym} in:\n{g}");
        }
    }

    #[test]
    fn rows_have_requested_width() {
        let g = render_gantt(&outcome(SyncPolicy::Asp), 50);
        for line in g.lines().skip(1) {
            let body = line.split('|').nth(1).expect("framed row");
            assert_eq!(body.len(), 50);
        }
    }

    #[test]
    fn span_and_task_renderings_agree_on_compute_rows() {
        // The span stream must paint the same F/B picture the task
        // records do; spans only *add* R rows.
        let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
        let subnets = UniformSampler::new(&space, 3).take_subnets(6);
        let cfg = PipelineConfig::naspipe(4, 6).with_batch(16).with_seed(3);
        let traced = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        let untraced = SimSpec {
            subnets: Some(subnets),
            tracer: Box::new(NullTracer),
            ..SimSpec::new(&space, &cfg)
        }
        .run()
        .unwrap();
        assert!(untraced.spans.spans().is_empty());
        let from_spans = render_gantt(&traced, 80);
        let from_tasks = render_gantt(&untraced, 80);
        let fb = |g: &str| -> Vec<String> {
            g.lines()
                .filter(|l| l.contains(".F ") || l.contains(".B "))
                .map(String::from)
                .collect()
        };
        assert_eq!(fb(&from_spans), fb(&from_tasks));
    }

    #[test]
    fn hoisted_recompute_marks_the_aux_row() {
        // CSP recomputes ahead of the backward wave, as spans of their
        // own; the BSP baselines redo the forward inside the backward.
        let has_r_row = |g: &str| g.lines().any(|l| l.contains(".R "));
        let csp = render_gantt(&outcome(SyncPolicy::naspipe()), 100);
        assert!(has_r_row(&csp), "no R row:\n{csp}");
        let gpipe = SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        };
        let bsp = render_gantt(&outcome(gpipe), 100);
        assert!(
            !has_r_row(&bsp),
            "in-backward recompute has no R row:\n{bsp}"
        );
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        render_gantt(&outcome(SyncPolicy::naspipe()), 0);
    }
}

//! Figure 1: ASP vs BSP vs CSP pipeline schedules on an ordered subnet
//! list with causal dependencies.
//!
//! A small subnet list with deliberate layer sharing is run under all
//! three disciplines on 4 stages; for each we report the dependency
//! violations (accesses out of sequential order) and the bubble ratio —
//! reproducing the figure's message: only CSP retains every dependency at
//! a reasonable bubble rate.

use crate::format::{percent, render_table};
use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::{PipelineOutcome, SimSpec};
use naspipe_core::repro::all_access_orders;
use naspipe_supernet::layer::Domain;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};

/// One row of the Figure 1 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Discipline name ("ASP"/"BSP"/"CSP").
    pub discipline: &'static str,
    /// Layers whose access order violates sequential equivalence.
    pub violated_layers: usize,
    /// Layers carrying at least one cross-subnet dependency.
    pub dependent_layers: usize,
    /// Pipeline bubble ratio.
    pub bubble_ratio: f64,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// One row per discipline.
    pub rows: Vec<Fig1Row>,
    /// `(discipline, ASCII Gantt chart)` of each schedule.
    pub gantts: Vec<(&'static str, String)>,
}

/// The deliberately conflicting subnet list of the figure: consecutive
/// subnets share layers, distant ones do not.
fn figure_subnets() -> (SearchSpace, Vec<Subnet>) {
    let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
    let choices: Vec<Vec<u32>> = vec![
        vec![0, 0, 0, 0, 0, 0, 0, 0],
        vec![0, 1, 1, 1, 1, 1, 1, 1], // depends on SN0 (block 0)
        vec![2, 2, 2, 2, 2, 2, 2, 1], // depends on SN1 (block 7)
        vec![3, 3, 3, 3, 3, 3, 3, 3], // independent
        vec![3, 2, 0, 1, 2, 3, 0, 2], // depends on SN3 (block 0), SN0 (block 6)
        vec![1, 3, 2, 0, 3, 2, 1, 0],
        vec![1, 0, 3, 2, 0, 1, 2, 3], // depends on SN5 (block 0)
        vec![2, 1, 1, 3, 1, 0, 3, 1], // depends on SN1 (blocks 2, 4)
    ];
    let subnets = choices
        .into_iter()
        .enumerate()
        .map(|(i, c)| Subnet::new(SubnetId(i as u64), c))
        .collect();
    (space, subnets)
}

fn count_violations(outcome: &PipelineOutcome) -> (usize, usize) {
    let orders = all_access_orders(outcome);
    let dependent = orders
        .values()
        .filter(|o| {
            let mut ids: Vec<u64> = o.accesses().iter().map(|a| a.subnet).collect();
            ids.dedup();
            ids.len() > 1
        })
        .count();
    let violated = orders.values().filter(|o| !o.is_sequential()).count();
    (violated, dependent)
}

/// Runs the Figure 1 comparison.
pub fn run() -> Fig1 {
    let (space, subnets) = figure_subnets();
    let disciplines = [
        ("ASP", SyncPolicy::Asp),
        (
            "BSP",
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
        ),
        ("CSP", SyncPolicy::naspipe()),
    ];
    let mut gantts = Vec::new();
    let rows = disciplines
        .into_iter()
        .map(|(name, policy)| {
            let cfg = PipelineConfig::naspipe(4, subnets.len() as u64)
                .with_batch(16)
                .with_policy(policy)
                .with_seed(crate::SEED);
            let mut spec = SimSpec::new(&space, &cfg);
            spec.subnets = Some(subnets.clone());
            let out = spec.run().expect("figure space fits everywhere");
            gantts.push((name, naspipe_core::gantt::render_gantt(&out, 76)));
            let (violated, dependent) = count_violations(&out);
            Fig1Row {
                discipline: name,
                violated_layers: violated,
                dependent_layers: dependent,
                bubble_ratio: out.report.bubble_ratio,
            }
        })
        .collect();
    Fig1 { rows, gantts }
}

impl Fig1 {
    /// Renders the comparison as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.discipline.to_string(),
                    format!("{}/{}", r.violated_layers, r.dependent_layers),
                    percent(r.bubble_ratio),
                    if r.violated_layers == 0 { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(
            &[
                "Discipline",
                "Violated/dependent layers",
                "Bubble",
                "Dependencies preserved",
            ],
            &rows,
        );
        for (name, gantt) in &self.gantts {
            out.push_str(&format!("\n[{name} schedule]\n{gantt}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_csp_preserves_dependencies() {
        let fig = run();
        let by_name = |n: &str| fig.rows.iter().find(|r| r.discipline == n).unwrap().clone();
        assert_eq!(by_name("CSP").violated_layers, 0);
        assert!(by_name("BSP").violated_layers > 0);
        assert!(by_name("ASP").violated_layers > 0);
    }

    #[test]
    fn figure_list_has_dependencies() {
        let fig = run();
        assert!(fig.rows.iter().all(|r| r.dependent_layers > 0));
    }

    #[test]
    fn render_contains_all_disciplines() {
        let s = run().render();
        for d in ["ASP", "BSP", "CSP"] {
            assert!(s.contains(d), "{s}");
        }
    }
}

//! Extra experiment: interconnect sensitivity.
//!
//! §5.4 attributes part of NASPipe's sub-linear scaling to communication:
//! "the communication time increases in a pipeline for a larger GPU
//! number" as more stage boundaries cross the Ethernet fabric. This
//! experiment varies the host topology at a fixed GPU count — 8 GPUs
//! packed 1/2/4/8 per host — so the number of cross-host boundaries goes
//! 7/4/1/0, isolating the fabric's contribution.

use crate::experiments::simulate;
use crate::format::render_table;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One topology point.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyRow {
    /// GPUs per host.
    pub gpus_per_host: u32,
    /// Stage boundaries crossing the Ethernet fabric (of 7).
    pub ethernet_boundaries: u32,
    /// NASPipe throughput, samples/s.
    pub throughput: f64,
    /// NASPipe bubble ratio.
    pub bubble: f64,
}

/// Runs the sweep on `id` with `n` subnets (8 GPUs).
pub fn run(id: SpaceId, n: u64) -> Vec<TopologyRow> {
    let space = SearchSpace::from_id(id);
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|gpus_per_host| {
            let cfg = SystemKind::NasPipe
                .config(8, n)
                .with_gpus_per_host(gpus_per_host);
            let out = simulate(&space, &cfg).expect("NASPipe fits everywhere");
            TopologyRow {
                gpus_per_host,
                ethernet_boundaries: (8 - 1) / gpus_per_host,
                throughput: out.report.throughput_samples_per_sec(),
                bubble: out.report.bubble_ratio,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[TopologyRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpus_per_host.to_string(),
                r.ethernet_boundaries.to_string(),
                format!("{:.0}", r.throughput),
                format!("{:.2}", r.bubble),
            ]
        })
        .collect();
    render_table(
        &["GPUs/host", "Ethernet boundaries", "Samples/s", "Bubble"],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_ethernet_boundaries_never_hurts() {
        let rows = run(SpaceId::NlpC2, 48);
        let all_eth = rows.iter().find(|r| r.gpus_per_host == 1).unwrap();
        let single_host = rows.iter().find(|r| r.gpus_per_host == 8).unwrap();
        assert!(
            single_host.throughput >= all_eth.throughput,
            "single host {} !>= all-Ethernet {}",
            single_host.throughput,
            all_eth.throughput
        );
    }

    #[test]
    fn boundary_counts() {
        let rows = run(SpaceId::CvC3, 16);
        let counts: Vec<u32> = rows.iter().map(|r| r.ethernet_boundaries).collect();
        assert_eq!(counts, vec![7, 3, 1, 0]);
    }
}

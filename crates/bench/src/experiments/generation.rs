//! Extra experiment: inter- vs intra-subnet task generation (§2.2).
//!
//! The paper assumes inter-subnet generation for all evaluated systems
//! because intra-subnet micro-batching "is only efficient for large batch
//! size training". This experiment quantifies that argument under our
//! cost model: at supernet-typical batches the micro-batches are tiny
//! and GPU utilisation collapses; only at batches far above the
//! algorithmic defaults does intra-subnet generation catch up.

use crate::format::render_table;
use naspipe_baselines::intra;
use naspipe_baselines::SystemKind;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One batch-size comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRow {
    /// Pipeline input batch per subnet.
    pub batch: u32,
    /// Inter-subnet (NASPipe) samples/s.
    pub inter_throughput: f64,
    /// Inter-subnet total ALU.
    pub inter_alu: f64,
    /// Intra-subnet (micro-batched) samples/s.
    pub intra_throughput: f64,
    /// Intra-subnet total ALU.
    pub intra_alu: f64,
}

/// Runs the comparison on `id` across batch sizes (8 GPUs, 8
/// micro-batches for the intra mode).
pub fn run(id: SpaceId, n: u64) -> Vec<GenerationRow> {
    let space = SearchSpace::from_id(id);
    [16u32, 64, 192, 512, 1024]
        .into_iter()
        .map(|batch| {
            let cfg = SystemKind::NasPipe.config(8, n).with_batch(batch);
            let out = crate::experiments::simulate(&space, &cfg).expect("swapping always fits");
            let micro = intra::estimate(&space, 8, batch, 8.min(batch), 16);
            GenerationRow {
                batch,
                inter_throughput: out.report.throughput_samples_per_sec(),
                inter_alu: out.report.total_alu,
                intra_throughput: micro.throughput,
                intra_alu: micro.total_alu,
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[GenerationRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.0}", r.inter_throughput),
                format!("{:.2}x", r.inter_alu),
                format!("{:.0}", r.intra_throughput),
                format!("{:.2}x", r.intra_alu),
                format!("{:.2}", r.inter_throughput / r.intra_throughput),
            ]
        })
        .collect();
    render_table(
        &[
            "Batch",
            "Inter samples/s",
            "Inter ALU",
            "Intra samples/s",
            "Intra ALU",
            "Inter/Intra",
        ],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_subnet_wins_at_small_batches() {
        let rows = run(SpaceId::NlpC3, 48);
        let small = rows.iter().find(|r| r.batch == 16).unwrap();
        assert!(
            small.inter_throughput > small.intra_throughput,
            "inter {} !> intra {} at batch 16",
            small.inter_throughput,
            small.intra_throughput
        );
    }

    #[test]
    fn intra_subnet_gap_narrows_with_batch() {
        let rows = run(SpaceId::NlpC3, 48);
        let ratio = |b: u32| {
            let r = rows.iter().find(|r| r.batch == b).unwrap();
            r.inter_throughput / r.intra_throughput
        };
        assert!(
            ratio(1024) < ratio(16),
            "large batches should favour intra: {} !< {}",
            ratio(1024),
            ratio(16)
        );
    }
}

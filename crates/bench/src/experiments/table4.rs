//! Table 4: access and update order of one shared layer under each
//! system on 4 vs 8 GPUs.
//!
//! `nF` means the layer's parameters were read by subnet `n`'s forward
//! pass; `nB` means written by its backward pass. NASPipe's order is
//! identical on both GPU counts; GPipe's and PipeDream's differ.

use crate::experiments::training::{schedule, training_space};
use crate::format::render_table;
use naspipe_baselines::SystemKind;
use naspipe_core::repro::{layer_access_order, most_contended_layer, AccessOrder};
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SpaceId;

/// One system's pair of access orders.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The system.
    pub system: SystemKind,
    /// Order on 4 GPUs.
    pub order_4gpu: AccessOrder,
    /// Order on 8 GPUs.
    pub order_8gpu: AccessOrder,
}

impl Table4Row {
    /// Whether the two orders match (reproducibility of the interleaving).
    pub(crate) fn orders_match(&self) -> bool {
        self.order_4gpu == self.order_8gpu
    }
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// The observed layer.
    pub layer: LayerRef,
    /// One row per system.
    pub rows: Vec<Table4Row>,
}

/// Runs the experiment on `id` with `n` subnets: picks the most-shared
/// layer and compares NASPipe/GPipe/PipeDream on 4 vs 8 GPUs.
///
/// # Panics
///
/// Panics if no layer is shared by at least three subnets (increase `n`).
pub fn run(id: SpaceId, n: u64) -> Table4 {
    let space = training_space(id);
    let reference = schedule(&space, SystemKind::NasPipe, 4, n);
    let layer =
        most_contended_layer(&reference, 3).expect("a layer shared by >= 3 subnets (increase n)");
    let rows = [
        SystemKind::NasPipe,
        SystemKind::GPipe,
        SystemKind::PipeDream,
    ]
    .into_iter()
    .map(|system| {
        let out4 = schedule(&space, system, 4, n);
        let out8 = schedule(&space, system, 8, n);
        Table4Row {
            system,
            order_4gpu: layer_access_order(&out4, layer),
            order_8gpu: layer_access_order(&out8, layer),
        }
    })
    .collect();
    Table4 { layer, rows }
}

/// Renders the table.
pub fn render(t: &Table4) -> String {
    let cells: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                r.order_4gpu.notation(),
                r.order_8gpu.notation(),
                if r.orders_match() { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    format!(
        "Observed layer: {}\n{}",
        t.layer,
        render_table(&["System", "4 GPUs", "8 GPUs", "Same order"], &cells)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naspipe_order_is_gpu_invariant_and_sequential() {
        let t = run(SpaceId::CvC3, 60);
        let nas = t
            .rows
            .iter()
            .find(|r| r.system == SystemKind::NasPipe)
            .unwrap();
        assert!(nas.orders_match());
        assert!(nas.order_4gpu.is_sequential());
        assert!(
            nas.order_4gpu.accesses().len() >= 6,
            "3+ subnets, F and B each"
        );
    }

    #[test]
    fn at_least_one_baseline_differs() {
        let t = run(SpaceId::CvC3, 60);
        let baseline_differs = t
            .rows
            .iter()
            .filter(|r| r.system != SystemKind::NasPipe)
            .any(|r| !r.orders_match() || !r.order_4gpu.is_sequential());
        assert!(baseline_differs);
    }

    #[test]
    fn render_uses_paper_notation() {
        let t = run(SpaceId::CvC3, 60);
        let s = render(&t);
        assert!(s.contains('F') && s.contains('B') && s.contains('-'));
    }
}

//! Table 3: reproducibility — supernet loss and search accuracy on
//! 4/8/16 GPUs under CSP, BSP and ASP.
//!
//! Each cell trains the same exploration stream under the given
//! discipline and GPU count, replays the schedule numerically, and reports
//! the converged supernet loss plus the quality score of the searched-out
//! best subnet. CSP cells must be *identical* across GPU counts (bitwise
//! equal parameters); BSP and ASP cells differ.

use crate::experiments::training::{search_score, train, training_space};
use crate::format::render_table;
use crate::score::render_score;
use naspipe_baselines::SystemKind;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SpaceId;
use naspipe_tensor::model::ParamStore;

/// GPU counts evaluated, as in the paper.
pub const GPU_COUNTS: [u32; 3] = [4, 8, 16];

/// One (space, discipline) row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The space.
    pub space: SpaceId,
    /// The system providing the discipline (NASPipe/GPipe/PipeDream).
    pub system: SystemKind,
    /// Converged supernet loss per GPU count.
    pub losses: Vec<f64>,
    /// Search-accuracy score per GPU count.
    pub scores: Vec<f64>,
    /// Bitwise parameter hash per GPU count.
    pub hashes: Vec<u64>,
    /// The first GPU count whose parameters differ from those trained on
    /// the first, and the first layer (block/choice order) where they
    /// do; `None` when every count trained identical parameters.
    pub divergence: Option<(u32, LayerRef)>,
}

impl Table3Row {
    /// Whether every GPU count produced bitwise-identical parameters.
    pub fn is_reproducible(&self) -> bool {
        self.divergence.is_none()
    }
}

/// The disciplines compared, in the paper's order.
pub fn disciplines() -> [SystemKind; 3] {
    [
        SystemKind::NasPipe,
        SystemKind::GPipe,
        SystemKind::PipeDream,
    ]
}

/// Runs one (space, discipline) row over all GPU counts.
pub fn row_for(id: SpaceId, system: SystemKind, n: u64) -> Table3Row {
    let space = training_space(id);
    let mut losses = Vec::new();
    let mut scores = Vec::new();
    let mut hashes = Vec::new();
    let mut first: Option<ParamStore> = None;
    let mut divergence = None;
    for gpus in GPU_COUNTS {
        let result = train(&space, system, gpus, n);
        losses.push(result.converged_loss());
        scores.push(search_score(&space, &result));
        hashes.push(result.final_hash);
        match &first {
            None => first = Some(result.store),
            Some(store) => {
                let differs = store.first_divergence(&result.store);
                divergence = divergence.or(differs.map(|layer| (gpus, layer)));
            }
        }
    }
    Table3Row {
        space: id,
        system,
        losses,
        scores,
        hashes,
        divergence,
    }
}

/// Runs the full table (6 spaces x 3 disciplines x 3 GPU counts).
pub fn run(n: u64) -> Vec<Table3Row> {
    SpaceId::TABLE2
        .into_iter()
        .flat_map(|id| disciplines().into_iter().map(move |s| (id, s)))
        .map(|(id, s)| row_for(id, s, n))
        .collect()
}

/// Renders the table.
pub fn render(rows: &[Table3Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let domain = r.space.domain();
            let mut row = vec![r.space.to_string(), r.system.sync_name().to_string()];
            for l in &r.losses {
                row.push(format!("{l:.4}"));
            }
            for s in &r.scores {
                row.push(render_score(domain, *s));
            }
            row.push(match r.divergence {
                None => "yes".to_string(),
                Some((gpus, layer)) => format!("no ({gpus} GPUs: {layer})"),
            });
            row
        })
        .collect();
    render_table(
        &[
            "Space",
            "Sync.",
            "Loss 4GPU",
            "Loss 8GPU",
            "Loss 16GPU",
            "Score 4GPU",
            "Score 8GPU",
            "Score 16GPU",
            "Reproducible",
        ],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csp_row_is_bitwise_reproducible() {
        let row = row_for(SpaceId::CvC3, SystemKind::NasPipe, 40);
        assert!(row.is_reproducible(), "{:?}", row.divergence);
        assert!(row.hashes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(row.losses[0], row.losses[1]);
        assert_eq!(row.losses[1], row.losses[2]);
        assert_eq!(row.scores[0], row.scores[2]);
    }

    #[test]
    fn bsp_row_diverges() {
        let row = row_for(SpaceId::CvC3, SystemKind::GPipe, 40);
        assert!(
            !row.is_reproducible(),
            "BSP should diverge: {:?}",
            row.hashes
        );
        assert!(render(&[row]).contains("no (8 GPUs: b"));
    }

    #[test]
    fn asp_row_diverges() {
        let row = row_for(SpaceId::CvC3, SystemKind::PipeDream, 40);
        assert!(
            !row.is_reproducible(),
            "ASP should diverge: {:?}",
            row.hashes
        );
    }

    #[test]
    fn render_shape() {
        let rows = vec![row_for(SpaceId::CvC3, SystemKind::NasPipe, 24)];
        let s = render(&rows);
        assert!(s.contains("CSP"));
        assert!(s.contains("yes"));
    }
}

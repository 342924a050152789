//! Cache-size sweep: hit rate vs cache capacity, validating the paper's
//! design point — a cache of ~3x one subnet's context achieves ~90 %
//! hits (§3.1), because three slices cover the executing subnet, the one
//! being evicted, and the prefetched next one.

use crate::experiments::simulate;
use crate::format::{percent, render_table};
use naspipe_core::config::PipelineConfig;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// Cache factors swept.
pub(crate) const FACTORS: [f64; 6] = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0];

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// GPU cache capacity as a multiple of one subnet's stage slice.
    pub cache_factor: f64,
    /// Measured layer cache-hit rate.
    pub hit_rate: f64,
    /// Throughput, samples per virtual second.
    pub throughput: f64,
    /// Bytes moved over PCIe per trained subnet, MiB.
    pub fetched_mib_per_subnet: f64,
}

/// Runs the sweep on `id` with `n` subnets per point (8 GPUs).
pub fn run(id: SpaceId, n: u64) -> Vec<SweepPoint> {
    let space = SearchSpace::from_id(id);
    FACTORS
        .into_iter()
        .map(|cache_factor| {
            let mut cfg = PipelineConfig::naspipe(8, n);
            cfg.cache_factor = cache_factor;
            let out = simulate(&space, &cfg).expect("swapping always fits");
            let r = &out.report;
            SweepPoint {
                cache_factor,
                hit_rate: r.cache_hit_rate.expect("NASPipe swaps"),
                throughput: r.throughput_samples_per_sec(),
                fetched_mib_per_subnet: r.cache_stats.bytes_fetched as f64
                    / 1_048_576.0
                    / r.subnets_completed as f64,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[SweepPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}x", p.cache_factor),
                percent(p.hit_rate),
                format!("{:.0}", p.throughput),
                format!("{:.0}", p.fetched_mib_per_subnet),
            ]
        })
        .collect();
    render_table(
        &["Cache size", "Hit rate", "Samples/s", "PCIe MiB/subnet"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_grows_with_cache_and_saturates() {
        let points = run(SpaceId::NlpC3, 48);
        let hit = |f: f64| {
            points
                .iter()
                .find(|p| p.cache_factor == f)
                .unwrap()
                .hit_rate
        };
        assert!(hit(1.0) < hit(3.0), "1x {} !< 3x {}", hit(1.0), hit(3.0));
        // The paper's design point: ~90 % at ~3x.
        assert!(
            hit(3.0) > 0.8,
            "3x cache should hit > 80 %, got {}",
            hit(3.0)
        );
        // Diminishing returns beyond 3x.
        assert!(hit(6.0) - hit(3.0) < hit(3.0) - hit(1.0));
    }

    #[test]
    fn pcie_traffic_falls_with_cache() {
        let points = run(SpaceId::NlpC3, 48);
        assert!(
            points.first().unwrap().fetched_mib_per_subnet
                > points.last().unwrap().fetched_mib_per_subnet
        );
    }

    #[test]
    fn render_has_all_factors() {
        let s = render(&run(SpaceId::CvC3, 16));
        for f in ["1.0x", "3.0x", "6.0x"] {
            assert!(s.contains(f));
        }
    }
}

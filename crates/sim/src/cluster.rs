//! The simulated cluster: GPUs plus their PCIe links and the inter-host
//! network, configured after the paper's testbed.

use crate::gpu::{GpuDevice, GpuId};
use crate::link::Link;
use crate::time::SimDuration;

/// Device memory of one Nvidia 2080Ti, bytes (11 GB).
pub const GPU_MEMORY_BYTES: u64 = 11 * 1_073_741_824;

/// A set of GPUs forming one pipeline, each with a dedicated PCIe link to
/// pinned host memory, plus a shared activation-transfer network between
/// adjacent pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    gpus: Vec<GpuDevice>,
    pcie: Vec<Link>,
    stage_links: Vec<Link>,
}

impl Cluster {
    /// Builds a cluster of `num_gpus` testbed GPUs (PCIe 3.0 x16 each).
    /// Adjacent stages communicate over links modelled after the testbed:
    /// PCIe within a 4-GPU host, 40 Gbps Ethernet across hosts.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0`.
    pub fn testbed(num_gpus: u32) -> Self {
        Self::with_hosts(num_gpus, 4)
    }

    /// Builds a cluster with an explicit host topology: GPUs are packed
    /// `gpus_per_host` per host; stage boundaries inside a host use PCIe,
    /// boundaries between hosts cross the Ethernet fabric.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0` or `gpus_per_host == 0`.
    pub fn with_hosts(num_gpus: u32, gpus_per_host: u32) -> Self {
        assert!(num_gpus > 0, "a cluster needs at least one GPU");
        assert!(gpus_per_host > 0, "a host needs at least one GPU");
        let gpus = (0..num_gpus).map(|i| GpuDevice::new(GpuId(i))).collect();
        let pcie = (0..num_gpus).map(|_| Link::pcie3_x16()).collect();
        // Link i connects stage i to stage i+1.
        let stage_links = (0..num_gpus.saturating_sub(1))
            .map(|i| {
                if (i + 1) % gpus_per_host == 0 {
                    Link::ethernet_40g()
                } else {
                    Link::pcie3_x16()
                }
            })
            .collect();
        Self {
            gpus,
            pcie,
            stage_links,
        }
    }

    /// Number of GPUs (= pipeline depth `D`).
    pub fn num_gpus(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Immutable access to GPU `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gpu(&self, id: GpuId) -> &GpuDevice {
        &self.gpus[id.0 as usize]
    }

    /// Mutable access to GPU `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gpu_mut(&mut self, id: GpuId) -> &mut GpuDevice {
        &mut self.gpus[id.0 as usize]
    }

    /// All GPUs in index order.
    pub fn gpus(&self) -> &[GpuDevice] {
        &self.gpus
    }

    /// Mutable access to GPU `id`'s PCIe link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pcie_mut(&mut self, id: GpuId) -> &mut Link {
        &mut self.pcie[id.0 as usize]
    }

    /// Latency model for sending `bytes` of activations between adjacent
    /// stages without occupying the link exclusively (overlapped
    /// communication, CSP definition's second property).
    pub fn stage_transfer_time(&self, from: GpuId, bytes: u64) -> SimDuration {
        self.stage_links[from.0 as usize].transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_paper_constants() {
        let c = Cluster::testbed(8);
        assert_eq!(c.num_gpus(), 8);
        assert_eq!(GPU_MEMORY_BYTES, 11 * 1_073_741_824);
    }

    #[test]
    fn every_fourth_boundary_is_ethernet() {
        let c = Cluster::testbed(8);
        // Boundary 3 (between GPU 3 and 4) crosses hosts.
        let eth = c.stage_transfer_time(GpuId(3), 1_048_576);
        let pcie = c.stage_transfer_time(GpuId(0), 1_048_576);
        assert!(eth > pcie);
    }

    #[test]
    fn host_topology_places_ethernet_boundaries() {
        // 2 GPUs per host: boundaries 1, 3, 5 cross hosts.
        let c = Cluster::with_hosts(8, 2);
        let eth = c.stage_transfer_time(GpuId(1), 1_048_576);
        let pcie = c.stage_transfer_time(GpuId(0), 1_048_576);
        assert!(eth > pcie);
        let eth2 = c.stage_transfer_time(GpuId(3), 1_048_576);
        assert_eq!(eth, eth2);
        // Single-host topology has no Ethernet at all.
        let single = Cluster::with_hosts(8, 8);
        for k in 0..7 {
            assert_eq!(
                single.stage_transfer_time(GpuId(k), 1_048_576),
                single.stage_transfer_time(GpuId(0), 1_048_576)
            );
        }
    }

    #[test]
    fn gpu_accessors_are_indexable() {
        let mut c = Cluster::testbed(2);
        assert_eq!(c.gpu(GpuId(1)).id(), GpuId(1));
        assert_eq!(c.gpus().len(), 2);
        let t = c
            .pcie_mut(GpuId(0))
            .demand(crate::time::SimTime::ZERO, 1_048_576, |_| {});
        assert!(t.end.as_us() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_cluster_panics() {
        Cluster::testbed(0);
    }
}

//! GPU devices: one serially occupied compute engine each.

use crate::resource::Resource;
use std::fmt;

/// Index of a GPU within the simulated cluster. In pipeline parallelism,
/// GPU `k` hosts pipeline stage `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GpuId(pub u32);

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// One simulated GPU: a serial compute engine.
///
/// Transfers to/from host memory go through the cluster's per-GPU PCIe
/// link; device memory is budgeted by the engines' memory plan, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDevice {
    id: GpuId,
    compute: Resource,
}

impl GpuDevice {
    /// Creates GPU `id` with an idle compute engine.
    pub fn new(id: GpuId) -> Self {
        Self {
            id,
            compute: Resource::new(),
        }
    }

    /// This device's identifier.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// The compute engine (kernel execution resource).
    pub fn compute(&self) -> &Resource {
        &self.compute
    }

    /// Mutable access to the compute engine.
    pub fn compute_mut(&mut self) -> &mut Resource {
        &mut self.compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_device_accessors() {
        let mut gpu = GpuDevice::new(GpuId(3));
        assert_eq!(gpu.id(), GpuId(3));
        assert_eq!(gpu.id().to_string(), "GPU3");
        gpu.compute_mut().reserve_from(
            crate::time::SimTime::ZERO,
            crate::time::SimDuration::from_us(5),
        );
        assert_eq!(gpu.compute().busy_time().as_us(), 5);
    }
}

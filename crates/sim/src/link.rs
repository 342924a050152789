//! Transfer links: PCIe (host<->device) and the inter-host network.
//!
//! A link is a bandwidth-limited, serially-occupied resource. Transfer
//! time is `latency + bytes / bandwidth`; concurrent requests queue in
//! FIFO order (modelling a single DMA copy engine per direction, which is
//! how PyTorch's pinned-memory async copies behave).

use crate::resource::Resource;
use crate::time::{SimDuration, SimTime};

/// A bandwidth-limited transfer channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    bytes_per_us: f64,
    latency: SimDuration,
    channel: Resource,
    bytes_moved: u64,
}

impl Link {
    /// Creates a link with `bandwidth_mb_s` MB/s of bandwidth and
    /// `latency` fixed per-transfer setup time.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_mb_s` is not strictly positive.
    pub fn new(bandwidth_mb_s: f64, latency: SimDuration) -> Self {
        assert!(
            bandwidth_mb_s > 0.0 && bandwidth_mb_s.is_finite(),
            "bandwidth must be positive, got {bandwidth_mb_s}"
        );
        Self {
            bytes_per_us: bandwidth_mb_s * 1_048_576.0 / 1_000_000.0,
            latency,
            channel: Resource::new(),
            bytes_moved: 0,
        }
    }

    /// PCIe 3.0 x16 as measured on the paper's testbed (15 760 MB/s,
    /// negligible setup latency).
    pub fn pcie3_x16() -> Self {
        Self::new(15_760.0, SimDuration::from_us(5))
    }

    /// 40 Gbps Ethernet with the testbed's 0.17 ms average ping latency.
    pub(crate) fn ethernet_40g() -> Self {
        // 40 Gbps ~ 4768 MB/s; the paper observed 867 MB/s achievable.
        Self::new(867.0, SimDuration::from_us(170))
    }

    /// Pure transfer duration of `bytes` (latency + serialisation), not
    /// accounting for queueing.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_us((bytes as f64 / self.bytes_per_us).ceil() as u64)
    }

    /// Enqueues a transfer of `bytes` starting no earlier than `earliest`;
    /// returns `(start, end)` of the transfer.
    pub fn transfer(&mut self, earliest: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.bytes_moved += bytes;
        self.channel
            .reserve_span(earliest, self.transfer_time(bytes))
    }

    /// Total bytes moved over this link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total time the link spent transferring.
    pub fn busy_time(&self) -> SimDuration {
        self.channel.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_bandwidth() {
        let link = Link::new(1.0, SimDuration::ZERO); // 1 MB/s
        let t = link.transfer_time(1_048_576); // 1 MB
        assert_eq!(t.as_us(), 1_000_000);
    }

    #[test]
    fn latency_is_added() {
        let link = Link::new(1.0, SimDuration::from_us(100));
        assert_eq!(link.transfer_time(0).as_us(), 100);
    }

    #[test]
    fn transfers_queue_fifo() {
        let mut link = Link::new(1.0, SimDuration::ZERO);
        let (s1, e1) = link.transfer(SimTime::ZERO, 1_048_576);
        let (s2, _e2) = link.transfer(SimTime::ZERO, 1_048_576);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, e1);
        assert_eq!(link.bytes_moved(), 2 * 1_048_576);
    }

    #[test]
    fn pcie_swaps_match_table5() {
        // Conv 3x1: 27.7 MB should swap in ~1.76 ms on PCIe 3.0 x16.
        let link = Link::pcie3_x16();
        let bytes = (1.76 / 1_000.0 * 15_760.0 * 1_048_576.0) as u64;
        let t = link.transfer_time(bytes);
        assert!((t.as_ms() - 1.76).abs() < 0.05, "got {}", t.as_ms());
    }

    #[test]
    fn ethernet_has_ping_latency() {
        let link = Link::ethernet_40g();
        assert!(link.transfer_time(1).as_us() >= 170);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        Link::new(0.0, SimDuration::ZERO);
    }
}

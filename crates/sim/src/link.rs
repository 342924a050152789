//! Transfer links: PCIe (host<->device) and the inter-host network.
//!
//! A link is a bandwidth-limited, serially-occupied resource. Transfer
//! time is `latency + bytes / bandwidth`, and one transfer runs at a time
//! (a single DMA copy engine per direction, which is how PyTorch's
//! pinned-memory async copies behave). A transfer that has started is
//! never interrupted.
//!
//! Transfers come in two classes. A *demanded* transfer blocks a task: it
//! starts as soon as the transfer in flight and every earlier demanded
//! one have finished, ahead of any speculative prefetch that has not
//! started. A *speculative* prefetch is queued in request order behind
//! everything else: it starts no earlier than it was requested, slides
//! later when a demanded transfer goes ahead of it, and is demanded from
//! then on once something waits on it ([`Link::promote`]). Requests must
//! come in time order, and the queue must be brought up to each request's
//! time with [`Link::start_due`] first, which hands back the prefetches
//! that started meanwhile: their times are final.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::num::NonZeroU64;

/// A transfer's name on its link: links number their transfers in
/// request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(NonZeroU64);

/// One transfer's times on its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Its name on the link.
    pub id: TransferId,
    /// When it was requested.
    pub requested: SimTime,
    /// When it starts.
    pub start: SimTime,
    /// When it lands.
    pub end: SimTime,
}

/// A bandwidth-limited transfer channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    bytes_per_us: f64,
    latency: SimDuration,
    // When the last transfer that can no longer move lands: every
    // demanded transfer, and every prefetch that has started.
    fixed_until: SimTime,
    // The speculative prefetches that have not started, in request
    // order, each at the later of its request and the previous one's end
    // (the first: of `fixed_until`). The ids ascend.
    queued: VecDeque<Transfer>,
    requests: u64,
    bytes_moved: u64,
    busy: SimDuration,
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
            fixed_until: SimTime::ZERO,
            queued: VecDeque::new(),
            requests: 0,
            bytes_moved: 0,
            busy: SimDuration::ZERO,
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

    /// Removes and returns, oldest first, the queued prefetches that
    /// start before `now`: from here on nothing moves them.
    pub fn start_due(&mut self, now: SimTime) -> std::collections::vec_deque::Drain<'_, Transfer> {
        let due = self.queued.partition_point(|t| t.start < now);
        if let Some(last) = due.checked_sub(1) {
            self.fixed_until = self.queued[last].end;
        }
        self.queued.drain(..due)
    }

    /// When the first queued prefetch starts, if any is queued: no
    /// queued prefetch starts before it.
    pub fn next_start(&self) -> Option<SimTime> {
        self.queued.front().map(|t| t.start)
    }

    /// Queues a speculative prefetch of `bytes` requested at `now`
    /// behind every other transfer; returns its times so far.
    pub fn prefetch(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let after = self.queued.back().map_or(self.fixed_until, |t| t.end);
        let t = self.book(now, after, bytes);
        self.queued.push_back(t);
        t
    }

    /// Starts a demanded transfer of `bytes` requested at `now` ahead of
    /// every queued prefetch, and returns its final times. `moved` is
    /// handed each queued prefetch that slid, with its new times.
    pub fn demand(&mut self, now: SimTime, bytes: u64, moved: impl FnMut(Transfer)) -> Transfer {
        self.assert_started_by(now);
        let t = self.book(now, self.fixed_until.max(now), bytes);
        self.fixed_until = t.end;
        self.relay(0, moved);
        t
    }

    /// Demands queued prefetch `id`, which something now waits on: it
    /// starts ahead of every other queued prefetch, and its returned
    /// times are final. `moved` is handed each queued prefetch that
    /// moved. `None` if `id` is not queued: it has started, and its
    /// times are already final.
    pub fn promote(
        &mut self,
        now: SimTime,
        id: TransferId,
        moved: impl FnMut(Transfer),
    ) -> Option<Transfer> {
        self.assert_started_by(now);
        let at = self.queued.binary_search_by_key(&id, |t| t.id).ok()?;
        let mut t = self.queued.remove(at).expect("a queued transfer");
        let duration = t.end - t.start;
        t.start = self.fixed_until.max(now);
        t.end = t.start + duration;
        self.fixed_until = t.end;
        self.relay(at, moved);
        Some(t)
    }

    /// Total bytes moved over this link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total time the link spent transferring.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Names and counts a new transfer of `bytes` requested at `now`,
    /// starting once both `now` and `after` have come.
    fn book(&mut self, now: SimTime, after: SimTime, bytes: u64) -> Transfer {
        let duration = self.transfer_time(bytes);
        self.requests += 1;
        self.bytes_moved += bytes;
        self.busy += duration;
        let start = after.max(now);
        Transfer {
            id: TransferId(NonZeroU64::new(self.requests).expect("counted from 1")),
            requested: now,
            start,
            end: start + duration,
        }
    }

    /// Lays the queue out again behind `fixed_until`, handing `moved`
    /// each prefetch whose times changed. From index `from` on (where a
    /// promoted prefetch left, or the queue's front) the first one that
    /// kept its times keeps the rest's too.
    fn relay(&mut self, from: usize, mut moved: impl FnMut(Transfer)) {
        let mut after = self.fixed_until;
        for (i, t) in self.queued.iter_mut().enumerate() {
            let start = after.max(t.requested);
            if start != t.start {
                let duration = t.end - t.start;
                (t.start, t.end) = (start, start + duration);
                moved(*t);
            } else if i >= from {
                break;
            }
            after = t.end;
        }
    }

    /// Every queued prefetch that starts before `now` must have been
    /// taken by [`start_due`](Self::start_due): it cannot move any more.
    fn assert_started_by(&self, now: SimTime) {
        debug_assert!(
            self.queued.front().is_none_or(|t| t.start >= now),
            "a queued prefetch started before {now}: call start_due first"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_048_576;

    fn ms(ms: u64) -> SimTime {
        SimTime::from_us(ms * 1_000)
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let link = Link::new(1.0, SimDuration::ZERO); // 1 MB/s
        let t = link.transfer_time(MB); // 1 MB
        assert_eq!(t.as_us(), 1_000_000);
    }

    #[test]
    fn latency_is_added() {
        let link = Link::new(1.0, SimDuration::from_us(100));
        assert_eq!(link.transfer_time(0).as_us(), 100);
    }

    #[test]
    fn prefetches_queue_fifo() {
        let mut link = Link::new(1.0, SimDuration::ZERO);
        let a = link.prefetch(SimTime::ZERO, MB);
        let b = link.prefetch(SimTime::ZERO, MB);
        assert_eq!((a.start, b.start), (SimTime::ZERO, a.end));
        assert_eq!(link.bytes_moved(), 2 * MB);
    }

    #[test]
    fn a_demand_goes_ahead_of_unstarted_prefetches_only() {
        let mut link = Link::new(1000.0, SimDuration::ZERO); // 1 MB per ms
        let a = link.prefetch(SimTime::ZERO, 2 * MB); // [0, 2] ms
        let b = link.prefetch(SimTime::ZERO, 2 * MB); // [2, 4] ms
        assert_eq!(link.start_due(ms(1)).collect::<Vec<_>>(), [a]);
        let mut slid = Vec::new();
        let d = link.demand(ms(1), MB, |t| slid.push(t));
        // `a` is in flight; `d` waits for it but not for `b`.
        assert_eq!((d.start, d.end), (ms(2), ms(3)));
        assert_eq!(
            slid,
            [Transfer {
                start: ms(3),
                end: ms(5),
                ..b
            }]
        );
        assert_eq!(link.busy_time().as_us(), 5_000);
    }

    #[test]
    fn a_promoted_prefetch_goes_ahead_of_the_queue() {
        let mut link = Link::new(1000.0, SimDuration::ZERO);
        let a = link.prefetch(SimTime::ZERO, MB); // [0, 1] ms
        let b = link.prefetch(SimTime::ZERO, MB); // [1, 2]
        let c = link.prefetch(SimTime::ZERO, MB); // [2, 3]
        let mut moved = Vec::new();
        let p = link.promote(SimTime::ZERO, b.id, |t| moved.push(t));
        assert_eq!(
            p,
            Some(Transfer {
                start: ms(0),
                end: ms(1),
                ..b
            })
        );
        // `a` swapped places with `b`; `c` kept its times.
        assert_eq!(
            moved,
            [Transfer {
                start: ms(1),
                end: ms(2),
                ..a
            }]
        );
        assert_eq!(link.start_due(ms(3)).collect::<Vec<_>>(), [moved[0], c]);
        // A started prefetch is not queued any more.
        assert_eq!(link.promote(ms(3), c.id, |_| unreachable!()), None);
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

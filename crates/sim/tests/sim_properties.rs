//! Property tests of the simulator's core invariants.

use naspipe_sim::event::EventQueue;
use naspipe_sim::link::{Link, Transfer, TransferId};
use naspipe_sim::resource::Resource;
use naspipe_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// The event queue delivers payloads in non-decreasing time order and
    /// breaks ties by insertion order.
    #[test]
    fn event_queue_is_a_stable_time_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_us(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        let mut last = SimTime::ZERO;
        for &(t, i) in &expected {
            let (now, payload) = q.pop().unwrap();
            prop_assert_eq!(payload, i);
            prop_assert!(now >= last);
            prop_assert!(now >= SimTime::from_us(t));
            last = now;
        }
        prop_assert!(q.pop().is_none());
    }

    /// A resource's reservations never overlap and its busy time equals
    /// the sum of the requested durations.
    #[test]
    fn resource_reservations_are_serial(
        requests in proptest::collection::vec((0u64..500, 1u64..100), 1..100),
    ) {
        let mut r = Resource::new();
        let mut spans = Vec::new();
        let mut total = 0u64;
        for &(earliest, dur) in &requests {
            let (start, end) = r.reserve_span(SimTime::from_us(earliest), SimDuration::from_us(dur));
            prop_assert!(start >= SimTime::from_us(earliest));
            prop_assert_eq!((end - start).as_us(), dur);
            spans.push((start.as_us(), end.as_us()));
            total += dur;
        }
        for w in spans.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "overlap: {:?}", w);
        }
        prop_assert_eq!(r.busy_time().as_us(), total);
    }

    /// Link transfer time is monotone in the byte count and additive
    /// queueing holds: n serial transfers end no earlier than one
    /// combined transfer of the same bytes.
    #[test]
    fn link_transfers_are_monotone(sizes in proptest::collection::vec(1u64..10_000_000, 1..20)) {
        let probe = Link::pcie3_x16();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            prop_assert!(probe.transfer_time(w[0]) <= probe.transfer_time(w[1]));
        }
        let mut serial = Link::pcie3_x16();
        let mut end = SimTime::ZERO;
        for &s in &sizes {
            let t = serial.demand(SimTime::ZERO, s, |_| {});
            end = end.max(t.end);
        }
        let mut combined = Link::pcie3_x16();
        let combined_end = combined.demand(SimTime::ZERO, sizes.iter().sum(), |_| {}).end;
        // Serial pays per-transfer latency, so it can only be later.
        prop_assert!(end >= combined_end);
        prop_assert_eq!(serial.bytes_moved(), sizes.iter().sum::<u64>());
    }

    /// The two-class link over random time-ordered speculative requests,
    /// demanded requests and promotions of queued prefetches: transfers
    /// are serial and start no earlier than requested; a demanded one
    /// waits only for the transfer in flight and the demanded ones before
    /// it; speculative ones keep their order; nothing moves once started
    /// or demanded; and the link moves the bytes and is busy for the time
    /// a FIFO link fed the same requests is.
    #[test]
    fn a_link_serves_demands_before_unstarted_prefetches(
        ops in proptest::collection::vec((0u64..4, 0u8..4, 1u64..30_000_000, 0usize..64), 1..80),
    ) {
        let mut link = Link::pcie3_x16();
        let mut fifo = Resource::new();
        // Per transfer, in id order: its times as last known, whether it
        // is demanded (or promoted), and whether its times are final.
        let mut all: Vec<(Transfer, bool, bool)> = Vec::new();
        let mut slot: HashMap<TransferId, usize> = HashMap::new();
        let mut now = SimTime::ZERO;
        let mut bytes_total = 0;
        for &(dt, kind, bytes, pick) in &ops {
            now += SimDuration::from_us(dt * 700);
            for t in link.start_due(now) {
                let known = &mut all[slot[&t.id]];
                prop_assert!(!known.2 && t == known.0 && t.start < now);
                known.2 = true;
            }
            // What can no longer move, as it stands before this request.
            let fixed: Vec<Transfer> = all.iter().filter(|a| a.2).map(|a| a.0).collect();
            let mut moved = Vec::new();
            let demanded = match kind {
                0 | 1 => {
                    let t = link.prefetch(now, bytes);
                    slot.insert(t.id, all.len());
                    all.push((t, false, false));
                    None
                }
                2 => {
                    let t = link.demand(now, bytes, |t| moved.push(t));
                    slot.insert(t.id, all.len());
                    all.push((t, true, true));
                    Some(t)
                }
                _ => {
                    let queued: Vec<usize> = (0..all.len()).filter(|&i| !all[i].2).collect();
                    if queued.is_empty() {
                        continue;
                    }
                    let i = queued[pick % queued.len()];
                    let t = link.promote(now, all[i].0.id, |t| moved.push(t));
                    prop_assert!(t.is_some_and(|t| t.id == all[i].0.id));
                    let t = t.unwrap();
                    prop_assert!(t.end <= all[i].0.end, "a promotion delayed {:?}", all[i].0);
                    all[i] = (t, true, true);
                    Some(t)
                }
            };
            if kind < 3 {
                bytes_total += bytes;
                fifo.reserve_span(now, link.transfer_time(bytes));
            }
            for t in moved {
                let known = &mut all[slot[&t.id]];
                prop_assert!(!known.1 && !known.2, "{:?} moved after it was fixed", known.0);
                prop_assert!(known.0.start >= now, "{:?} moved after it started", known.0);
                known.0 = t;
            }
            if let Some(d) = demanded {
                let waited_for = fixed.iter().any(|f| f.end == d.start);
                prop_assert!(d.start == now || waited_for, "{:?} waited for nothing fixed", d);
                prop_assert!(fixed.iter().all(|f| f.end <= d.start || f.start >= d.end));
                let queued = all.iter().filter(|a| !a.2).map(|a| a.0);
                prop_assert!(queued.clone().all(|q| q.start >= d.end), "{:?} runs first", queued.collect::<Vec<_>>());
            }
        }
        for t in link.start_due(SimTime::from_us(u64::MAX)) {
            let known = &mut all[slot[&t.id]];
            prop_assert!(!known.2 && t == known.0);
            known.2 = true;
        }
        prop_assert!(all.iter().all(|a| a.2), "a transfer never started");
        let mut by_start: Vec<Transfer> = all.iter().map(|a| a.0).collect();
        by_start.sort_by_key(|t| (t.start, t.id));
        for w in by_start.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "overlap: {:?}", w);
        }
        prop_assert!(by_start.iter().all(|t| t.start >= t.requested));
        let speculative: Vec<Transfer> = all.iter().filter(|a| !a.1).map(|a| a.0).collect();
        for w in speculative.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "prefetches out of order: {:?}", w);
        }
        prop_assert_eq!(link.bytes_moved(), bytes_total);
        prop_assert_eq!(link.busy_time(), fifo.busy_time());
    }

    /// Utilisation plus bubble is exactly one for any horizon at least as
    /// long as the busy time.
    #[test]
    fn utilization_and_bubble_are_complements(
        busy in 1u64..1000,
        slack in 0u64..1000,
    ) {
        let mut r = Resource::new();
        r.reserve_from(SimTime::ZERO, SimDuration::from_us(busy));
        let horizon = SimTime::from_us(busy + slack);
        let u = r.utilization(horizon);
        let b = r.bubble_ratio(horizon);
        prop_assert!((u + b - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&u));
    }
}

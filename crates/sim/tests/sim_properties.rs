//! Property tests of the simulator's core invariants.

use naspipe_sim::event::EventQueue;
use naspipe_sim::link::Link;
use naspipe_sim::resource::Resource;
use naspipe_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

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
            let (_, e) = serial.transfer(SimTime::ZERO, s);
            end = end.max(e);
        }
        let mut combined = Link::pcie3_x16();
        let (_, combined_end) = combined.transfer(SimTime::ZERO, sizes.iter().sum());
        // Serial pays per-transfer latency, so it can only be later.
        prop_assert!(end >= combined_end);
        prop_assert_eq!(serial.bytes_moved(), sizes.iter().sum::<u64>());
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

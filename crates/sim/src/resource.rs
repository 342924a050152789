//! Serially-occupied resources (a GPU's compute engine).
//!
//! A [`Resource`] executes one occupancy at a time in FIFO reservation
//! order and accumulates busy time, from which utilisation and bubble
//! ratios are derived.

use crate::time::{SimDuration, SimTime};

/// A resource that can serve one occupancy at a time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Resource {
    free_at: SimTime,
    busy: SimDuration,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `duration`, starting no earlier than
    /// `earliest`. Returns the actual start time (the later of `earliest`
    /// and the end of the previous reservation).
    pub fn reserve_from(&mut self, earliest: SimTime, duration: SimDuration) -> SimTime {
        let start = self.free_at.max(earliest);
        self.free_at = start + duration;
        self.busy += duration;
        start
    }

    /// Like [`reserve_from`](Self::reserve_from) but also returns the end
    /// time.
    pub fn reserve_span(&mut self, earliest: SimTime, duration: SimDuration) -> (SimTime, SimTime) {
        let start = self.reserve_from(earliest, duration);
        (start, start + duration)
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `[SimTime::ZERO, horizon]` this resource was busy,
    /// clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        (self.busy.as_us() as f64 / horizon.as_us() as f64).min(1.0)
    }

    /// Idle (bubble) fraction over `[SimTime::ZERO, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn bubble_ratio(&self, horizon: SimTime) -> f64 {
        1.0 - self.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_are_serial() {
        let mut r = Resource::new();
        let s1 = r.reserve_from(SimTime::ZERO, SimDuration::from_us(100));
        let s2 = r.reserve_from(SimTime::ZERO, SimDuration::from_us(50));
        assert_eq!(s1.as_us(), 0);
        assert_eq!(s2.as_us(), 100);
        assert_eq!(r.busy_time().as_us(), 150);
    }

    #[test]
    fn earliest_bound_is_respected() {
        let mut r = Resource::new();
        let s = r.reserve_from(SimTime::from_us(40), SimDuration::from_us(10));
        assert_eq!(s.as_us(), 40);
        // Next reservation asked for t=0 but resource is busy until 50.
        let (start, end) = r.reserve_span(SimTime::ZERO, SimDuration::from_us(5));
        assert_eq!(start.as_us(), 50);
        assert_eq!(end.as_us(), 55);
    }

    #[test]
    fn utilization_and_bubble() {
        let mut r = Resource::new();
        r.reserve_from(SimTime::ZERO, SimDuration::from_us(30));
        let horizon = SimTime::from_us(100);
        assert!((r.utilization(horizon) - 0.3).abs() < 1e-12);
        assert!((r.bubble_ratio(horizon) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut r = Resource::new();
        r.reserve_from(SimTime::ZERO, SimDuration::from_us(500));
        assert_eq!(r.utilization(SimTime::from_us(100)), 1.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        Resource::new().utilization(SimTime::ZERO);
    }
}

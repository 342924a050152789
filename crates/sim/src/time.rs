//! Virtual time.
//!
//! Simulated time is kept in integer **microseconds** so that arithmetic is
//! exact and event ordering is platform independent (no floating-point
//! accumulation drift). Millisecond conversions round half-up.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (microseconds since simulation
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulated time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `us` microseconds after simulation start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// An instant `ms` milliseconds after start (rounded to microseconds).
    pub fn from_ms(ms: f64) -> Self {
        SimTime(SimDuration::from_ms(ms).0)
    }

    /// Microseconds since simulation start.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start.
    pub(crate) fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us)
    }

    /// A duration of `ms` milliseconds (rounded to microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be non-negative, got {ms}"
        );
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Length in microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Length in milliseconds.
    pub(crate) fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "negative duration: {rhs:?} > {self:?}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_ms(1.5);
        assert_eq!(d.as_us(), 1_500);
        assert!((d.as_ms() - 1.5).abs() < 1e-12);
        assert!((SimDuration::from_us(2_000_000).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_us(100) + SimDuration::from_us(50);
        assert_eq!(t.as_us(), 150);
        assert_eq!((t - SimTime::from_us(100)).as_us(), 50);
        let mut acc = SimTime::ZERO;
        acc += SimDuration::from_us(7);
        assert_eq!(acc.as_us(), 7);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_us(5);
        let b = SimTime::from_us(10);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a).as_us(), 5);
    }

    #[test]
    fn sum_and_ordering() {
        let total: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&m| SimDuration::from_ms(m))
            .sum();
        assert_eq!(total.as_us(), 6_000);
        assert!(SimTime::from_us(1) < SimTime::from_us(2));
        assert_eq!(SimTime::from_us(3).max(SimTime::from_us(9)).as_us(), 9);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_us(250).to_string(), "0.250ms");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        SimDuration::from_ms(-1.0);
    }

    #[test]
    fn rounding_is_half_up() {
        assert_eq!(SimDuration::from_ms(0.0005).as_us(), 1);
        assert_eq!(SimDuration::from_ms(0.0004).as_us(), 0);
    }
}

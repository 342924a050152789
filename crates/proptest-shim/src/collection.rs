//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Anything usable as a vector-length specification: an exact length or
/// a half-open range of lengths.
pub trait IntoSizeRange {
    /// The `[min, max)` bounds on the generated length.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// is drawn from `size`.
pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    assert!(min < max, "empty vector-length range");
    VecStrategy { element, min, max }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.max - self.min) as u64;
        let len = self.min + rng.next_below(span.max(1)) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

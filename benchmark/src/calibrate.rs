//! The harness's calibration loop: a fixed piece of work that belongs to
//! no layer of the program, timed between repetitions to tell how fast
//! the host is at that moment.
//!
//! A shared host drifts between speeds for minutes at a time (co-tenants,
//! frequency licences): the same binary on the same inputs ran 12–35 %
//! slower in one half hour than in the next. Host times are therefore
//! reported in *calibrated seconds*: multiplied by `NOMINAL_S` over what
//! the loop took around them. Over 98 thirteen-second windows of one
//! drifting half hour that took the interquartile spread of five probes
//! (DES, sequential and threaded training at two sizes) from 8–9 % of
//! the median to 3–3.5 %.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one pass of the loop takes on the reference host (a 2.1 GHz Xeon
/// guest) at its quiet speed. Only a choice of unit: calibrated seconds
/// are seconds on a host where a pass takes exactly this long.
pub const NOMINAL_S: f64 = 0.0065;

/// Passes timed at each calibration point. A run's host speed is an order
/// statistic over all of them, and the slowest workload has only some ten
/// repetitions to calibrate between.
pub const PASSES: usize = 3;

/// Times `PASSES` passes, one after the other.
pub fn passes() -> [f64; PASSES] {
    std::array::from_fn(|_| pass())
}

/// One pass: a dependent floating-point chain, then ordered-map churn
/// with small heap allocations — between them the two kinds of work the
/// engines do (kernels; `BTreeMap` bookkeeping and per-task allocation),
/// and the two that tracked the engines best when the host drifted.
/// Returns the seconds it took.
fn pass() -> f64 {
    let start = Instant::now();
    let (mut a, mut b) = (1.0f64, 0.5f64);
    for i in 0..1_000_000u64 {
        a = a * 1.000_000_1 + b;
        b = b * 0.999_999_9 + i as f64 * 1e-12;
    }
    black_box(a + b);
    let mut map = BTreeMap::new();
    let mut key = 1u64;
    for i in 0..30_000u64 {
        key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        map.insert(key >> 40, vec![i; 3]);
        if i % 3 == 0 {
            let first = *map.keys().next().expect("just inserted");
            map.remove(&first);
        }
    }
    black_box(map.len());
    start.elapsed().as_secs_f64()
}

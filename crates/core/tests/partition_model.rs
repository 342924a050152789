//! Model-based differential test of `Partition::balanced`.
//!
//! The reference below is the implementation the counting probe
//! replaced, moved here verbatim: every bisection probe built the whole
//! boundary vector, 41 allocations per partitioned subnet. Both sides
//! run the same floating-point operations in the same order, so they
//! must agree on every boundary — not only on the bottleneck.

use naspipe_core::partition::Partition;
use proptest::prelude::*;

fn reference(costs: &[f64], stages: u32) -> Partition {
    assert!(!costs.is_empty(), "cannot partition zero blocks");
    assert!(stages > 0, "need at least one stage");
    assert!(
        costs.iter().all(|&c| c >= 0.0),
        "costs must be non-negative"
    );
    let stages = stages as usize;

    // Feasibility: can we cover `costs` with `stages` ranges of sum <= cap?
    let feasible = |cap: f64| -> Option<Vec<usize>> {
        let mut bounds = vec![0usize];
        let mut acc = 0.0f64;
        for (i, &c) in costs.iter().enumerate() {
            if c > cap {
                return None;
            }
            if acc + c > cap {
                bounds.push(i);
                acc = c;
                if bounds.len() > stages {
                    return None;
                }
            } else {
                acc += c;
            }
        }
        while bounds.len() < stages {
            bounds.push(costs.len());
        }
        bounds.push(costs.len());
        Some(bounds)
    };

    let total: f64 = costs.iter().sum();
    let max_single = costs.iter().cloned().fold(0.0f64, f64::max);
    let mut lo = (total / stages as f64).max(max_single);
    let mut hi = total.max(max_single);
    let mut best = feasible(hi).expect("total cost is always feasible");
    // 40 iterations of bisection are ample for f64 cost ranges.
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if let Some(b) = feasible(mid) {
            best = b;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Partition::from_boundaries(best)
}

/// Block costs from a palette chosen per case: a few distinct values (so
/// sums tie and ranges close exactly at the cap), zeros among them, or
/// free-ranging fractions.
fn costs() -> impl Strategy<Value = Vec<f64>> {
    (0usize..3).prop_flat_map(|palette| {
        let block = (0u64..1000).prop_map(move |x| match palette {
            0 => [0.0, 1.0, 1.0, 2.5][x as usize % 4],
            1 => (x % 7) as f64 * 0.1,
            _ => x as f64 / 37.0,
        });
        proptest::collection::vec(block, 1..96)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 1 to 64 stages over 1 to 95 blocks: fewer stages than blocks, as
    /// many, and more (trailing stages empty).
    #[test]
    fn counting_probe_cuts_where_the_reference_did(costs in costs(), stages in 1u32..65) {
        prop_assert_eq!(Partition::balanced(&costs, stages), reference(&costs, stages));
    }

    /// All-zero and single-value cost vectors: every probe ties.
    #[test]
    fn degenerate_costs_agree(len in 1usize..40, value in 0u64..3, stages in 1u32..65) {
        let costs = vec![value as f64 * 0.5; len];
        prop_assert_eq!(Partition::balanced(&costs, stages), reference(&costs, stages));
    }
}

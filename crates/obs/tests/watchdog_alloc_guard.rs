//! Allocation guard for the watchdog: once its scratch is sized by the
//! first observation, an observation that latches nothing allocates
//! nothing. The DES observes every 200 ms of simulated time — 5 360
//! times on the paper's 32-GPU run — so a per-observe copy of the
//! recorder, or a peer list collected per stage, creeping back in fails
//! this test.
//!
//! One test, in a binary of its own: the counting allocator is global.

use naspipe_obs::{Counter, MetricsRecorder, Recorder, Sample, Watchdog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads do
    /// not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System` for every request; the counter is a
// const-initialised thread-local without a destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STAGES: u32 = 32;

/// One interval of a healthy 32-stage run: every stage completes a
/// forward and a backward at a pace that differs a little by stage, and
/// stalls a little.
fn advance(rec: &mut MetricsRecorder) {
    for k in 0..STAGES {
        let us = 9_000 + 100 * u64::from(k % 5);
        rec.incr(k, Counter::ForwardTask, 1);
        rec.sample(k, Sample::ForwardLatencyUs, us);
        rec.incr(k, Counter::BackwardTask, 1);
        rec.sample(k, Sample::BackwardLatencyUs, 2 * us);
        rec.incr(k, Counter::StallUs, 1_000);
    }
}

#[test]
fn a_steady_state_observation_allocates_nothing() {
    let mut wd = Watchdog::new(STAGES as usize);
    let mut rec = MetricsRecorder::new();
    advance(&mut rec);
    assert!(wd.observe(200_000, rec.stages()).is_empty());

    let mut in_observe = 0;
    // 1.2 s apart: wide enough for the convoy detector to evaluate too.
    for step in 2..=200u64 {
        advance(&mut rec);
        let before = ALLOCS.with(Cell::get);
        let verdicts = wd.observe(step * 1_200_000, rec.stages());
        in_observe += ALLOCS.with(Cell::get) - before;
        assert!(verdicts.is_empty(), "a healthy run latched {verdicts:?}");
    }
    assert_eq!(in_observe, 0, "steady-state observations allocated");
}

//! Allocation guard for the span store: a tracer that stayed ordered
//! hands its buffer over in `take` without touching the heap, and a
//! `merge` of two ordered traces allocates the one output buffer and
//! nothing else. A sort's scratch buffer creeping back into either —
//! half the trace again, which is what `peak_rss_mb` of a traced run
//! used to carry — fails this test.
//!
//! One test, in a binary of its own: the counting allocator is global.

use naspipe_obs::{SpanDraft, SpanKind, SpanTracer, Tracer};
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

const SPANS: u64 = 200_000;

/// A DES-shaped stream: the clock creeps forward, every fourth span is
/// an interval queued a few microseconds ahead of it, the rest are
/// instants that land behind those.
fn fill(tracer: &mut SpanTracer) {
    for i in 0..SPANS {
        let draft = if i % 4 == 0 {
            SpanDraft::new(0, SpanKind::Prefetch, i + 9, i + 30)
        } else {
            SpanDraft::new(0, SpanKind::Checkpoint, i, i)
        };
        tracer.emit(draft);
    }
}

#[test]
fn take_allocates_nothing_and_merge_only_its_output() {
    let mut a = SpanTracer::with_namespace(1);
    let mut b = SpanTracer::with_namespace(2);
    fill(&mut a);
    fill(&mut b);

    let before = ALLOCS.with(Cell::get);
    let mut left = a.take();
    let right = b.take();
    let in_take = ALLOCS.with(Cell::get) - before;
    left.merge(right);
    let in_merge = ALLOCS.with(Cell::get) - before - in_take;

    assert_eq!(in_take, 0, "take of an ordered buffer allocated");
    // A debug build's merge also builds the set its id-collision check
    // looks ids up in; CI runs this binary in release for this line.
    if !cfg!(debug_assertions) {
        assert_eq!(in_merge, 1, "merge allocates its output buffer, once");
    }
    assert_eq!(left.len(), 2 * SPANS as usize);
    assert!(left
        .spans()
        .windows(2)
        .all(|w| (w[0].start_us, w[0].end_us, w[0].id) < (w[1].start_us, w[1].end_us, w[1].id)));
}

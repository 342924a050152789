//! Allocation guard for `context::StageCache`: once every row it will use
//! exists, the cache work of a DES task — the predictor's prefetches, the
//! running slice accessed and pinned, then released, with LRU evictions
//! throughout — touches the heap not at all. A map node, a log, or a
//! scratch `Vec` creeping back into the context manager fails this test.
//!
//! One test, in a binary of its own: the counting allocator is global.

use naspipe_core::context::StageCache;
use naspipe_core::memory::mean_subnet_param_bytes;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
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

/// Stages of the modelled pipeline, and the one whose cache this is.
const STAGES: usize = 8;
const STAGE: usize = 3;

#[test]
fn steady_state_task_mix_allocates_nothing() {
    // What stage 3 of 8 sees of an NLP.c1 stream: each subnet's 6-layer
    // slice with its parameter sizes, in a cache of 3 mean slices.
    let space = SearchSpace::nlp_c1();
    let profile = ProfiledSpace::new(&space, 192);
    let per_stage = profile.num_blocks() / STAGES;
    let slices: Vec<Vec<(LayerRef, u64)>> = UniformSampler::new(&space, 7)
        .take_subnets(400)
        .iter()
        .map(|s| {
            (STAGE * per_stage..(STAGE + 1) * per_stage)
                .map(|b| (s.layer(b), profile.cost(s.layer(b)).param_bytes))
                .collect()
        })
        .collect();
    let mut cache = StageCache::new(mean_subnet_param_bytes(&space) / STAGES as u64 * 3);

    // One task: prefetch x 12 (the next two subnets), access + pin x 6,
    // unpin x 6.
    let task = |cache: &mut StageCache, i: usize| {
        for ahead in [1, 2] {
            for &(l, bytes) in &slices[(i + ahead) % slices.len()] {
                cache.prefetch(l, bytes);
            }
        }
        let slice = &slices[i % slices.len()];
        for &(l, bytes) in slice {
            cache.access(l, bytes);
            cache.pin(l);
        }
        for &(l, _) in slice {
            cache.unpin(l);
        }
    };
    // The warm-up pass touches every layer the rounds will: it alone may
    // grow the table.
    (0..slices.len()).for_each(|i| task(&mut cache, i));
    let before = (ALLOCS.with(Cell::get), cache.stats());
    (0..10_000).for_each(|i| task(&mut cache, i));
    let allocations = ALLOCS.with(Cell::get) - before.0;
    let after = cache.stats();

    assert_eq!(allocations, 0, "10 000 steady-state tasks allocated");
    assert!(
        after.evictions > before.1.evictions + 10_000,
        "the mix must keep evicting: {after:?}"
    );
    assert!(after.hits > before.1.hits && after.prefetches > before.1.prefetches);
}

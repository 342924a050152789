//! Allocation guard for the per-layer writer index of `SubnetTable`: once
//! the table is warm, a round of the DES's steady state — register the
//! next subnet, ask Algorithm 2 about the window, retire the oldest —
//! touches the heap not at all. A per-insert list, a shifted `Vec` that
//! regrows, or a scratch buffer creeping back into the index fails this
//! test.
//!
//! One test, in a binary of its own: the counting allocator is global.

use naspipe_core::partition::{Partition, PartitionMode, Partitioner};
use naspipe_core::scheduler::{CspScheduler, SubnetTable, DEFAULT_WINDOW};
use naspipe_core::task::{FinishedSet, StageId};
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
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

const STAGES: u32 = 8;
/// Distinct architectures; subnet `i` is architecture `i % ARCHS`, so the
/// window's contents repeat with this period.
const ARCHS: usize = 400;
const ROUNDS: usize = 10_000;

#[test]
fn steady_state_insert_admit_retire_allocates_nothing() {
    // NLP.c1 subnets under mirrored 8-stage partitions, every entry built
    // before counting starts: the table owns what `insert` is handed.
    let space = SearchSpace::nlp_c1();
    let mut partitioner = Partitioner::new(
        ProfiledSpace::new(&space, 192),
        STAGES,
        PartitionMode::Mirrored,
    );
    let archs: Vec<(Vec<u32>, Partition)> = UniformSampler::new(&space, 7)
        .take_subnets(ARCHS)
        .into_iter()
        .map(|s| {
            let p = partitioner.partition_for(&s);
            (s.choices().to_vec(), p)
        })
        .collect();
    let window = DEFAULT_WINDOW as usize;
    let warm_up = window + ARCHS;
    let entries: Vec<(Subnet, Partition)> = (0..warm_up + ROUNDS)
        .map(|i| {
            let (row, p) = &archs[i % ARCHS];
            (Subnet::new(SubnetId(i as u64), row.clone()), p.clone())
        })
        .collect();
    let mut finished = vec![FinishedSet::new(); STAGES as usize];

    // One round: register the next subnet, check every window member at
    // two stages, mark the oldest done everywhere and retire it.
    let mut admitted = 0u64;
    let mut round = |table: &mut SubnetTable,
                     finished: &mut [FinishedSet],
                     (subnet, p): (Subnet, Partition)| {
        let id = subnet.seq_id();
        table.insert(subnet, p).expect("fresh sequence IDs");
        let oldest = id.0.saturating_sub(window as u64 - 1);
        for y in oldest..=id.0 {
            for stage in [StageId(0), StageId(STAGES / 2)] {
                admitted += u64::from(CspScheduler::admissible(
                    SubnetId(y),
                    finished,
                    table,
                    stage,
                ));
            }
        }
        for f in finished.iter_mut() {
            if !f.contains(SubnetId(oldest)) {
                f.insert(SubnetId(oldest));
            }
        }
        table.retire_below(SubnetId(oldest + 1));
    };

    // The warm-up fills the window, then runs one full period of
    // architectures: every list reaches the largest occupancy the rounds
    // will ask of it.
    let mut table = SubnetTable::new();
    let mut entries = entries.into_iter();
    entries
        .by_ref()
        .take(warm_up)
        .for_each(|e| round(&mut table, &mut finished, e));
    let before = ALLOCS.with(Cell::get);
    entries.for_each(|e| round(&mut table, &mut finished, e));
    let allocations = ALLOCS.with(Cell::get) - before;

    assert_eq!(allocations, 0, "10 000 steady-state rounds allocated");
    assert_eq!(table.len(), window - 1);
    assert!(admitted > 0, "the window must admit something");
}

//! Model-based differential test of `context::StageCache`.
//!
//! The reference model below is the map-and-deque implementation the
//! flat cache replaced, moved here unchanged except that a layer pinned
//! *before* it is inserted stays off the LRU until its last pin drops
//! (the old code enqueued it, so pressure could evict a pinned layer).
//! Both sides run the same random operation sequences and must agree
//! after **every** operation on the return value, every counter, the
//! byte totals and the residency of every layer — which pins the
//! eviction order, not only the eviction count.

use naspipe_core::context::{CacheStats, StageCache};
use naspipe_supernet::layer::LayerRef;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The reference: two ordered maps and a deque, every step a lookup or a
/// scan.
struct ModelCache {
    capacity: u64,
    used: u64,
    high_water: u64,
    resident: BTreeMap<LayerRef, u64>,
    // LRU order: front = least recently used. Contains every resident,
    // unpinned layer exactly once.
    lru: VecDeque<LayerRef>,
    pinned: BTreeMap<LayerRef, u32>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            used: 0,
            high_water: 0,
            resident: BTreeMap::new(),
            lru: VecDeque::new(),
            pinned: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn contains(&self, layer: LayerRef) -> bool {
        self.resident.contains_key(&layer)
    }

    fn lru_remove(&mut self, layer: LayerRef) {
        if let Some(pos) = self.lru.iter().position(|&l| l == layer) {
            self.lru.remove(pos);
        }
    }

    fn could_fit(&self, bytes: u64) -> bool {
        let evictable: u64 = self.lru.iter().map(|l| self.resident[l]).sum();
        self.used - evictable + bytes <= self.capacity
    }

    fn make_room(&mut self, bytes: u64) {
        while self.used + bytes > self.capacity {
            let Some(victim) = self.lru.pop_front() else {
                return;
            };
            let sz = self.resident[&victim];
            self.used -= sz;
            self.stats.bytes_evicted += sz;
            self.stats.evictions += 1;
            self.resident.remove(&victim);
        }
    }

    /// The one departure from the old code: only unpinned layers enter
    /// the LRU.
    fn enqueue(&mut self, layer: LayerRef) {
        if !self.pinned.contains_key(&layer) {
            self.lru.push_back(layer);
        }
    }

    fn access(&mut self, layer: LayerRef, bytes: u64) -> bool {
        if self.resident.contains_key(&layer) {
            self.stats.hits += 1;
            if !self.pinned.contains_key(&layer) {
                self.lru_remove(layer);
                self.lru.push_back(layer);
            }
            true
        } else {
            self.stats.misses += 1;
            self.stats.bytes_fetched += bytes;
            self.insert(layer, bytes);
            false
        }
    }

    fn insert(&mut self, layer: LayerRef, bytes: u64) {
        if self.resident.contains_key(&layer) {
            return;
        }
        self.make_room(bytes);
        self.resident.insert(layer, bytes);
        self.enqueue(layer);
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
    }

    fn prefetch(&mut self, layer: LayerRef, bytes: u64) -> Option<u64> {
        if self.resident.contains_key(&layer) {
            return None;
        }
        if !self.could_fit(bytes) {
            return None;
        }
        self.make_room(bytes);
        self.resident.insert(layer, bytes);
        self.enqueue(layer);
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        self.stats.prefetches += 1;
        self.stats.bytes_fetched += bytes;
        Some(bytes)
    }

    fn pin(&mut self, layer: LayerRef) {
        let count = self.pinned.entry(layer).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.lru_remove(layer);
        }
    }

    fn unpin(&mut self, layer: LayerRef) {
        let count = self
            .pinned
            .get_mut(&layer)
            .expect("unpin of unpinned layer");
        *count -= 1;
        if *count == 0 {
            self.pinned.remove(&layer);
            if self.resident.contains_key(&layer) {
                self.lru.push_back(layer);
            }
        }
    }

    fn evict(&mut self, layer: LayerRef) -> u64 {
        if self.pinned.contains_key(&layer) {
            return 0;
        }
        let Some(bytes) = self.resident.remove(&layer) else {
            return 0;
        };
        self.lru_remove(layer);
        self.used -= bytes;
        self.stats.bytes_evicted += bytes;
        self.stats.evictions += 1;
        bytes
    }
}

const BLOCKS: u32 = 6;
const CHOICES: u32 = 8;

/// One generated step: an operation selector, the layer, a size.
type Step = (u32, u32, u32, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u32..12, 0..BLOCKS, 0..CHOICES, 1u64..61), 2000..2400)
}

/// What a run exercised, so the properties can insist on the hard cases.
#[derive(Default)]
struct Seen {
    refused_prefetch: bool,
    over_capacity: bool,
    evictions: u64,
}

/// Drives both caches through `steps`, comparing after every one, with
/// at most `max_held` pins outstanding at once.
fn run(capacity: u64, steps: &[Step], max_held: usize) -> Result<Seen, String> {
    let mut flat = StageCache::new(capacity);
    let mut model = ModelCache::new(capacity);
    // Outstanding pins, oldest first (unpin of an unpinned layer panics
    // on both sides, so the driver only releases what it holds).
    let mut held: Vec<LayerRef> = Vec::new();
    let mut seen = Seen::default();
    for (i, &(op, block, choice, bytes)) in steps.iter().enumerate() {
        let layer = LayerRef::new(block, choice);
        let (name, got, want) = match op {
            0..=2 => (
                "access",
                u64::from(flat.access(layer, bytes)),
                u64::from(model.access(layer, bytes)),
            ),
            3 => {
                flat.insert(layer, bytes);
                model.insert(layer, bytes);
                ("insert", 0, 0)
            }
            4 | 5 => {
                let (got, want) = (flat.prefetch(layer, bytes), model.prefetch(layer, bytes));
                seen.refused_prefetch |= want.is_none() && !model.contains(layer);
                (
                    "prefetch",
                    got.map_or(0, |b| b + 1),
                    want.map_or(0, |b| b + 1),
                )
            }
            6 => ("evict", flat.evict(layer), model.evict(layer)),
            _ if (op >= 9 || held.len() >= max_held) && !held.is_empty() => {
                let layer = held.remove((block * CHOICES + choice) as usize % held.len());
                flat.unpin(layer);
                model.unpin(layer);
                ("unpin", 0, 0)
            }
            _ => {
                flat.pin(layer);
                model.pin(layer);
                held.push(layer);
                ("pin", 0, 0)
            }
        };
        let at = format!("step {i}: {name} {layer} ({bytes} B, capacity {capacity})");
        if got != want {
            return Err(format!("{at}: returned {got}, model {want}"));
        }
        if flat.stats() != model.stats {
            return Err(format!("{at}: {:?} != {:?}", flat.stats(), model.stats));
        }
        if (flat.used(), flat.high_water()) != (model.used, model.high_water) {
            return Err(format!(
                "{at}: used/high-water {}/{} != {}/{}",
                flat.used(),
                flat.high_water(),
                model.used,
                model.high_water
            ));
        }
        for b in 0..BLOCKS {
            for c in 0..CHOICES {
                let l = LayerRef::new(b, c);
                if flat.contains(l) != model.contains(l) {
                    return Err(format!("{at}: residency of {l} != {}", model.contains(l)));
                }
            }
        }
        seen.over_capacity |= model.used > capacity;
    }
    seen.evictions = model.stats.evictions;
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine's regime: a few pins at a time, steady LRU turnover.
    #[test]
    fn flat_cache_matches_the_model(capacity in 50u64..401, steps in steps()) {
        match run(capacity, &steps, 6) {
            Ok(seen) => prop_assert!(seen.evictions > 0, "nothing was ever evicted"),
            Err(mismatch) => prop_assert!(false, "{mismatch}"),
        }
    }

    /// Pin-heavy on a small cache: pins hold it over its soft capacity
    /// and prefetches are refused, and the two sides still agree.
    #[test]
    fn flat_cache_matches_the_model_under_pin_pressure(
        capacity in 50u64..121,
        steps in steps(),
    ) {
        match run(capacity, &steps, 24) {
            Ok(seen) => {
                prop_assert!(seen.over_capacity, "pins never held the cache over capacity");
                prop_assert!(seen.refused_prefetch, "no prefetch was refused");
            }
            Err(mismatch) => prop_assert!(false, "{mismatch}"),
        }
    }
}

//! Context management: the per-stage GPU parameter cache.
//!
//! The whole supernet lives in pinned CPU memory; a stage's GPU keeps only
//! a small cache of candidate-layer parameters (~3x one subnet's stage
//! slice by default). The context manager prefetches layers the predictor
//! expects to run and evicts finished ones, LRU-first. Accesses are
//! tracked at *layer* granularity — the paper's cache-hit metric counts,
//! per activated layer, whether its parameters were already resident.
//!
//! Every operation is O(1) and allocation-free in steady state: layers
//! live in dense `rows[block][choice]` slots (a row is allocated when its
//! block is first touched — a stage only ever sees the few blocks its
//! partitions assign it), and the LRU is a doubly-linked list threaded
//! through those slots.

use naspipe_obs::SpanId;
use naspipe_sim::time::SimTime;
use naspipe_supernet::layer::LayerRef;

/// Cache-hit statistics (the "Cache Hit" column of Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Layer accesses that found the layer resident.
    pub hits: u64,
    /// Layer accesses that required a synchronous fetch.
    pub misses: u64,
    /// Bytes fetched CPU -> GPU.
    pub bytes_fetched: u64,
    /// Bytes evicted GPU -> CPU.
    pub bytes_evicted: u64,
    /// Layers evicted GPU -> CPU.
    pub evictions: u64,
    /// Prefetches issued ahead of use.
    pub prefetches: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 1.0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The owner's note on a layer's latest transfer. The cache only stores
/// it: it plays no part in residency and outlives eviction.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Landing {
    /// When the transfer completes; `None` before the layer's first.
    pub at: Option<SimTime>,
    /// The span that carries it (external when untraced).
    pub span: SpanId,
}

/// One layer's state. The layer is on the LRU list exactly while
/// `resident && pins == 0` (so a pinned layer can never be a victim, and
/// none is listed twice); `prev`/`next` mean something only then.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    bytes: u64,
    pins: u32,
    prev: Option<LayerRef>,
    next: Option<LayerRef>,
    resident: bool,
    landing: Landing,
}

/// A per-stage parameter cache with LRU eviction and pinning.
///
/// # Example
///
/// ```
/// use naspipe_core::context::StageCache;
/// use naspipe_supernet::layer::LayerRef;
///
/// let mut cache = StageCache::new(100);
/// assert!(!cache.access(LayerRef::new(0, 3), 60)); // miss: fetched
/// assert!(cache.access(LayerRef::new(0, 3), 60));  // hit
/// cache.prefetch(LayerRef::new(1, 0), 30);
/// assert!(cache.access(LayerRef::new(1, 0), 30));  // prefetch paid off
/// assert!(cache.stats().hit_rate() > 0.6);
/// ```
#[derive(Debug, Clone)]
pub struct StageCache {
    capacity: u64,
    used: u64,
    high_water: u64,
    // Bytes on the LRU list: what eviction could release right now.
    evictable: u64,
    rows: Vec<Vec<Slot>>,
    // LRU order: `head` = least recently used, `tail` = most recently.
    head: Option<LayerRef>,
    tail: Option<LayerRef>,
    stats: CacheStats,
}

impl StageCache {
    /// Creates a cache holding at most `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            used: 0,
            high_water: 0,
            evictable: 0,
            rows: Vec::new(),
            head: None,
            tail: None,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Largest residency ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `layer` is resident.
    pub fn contains(&self, layer: LayerRef) -> bool {
        self.rows
            .get(layer.block as usize)
            .and_then(|row| row.get(layer.choice as usize))
            .is_some_and(|s| s.resident)
    }

    /// The note kept for `layer` (see [`Landing`]).
    pub(crate) fn landing(&mut self, layer: LayerRef) -> &mut Landing {
        &mut self.slot(layer).landing
    }

    /// `layer`'s slot, growing the table on the first touch.
    fn slot(&mut self, layer: LayerRef) -> &mut Slot {
        let (b, c) = (layer.block as usize, layer.choice as usize);
        if self.rows.len() <= b {
            self.rows.resize(b + 1, Vec::new());
        }
        let row = &mut self.rows[b];
        if row.len() <= c {
            // Exact: a 32-stage run holds ~600 rows, and doubling would
            // leave a third of every one unused.
            row.reserve_exact(c + 1 - row.len());
            row.resize(c + 1, Slot::default());
        }
        &mut row[c]
    }

    /// The slot of a layer touched before, as every listed layer was.
    fn known(&mut self, layer: LayerRef) -> &mut Slot {
        &mut self.rows[layer.block as usize][layer.choice as usize]
    }

    /// Appends resident, unpinned `layer` as most recently used.
    fn lru_push(&mut self, layer: LayerRef) {
        let tail = self.tail.replace(layer);
        let s = self.known(layer);
        (s.prev, s.next) = (tail, None);
        self.evictable += s.bytes;
        match tail {
            Some(t) => self.known(t).next = Some(layer),
            None => self.head = Some(layer),
        }
    }

    fn lru_remove(&mut self, layer: LayerRef) {
        let s = *self.known(layer);
        self.evictable -= s.bytes;
        match s.prev {
            Some(p) => self.known(p).next = s.next,
            None => self.head = s.next,
        }
        match s.next {
            Some(n) => self.known(n).prev = s.prev,
            None => self.tail = s.prev,
        }
    }

    /// The list's byte total, re-derived link by link.
    fn lru_bytes(&self) -> u64 {
        let (mut sum, mut at) = (0, self.head);
        while let Some(l) = at {
            let s = &self.rows[l.block as usize][l.choice as usize];
            sum += s.bytes;
            at = s.next;
        }
        sum
    }

    /// Whether `bytes` more could be made to fit by evicting unpinned
    /// layers, without actually evicting.
    fn could_fit(&self, bytes: u64) -> bool {
        debug_assert_eq!(self.evictable, self.lru_bytes());
        self.used - self.evictable + bytes <= self.capacity
    }

    /// Takes resident, unpinned `layer` off the list and out of the cache.
    fn release(&mut self, layer: LayerRef) -> u64 {
        self.lru_remove(layer);
        let s = self.known(layer);
        s.resident = false;
        let bytes = s.bytes;
        self.used -= bytes;
        self.stats.bytes_evicted += bytes;
        self.stats.evictions += 1;
        bytes
    }

    /// Makes absent `layer` resident, first evicting LRU unpinned layers
    /// until `bytes` more fit, best effort: stops when nothing evictable
    /// remains even if still over capacity (mirroring the paper's limit
    /// check, which *delays* copies under pressure but lets required ones
    /// proceed).
    fn admit(&mut self, layer: LayerRef, bytes: u64) {
        while self.used + bytes > self.capacity {
            let Some(victim) = self.head else { break };
            self.release(victim);
        }
        let s = self.slot(layer);
        (s.resident, s.bytes) = (true, bytes);
        if s.pins == 0 {
            self.lru_push(layer);
        }
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
    }

    /// Records an access to `layer` (of `bytes` size) at task-dispatch
    /// time. Returns `true` on a hit; on a miss the layer is fetched
    /// synchronously (counted in `bytes_fetched`) and inserted, evicting
    /// LRU layers as needed.
    pub fn access(&mut self, layer: LayerRef, bytes: u64) -> bool {
        let Slot { resident, pins, .. } = *self.slot(layer);
        if resident {
            self.stats.hits += 1;
            // Refresh LRU position if unpinned.
            if pins == 0 {
                self.lru_remove(layer);
                self.lru_push(layer);
            }
        } else {
            self.stats.misses += 1;
            self.stats.bytes_fetched += bytes;
            self.admit(layer, bytes);
        }
        resident
    }

    /// Inserts `layer` (a required fetch completed), evicting LRU layers
    /// best-effort. A required layer is admitted even if pins keep the
    /// cache over capacity — synchronous swap-ins cannot be refused, only
    /// delayed. A layer pinned before it arrives stays off the LRU list
    /// until its last pin drops.
    pub fn insert(&mut self, layer: LayerRef, bytes: u64) {
        if !self.contains(layer) {
            self.admit(layer, bytes);
        }
    }

    /// Starts an asynchronous prefetch of `layer` if it is absent and
    /// fits; returns the bytes to transfer (`Some`) or `None` if already
    /// resident or not insertable within capacity (prefetches — unlike
    /// required fetches — are refused under memory pressure).
    pub fn prefetch(&mut self, layer: LayerRef, bytes: u64) -> Option<u64> {
        if self.contains(layer) || !self.could_fit(bytes) {
            return None;
        }
        self.admit(layer, bytes);
        self.stats.prefetches += 1;
        self.stats.bytes_fetched += bytes;
        Some(bytes)
    }

    /// Pins `layer` (it is about to be used by an executing task and must
    /// not be evicted). Pins nest.
    pub fn pin(&mut self, layer: LayerRef) {
        let s = self.slot(layer);
        s.pins += 1;
        if s.pins == 1 && s.resident {
            self.lru_remove(layer);
        }
    }

    /// Releases one pin of `layer`; when the last pin drops the layer
    /// re-enters LRU order as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not pinned.
    pub fn unpin(&mut self, layer: LayerRef) {
        let s = self.slot(layer);
        assert!(s.pins > 0, "unpin of unpinned layer");
        s.pins -= 1;
        if s.pins == 0 && s.resident {
            self.lru_push(layer);
        }
    }

    /// Explicitly evicts `layer` if resident and unpinned; returns the
    /// bytes released.
    pub fn evict(&mut self, layer: LayerRef) -> u64 {
        let Slot { resident, pins, .. } = *self.slot(layer);
        if resident && pins == 0 {
            self.release(layer)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(b: u32, c: u32) -> LayerRef {
        LayerRef::new(b, c)
    }

    #[test]
    fn access_miss_then_hit() {
        let mut cache = StageCache::new(100);
        assert!(!cache.access(l(0, 0), 40));
        assert!(cache.access(l(0, 0), 40));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_fetched, 40);
        assert_eq!(cache.used(), 40);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 40);
        cache.insert(l(1, 0), 40);
        // Touch layer 0 so layer 1 becomes LRU.
        cache.access(l(0, 0), 40);
        cache.insert(l(2, 0), 40); // forces eviction of l(1,0)
        assert!(cache.contains(l(0, 0)));
        assert!(!cache.contains(l(1, 0)));
        assert!(cache.contains(l(2, 0)));
        assert_eq!(cache.stats().bytes_evicted, 40);
    }

    #[test]
    fn pinned_layers_survive_pressure() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 60);
        cache.pin(l(0, 0));
        cache.insert(l(1, 0), 30);
        // Inserting 40 must evict l(1,0), not the pinned l(0,0).
        cache.insert(l(2, 0), 40);
        assert!(cache.contains(l(0, 0)));
        assert!(!cache.contains(l(1, 0)));
        cache.unpin(l(0, 0));
    }

    #[test]
    fn prefetch_fails_when_pins_block() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 90);
        cache.pin(l(0, 0));
        assert_eq!(cache.prefetch(l(1, 0), 50), None);
        assert!(!cache.contains(l(1, 0)));
        cache.unpin(l(0, 0));
        assert_eq!(cache.prefetch(l(1, 0), 50), Some(50));
        assert!(cache.contains(l(1, 0)));
        assert!(!cache.contains(l(0, 0)));
    }

    #[test]
    fn prefetch_of_resident_is_noop() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 10);
        assert_eq!(cache.prefetch(l(0, 0), 10), None);
        assert_eq!(cache.stats().prefetches, 0);
    }

    #[test]
    fn prefetched_layer_hits_on_access() {
        let mut cache = StageCache::new(100);
        cache.prefetch(l(0, 0), 25);
        assert!(cache.access(l(0, 0), 25));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn explicit_evict() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 30);
        assert_eq!(cache.evict(l(0, 0)), 30);
        assert_eq!(cache.evict(l(0, 0)), 0);
        cache.insert(l(1, 0), 30);
        cache.pin(l(1, 0));
        assert_eq!(cache.evict(l(1, 0)), 0, "pinned layers cannot be evicted");
        cache.unpin(l(1, 0));
    }

    #[test]
    fn nested_pins() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 10);
        cache.pin(l(0, 0));
        cache.pin(l(0, 0));
        cache.unpin(l(0, 0));
        assert_eq!(cache.evict(l(0, 0)), 0, "still pinned once");
        cache.unpin(l(0, 0));
        assert_eq!(cache.evict(l(0, 0)), 10);
    }

    #[test]
    fn pinned_before_insert_survives_pressure() {
        let mut cache = StageCache::new(100);
        cache.pin(l(0, 0));
        cache.insert(l(0, 0), 60);
        cache.insert(l(1, 0), 60); // nothing evictable: over capacity
        assert!(cache.contains(l(0, 0)), "a pinned layer was evicted");
        assert_eq!((cache.used(), cache.stats().evictions), (120, 0));
        cache.unpin(l(0, 0));
        assert_eq!(cache.evict(l(0, 0)), 60);
    }

    #[test]
    fn pin_insert_unpin_does_not_double_enqueue() {
        let mut cache = StageCache::new(100);
        cache.pin(l(0, 0));
        cache.insert(l(0, 0), 60);
        cache.unpin(l(0, 0));
        cache.insert(l(1, 0), 60); // evicts l(0,0), its one LRU entry
        cache.insert(l(2, 0), 60); // evicts l(1,0); no stale entry to pop
        assert!(!cache.contains(l(0, 0)) && !cache.contains(l(1, 0)));
        assert!(cache.contains(l(2, 0)));
        assert_eq!((cache.used(), cache.stats().evictions), (60, 2));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut cache = StageCache::new(100);
        cache.insert(l(0, 0), 70);
        cache.evict(l(0, 0));
        cache.insert(l(1, 0), 20);
        assert_eq!(cache.high_water(), 70);
        assert_eq!(cache.used(), 20);
    }

    #[test]
    fn empty_hit_rate_is_one() {
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn required_insert_admitted_over_capacity() {
        // Synchronous swap-ins cannot be refused: the cache goes over
        // its soft capacity rather than deadlocking execution.
        let mut cache = StageCache::new(10);
        cache.insert(l(0, 0), 11);
        assert!(cache.contains(l(0, 0)));
        assert_eq!(cache.used(), 11);
        // Prefetches, by contrast, are refused.
        assert_eq!(cache.prefetch(l(1, 0), 11), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        StageCache::new(0);
    }
}

//! A hand-rolled scoped worker pool with a *deterministic-split* contract.
//!
//! The paper's reproducibility property is "same training result
//! regardless of GPU count"; this pool is the compute-level analogue:
//! **work is split at fixed chunk boundaries derived from the problem
//! shape, never from the worker count**, and chunk results land in
//! caller-chosen disjoint output regions (or are combined by the caller
//! in ascending chunk order). Workers only *claim* chunks — which worker
//! executes a chunk varies run to run, but what each chunk computes and
//! where it writes does not, so every op built on [`ComputePool::run`]
//! is bitwise identical at 1, 2, 4, or 8 workers.
//!
//! The pool is registry-free (no rayon): `threads - 1` parked helper
//! threads plus the submitting thread, a single active job slot guarded
//! by a mutex/condvar pair, and chunk claiming through one atomic
//! counter. The submitter always participates in execution, so a job
//! makes progress even if every helper is busy elsewhere, and blocks
//! until the last chunk completes — which is what makes lending the
//! task closure across threads sound (see `TaskRef`).
//!
//! Binding is scoped and thread-local: [`with_threads`] pins a pool for
//! the duration of a closure (stage workers in the threaded runtime each
//! bind their own), [`current`] is what the tensor kernels consult, and
//! the process-wide default honours the `NASPIPE_THREADS` environment
//! variable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Environment variable selecting the default worker count.
pub(crate) const THREADS_ENV: &str = "NASPIPE_THREADS";

/// Upper bound on workers per pool (claim counters and stats are cheap,
/// but a runaway env value should not spawn hundreds of threads).
pub(crate) const MAX_THREADS: usize = 64;

/// A borrowed task closure smuggled across threads with its lifetime
/// erased.
///
/// Soundness: the submitter blocks in [`ComputePool::run`] until every
/// claimed chunk has executed, and helpers only call the closure while
/// executing a claimed chunk, so the borrow always outlives its uses
/// despite the forged `'static`.
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn(usize) + Sync));

impl TaskRef {
    /// # Safety
    ///
    /// The caller must not return from the scope owning `task` until
    /// every use of the returned handle has finished.
    unsafe fn erase(task: &(dyn Fn(usize) + Sync)) -> Self {
        TaskRef(std::mem::transmute::<
            &(dyn Fn(usize) + Sync),
            &'static (dyn Fn(usize) + Sync),
        >(task))
    }
}

/// One in-flight fan-out: `chunks` closure invocations claimed through
/// `next` in batches of `grab`, completion tracked by `remaining`.
struct Job {
    task: TaskRef,
    chunks: usize,
    /// Consecutive chunks claimed per `next` increment (>= 1). Purely a
    /// contention knob: which worker executes a batch varies, what each
    /// chunk computes does not, so `grab` never affects results.
    grab: usize,
    next: AtomicUsize,
    remaining: Mutex<usize>,
    done: Condvar,
    busy_us: AtomicU64,
    panicked: AtomicBool,
}

/// The single active-job slot helpers watch.
struct Slot {
    job: Option<Arc<Job>>,
    /// Bumped on every submission so helpers can tell a fresh job from
    /// one they already saw complete.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Signals helpers: new job or shutdown.
    work: Condvar,
    /// Signals submitters: the job slot is free again.
    free: Condvar,
    /// Per-worker `(chunks, busy_us)`; index 0 aggregates submitting
    /// threads, 1.. are the helpers.
    worker_stats: Vec<(AtomicU64, AtomicU64)>,
    jobs: AtomicU64,
    chunks: AtomicU64,
}

/// Point-in-time utilisation counters of one pool (see
/// [`ComputePool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker count the pool was built with.
    pub threads: usize,
    /// Fan-out jobs submitted.
    pub jobs: u64,
    /// Chunks executed across all jobs.
    pub chunks: u64,
    /// Microseconds spent executing chunks, summed over workers.
    pub busy_us: u64,
    /// Per-worker `(chunks, busy_us)`; index 0 is the submitting
    /// thread(s), 1.. the helpers.
    pub workers: Vec<(u64, u64)>,
}

impl PoolStats {
    /// The counters accumulated since `base` was snapshotted (for
    /// attributing a shared registry pool to one run).
    #[must_use]
    pub fn since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            threads: self.threads,
            jobs: self.jobs.saturating_sub(base.jobs),
            chunks: self.chunks.saturating_sub(base.chunks),
            busy_us: self.busy_us.saturating_sub(base.busy_us),
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, &(c, b))| {
                    let (bc, bb) = base.workers.get(i).copied().unwrap_or((0, 0));
                    (c.saturating_sub(bc), b.saturating_sub(bb))
                })
                .collect(),
        }
    }
}

/// Per-submitting-thread accounting of jobs this thread fanned out;
/// drained with [`take_thread_stats`] so the threaded runtime can
/// attribute pool work to the stage that submitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadPoolStats {
    /// Jobs submitted from this thread.
    pub jobs: u64,
    /// Chunks those jobs executed (on any worker).
    pub chunks: u64,
    /// Microseconds those chunks ran for (on any worker).
    pub busy_us: u64,
}

thread_local! {
    /// Stack of scoped pool bindings; the innermost wins.
    static BOUND: std::cell::RefCell<Vec<Arc<ComputePool>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// True while this thread executes a pool chunk: nested fan-outs
    /// must run inline (the job slot is held, so submitting would
    /// deadlock).
    static IN_CHUNK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static THREAD_STATS: std::cell::Cell<ThreadPoolStats> =
        const { std::cell::Cell::new(ThreadPoolStats { jobs: 0, chunks: 0, busy_us: 0 }) };
}

/// The deterministic worker pool. See the module docs for the contract.
pub struct ComputePool {
    shared: Arc<Shared>,
    helpers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ComputePool {
    /// Builds a pool of `threads` workers (the submitting thread plus
    /// `threads - 1` parked helpers). `0` is treated as `1`; counts are
    /// capped at `MAX_THREADS`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            free: Condvar::new(),
            worker_stats: (0..threads)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        });
        let helpers = (1..threads)
            .map(|widx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("naspipe-pool-{widx}"))
                    .spawn(move || helper_loop(&shared, widx))
                    .expect("spawn pool helper")
            })
            .collect();
        ComputePool {
            shared,
            helpers,
            threads,
        }
    }

    /// Worker count (submitter included).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(0), task(1), .., task(chunks - 1)` to completion, each
    /// exactly once, distributed over the pool's workers. The calling
    /// thread participates, and the call returns only after the last
    /// chunk finished.
    ///
    /// Determinism contract for callers: `chunks` and what each chunk
    /// index computes must be derived from the problem shape only, and
    /// chunks must write disjoint regions (or the caller combines
    /// per-chunk partials in ascending chunk order afterwards).
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) if any chunk panicked on any worker.
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_chunked(chunks, 1, task);
    }

    /// [`Self::run`] with batched claiming: workers take `grab`
    /// consecutive chunks per claim instead of one, cutting per-chunk
    /// synchronisation when the chunk grid is fine-grained. `grab` is a
    /// contention knob only — every chunk still runs exactly once and
    /// writes where its index says, so results are identical for any
    /// `grab` (callers should still derive it from the shape, not the
    /// worker count, to keep the determinism argument trivial).
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) if any chunk panicked on any worker.
    pub(crate) fn run_chunked(&self, chunks: usize, grab: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let grab = grab.max(1);
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared
            .chunks
            .fetch_add(chunks as u64, Ordering::Relaxed);
        let inline = self.threads == 1 || chunks == 1 || IN_CHUNK.with(std::cell::Cell::get);
        let busy = if inline {
            let started = Instant::now();
            let panicked = run_chunks_inline(task, chunks);
            let us = started.elapsed().as_micros() as u64;
            let (c, b) = &self.shared.worker_stats[0];
            c.fetch_add(chunks as u64, Ordering::Relaxed);
            b.fetch_add(us, Ordering::Relaxed);
            if panicked {
                account_thread(1, chunks as u64, us);
                panic!("a parallel compute chunk panicked");
            }
            us
        } else {
            let job = Arc::new(Job {
                // SAFETY: this call blocks until every chunk completed,
                // so the borrow outlives all uses (see TaskRef::erase).
                task: unsafe { TaskRef::erase(task) },
                chunks,
                grab,
                next: AtomicUsize::new(0),
                remaining: Mutex::new(chunks),
                done: Condvar::new(),
                busy_us: AtomicU64::new(0),
                panicked: AtomicBool::new(false),
            });
            {
                let mut slot = lock(&self.shared.slot);
                while slot.job.is_some() {
                    slot = wait(&self.shared.free, slot);
                }
                slot.job = Some(Arc::clone(&job));
                slot.epoch += 1;
                self.shared.work.notify_all();
            }
            execute_chunks(&self.shared, &job, 0);
            {
                let mut remaining = lock(&job.remaining);
                while *remaining > 0 {
                    remaining = wait(&job.done, remaining);
                }
            }
            {
                let mut slot = lock(&self.shared.slot);
                slot.job = None;
                self.shared.free.notify_all();
            }
            let us = job.busy_us.load(Ordering::Relaxed);
            if job.panicked.load(Ordering::Relaxed) {
                account_thread(1, chunks as u64, us);
                panic!("a parallel compute chunk panicked");
            }
            us
        };
        account_thread(1, chunks as u64, busy);
    }

    /// Snapshot of the pool's utilisation counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            busy_us: self
                .shared
                .worker_stats
                .iter()
                .map(|(_, b)| b.load(Ordering::Relaxed))
                .sum(),
            workers: self
                .shared
                .worker_stats
                .iter()
                .map(|(c, b)| (c.load(Ordering::Relaxed), b.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.helpers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// Survives mutex poisoning: a panicked chunk must not wedge unrelated
/// submitters, and the panic is re-raised from `run` anyway.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn account_thread(jobs: u64, chunks: u64, busy_us: u64) {
    THREAD_STATS.with(|cell| {
        let mut stats = cell.get();
        stats.jobs += jobs;
        stats.chunks += chunks;
        stats.busy_us += busy_us;
        cell.set(stats);
    });
}

/// Runs all chunks on the calling thread; returns whether any panicked.
fn run_chunks_inline(task: &(dyn Fn(usize) + Sync), chunks: usize) -> bool {
    let was = IN_CHUNK.with(|cell| cell.replace(true));
    let mut panicked = false;
    for chunk in 0..chunks {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(chunk))).is_err() {
            panicked = true;
        }
    }
    IN_CHUNK.with(|cell| cell.set(was));
    panicked
}

/// Claims and executes chunk batches of `job` until none remain; used by
/// both the submitter and helpers. Each claim takes `job.grab`
/// consecutive chunk indices; completion is accounted once per batch.
fn execute_chunks(shared: &Shared, job: &Job, widx: usize) {
    let task = job.task;
    let was = IN_CHUNK.with(|cell| cell.replace(true));
    loop {
        let start = job.next.fetch_add(job.grab, Ordering::Relaxed);
        if start >= job.chunks {
            break;
        }
        let end = (start + job.grab).min(job.chunks);
        let started = Instant::now();
        let mut panicked = false;
        for chunk in start..end {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (task.0)(chunk))).is_err() {
                panicked = true;
            }
        }
        let us = started.elapsed().as_micros() as u64;
        job.busy_us.fetch_add(us, Ordering::Relaxed);
        let (c, b) = &shared.worker_stats[widx];
        c.fetch_add((end - start) as u64, Ordering::Relaxed);
        b.fetch_add(us, Ordering::Relaxed);
        if panicked {
            job.panicked.store(true, Ordering::Relaxed);
        }
        let mut remaining = lock(&job.remaining);
        *remaining -= end - start;
        if *remaining == 0 {
            job.done.notify_all();
        }
    }
    IN_CHUNK.with(|cell| cell.set(was));
}

fn helper_loop(shared: &Shared, widx: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if let Some(job) = &slot.job {
                        break Arc::clone(job);
                    }
                }
                slot = wait(&shared.work, slot);
            }
        };
        execute_chunks(shared, &job, widx);
    }
}

/// Resolves the process-default worker count: `NASPIPE_THREADS` when set
/// (clamped to `1..=MAX_THREADS`), else the machine's available
/// parallelism capped at 8. Read once; later env changes are ignored.
pub(crate) fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or_else(
                || {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                        .min(8)
                },
                |n| n.clamp(1, MAX_THREADS),
            )
    })
}

/// The shared registry pool for `threads` workers (`0` selects
/// `default_threads`). Pools are created on first use and live for the
/// process; use [`PoolStats::since`] to attribute one run's work.
pub fn shared(threads: usize) -> Arc<ComputePool> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<ComputePool>>>> = OnceLock::new();
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads.clamp(1, MAX_THREADS)
    };
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock(registry);
    Arc::clone(
        map.entry(threads)
            .or_insert_with(|| Arc::new(ComputePool::new(threads))),
    )
}

/// Runs `body` with the registry pool for `threads` workers bound as
/// this thread's current pool (`0` selects the process default).
/// Bindings nest; the innermost wins.
pub fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
    with_pool(shared(threads), body)
}

/// Runs `body` with `pool` bound as this thread's current pool.
pub fn with_pool<R>(pool: Arc<ComputePool>, body: impl FnOnce() -> R) -> R {
    BOUND.with(|stack| stack.borrow_mut().push(pool));
    // Pop on unwind too, or a caught panic would leave a stale binding.
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            BOUND.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    body()
}

/// The pool the calling thread is currently bound to: the innermost
/// [`with_threads`]/[`with_pool`] scope, else the process-default
/// registry pool.
pub fn current() -> Arc<ComputePool> {
    BOUND
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| shared(0))
}

/// Drains this thread's accumulated fan-out accounting (jobs submitted
/// from this thread, with their chunk counts and busy time), resetting
/// it to zero.
pub fn take_thread_stats() -> ThreadPoolStats {
    THREAD_STATS.with(|cell| cell.replace(ThreadPoolStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = ComputePool::new(4);
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn run_chunked_executes_every_chunk_once_for_any_grab() {
        let pool = ComputePool::new(4);
        for grab in [1, 3, 7, 100] {
            let hits: Vec<AtomicU64> = (0..53).map(|_| AtomicU64::new(0)).collect();
            pool.run_chunked(hits.len(), grab, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "grab {grab}, chunk {i}");
            }
        }
    }

    #[test]
    fn run_chunked_propagates_panics_and_counts_chunks() {
        let pool = ComputePool::new(2);
        let before = pool.stats();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_chunked(12, 4, &|c| assert_ne!(c, 7, "boom"));
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        let delta = pool.stats().since(&before);
        assert_eq!(delta.chunks, 12, "all chunks must still be accounted");
        pool.run_chunked(4, 2, &|_| {});
    }

    #[test]
    fn zero_and_single_chunk_jobs_work() {
        let pool = ComputePool::new(2);
        pool.run(0, &|_| panic!("never claimed"));
        let ran = AtomicU64::new(0);
        pool.run(1, &|c| {
            assert_eq!(c, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ComputePool::new(1);
        let main = std::thread::current().id();
        pool.run(8, &|_| assert_eq!(std::thread::current().id(), main));
        let stats = pool.stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.chunks, 8);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].0, 8);
    }

    #[test]
    fn stats_account_all_chunks() {
        let pool = ComputePool::new(3);
        for _ in 0..5 {
            pool.run(11, &|_| {});
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 5);
        assert_eq!(stats.chunks, 55);
        let executed: u64 = stats.workers.iter().map(|&(c, _)| c).sum();
        assert_eq!(executed, 55, "claimed chunks must all be accounted");
        let delta = pool.stats().since(&stats);
        assert_eq!((delta.jobs, delta.chunks), (0, 0));
    }

    #[test]
    fn nested_fanout_runs_inline_without_deadlock() {
        let pool = Arc::new(ComputePool::new(2));
        let inner_runs = AtomicU64::new(0);
        with_pool(Arc::clone(&pool), || {
            pool.run(4, &|_| {
                current().run(3, &|_| {
                    inner_runs.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(inner_runs.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn chunk_panic_propagates_to_submitter() {
        let pool = ComputePool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|c| assert_ne!(c, 5, "boom"));
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        // The pool stays usable afterwards.
        pool.run(4, &|_| {});
    }

    #[test]
    fn with_threads_binds_and_restores() {
        assert!(current().threads() >= 1);
        with_threads(3, || {
            assert_eq!(current().threads(), 3);
            with_threads(2, || assert_eq!(current().threads(), 2));
            assert_eq!(current().threads(), 3);
        });
    }

    #[test]
    fn thread_stats_drain() {
        let _ = take_thread_stats();
        let pool = ComputePool::new(2);
        pool.run(6, &|_| {});
        let stats = take_thread_stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.chunks, 6);
        assert_eq!(take_thread_stats(), ThreadPoolStats::default());
    }

    #[test]
    fn shared_registry_reuses_pools() {
        let a = shared(2);
        let b = shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(shared(0).threads(), default_threads());
    }
}

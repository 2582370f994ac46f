//! Persistent deterministic worker pool.
//!
//! The engine's parallel tick phases used to pay a `thread::scope`
//! spawn per broadcast tick, which dominates wall time below ~1k
//! clients (ROADMAP: 0.59× at 100 clients × 2 threads). This pool is
//! spawned **once** per engine and reused for every tick: each
//! [`WorkerPool::run`] call publishes one *job* — `chunks` contiguous
//! work descriptors, executed by invoking `task(chunk_index)` — and
//! returns only when every chunk has completed (the tick barrier).
//!
//! Determinism contract: the pool decides **who** executes a chunk,
//! never **what** a chunk is. Chunk geometry is a pure function of the
//! caller's inputs (range length, slot count), decided in one place —
//! [`chunk_ranges`], which [`WorkerPool::for_each_chunk`], the entry of
//! every sharded phase, follows — each chunk writes only to its own
//! slot, and the caller merges slots in chunk-index order afterwards —
//! so results are bit-identical whether a chunk ran on a worker, on the
//! caller, or everything ran inline on a pool with zero workers.
//!
//! Scheduling is work-claiming rather than work-assigning: chunks are
//! claimed from a shared atomic counter by the caller *and* the
//! workers. On a single-core host the caller typically claims every
//! chunk itself before a worker is scheduled, so the per-tick overhead
//! is one wake notification instead of a spawn + join — which is what
//! amortises the small-population case. On multi-core hosts the
//! workers claim chunks concurrently and the same code path scales.
//!
//! Failure contract: a panicking chunk never hangs the barrier. The
//! panic payload is captured, every remaining chunk still completes,
//! and [`WorkerPool::run`] re-raises the first payload on the calling
//! thread. Dropping the pool signals shutdown and joins every worker.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Delivery-bitmap word size: every chunk [`WorkerPool::for_each_chunk`]
/// hands out starts on a multiple of this, so a chunk walks whole words
/// of a per-client bitmap without sharing one with its neighbour.
pub const CHUNK_ALIGN: usize = 64;

/// Length of every chunk but the last when `len` items are split into
/// at most `max_shards` contiguous chunks: the even split rounded up to
/// a multiple of [`CHUNK_ALIGN`].
fn chunk_len(max_shards: usize, len: usize) -> usize {
    len.div_ceil(max_shards.max(1))
        .next_multiple_of(CHUNK_ALIGN)
}

/// Number of non-empty chunks the [`chunk_len`] geometry yields (0 for
/// an empty range).
fn shard_count(max_shards: usize, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(chunk_len(max_shards, len))
    }
}

/// Chunk `i` of the [`chunk_len`] geometry.
fn chunk_range(max_shards: usize, len: usize, i: usize) -> Range<usize> {
    let chunk = chunk_len(max_shards, len);
    i * chunk..((i + 1) * chunk).min(len)
}

/// The chunks [`WorkerPool::for_each_chunk`] splits `0..len` into when
/// handed `max_shards` slots, in slot order: chunk `i` goes to slot `i`.
/// Callers that hand each chunk a matching part of their own data (the
/// client fan-out splits its columns here) use this instead of
/// re-deriving the geometry.
pub fn chunk_ranges(max_shards: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..shard_count(max_shards, len)).map(move |i| chunk_range(max_shards, len, i))
}

/// Calls `f(i)` for every set bit `i` of the bitmap `words` (bit `i`
/// lives in word `i / 64`) with `i` in `range`, in ascending order. A
/// zero word costs one load instead of 64 branches, which is what makes
/// a walk over a mostly-silent population cheap.
///
/// # Panics
/// Panics if `words` holds fewer than `range.end.div_ceil(64)` words.
#[inline]
pub fn for_each_set_bit(words: &[u64], range: Range<usize>, mut f: impl FnMut(usize)) {
    let (start, end) = (range.start, range.end);
    let first = start / 64;
    for (k, &word) in words[first..end.div_ceil(64)].iter().enumerate() {
        let base = (first + k) * 64;
        let mut w = word;
        if base < start {
            w &= !0u64 << (start - base);
        }
        if base + 64 > end {
            w &= (1u64 << (end - base)) - 1;
        }
        while w != 0 {
            f(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// A raw pointer that chunk tasks may share, for handing chunk `i` the
/// `i`-th slot of a caller-owned buffer.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Inside a chunk closure, always go through
    /// this method rather than field access: under RFC 2229 disjoint
    /// capture, `ptr.0` would capture only the raw (non-`Sync`) field
    /// and the closure would stop being `Sync`, while a method call
    /// captures the whole wrapper.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the only field is the pointer. Tasks dereference it at the
// offset of their own chunk alone (see `for_each_chunk`), so sharing
// the wrapper hands each `T` to one thread at a time, which `T: Send`
// permits.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// One published job: `chunks` work descriptors claimed from `next`,
/// completion tracked in `done`. Lives on the stack of the `run` call
/// that published it; see the module docs for why the raw pointer in
/// `task` stays valid for exactly as long as workers can reach it.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    done: AtomicUsize,
    chunks: usize,
}

struct State {
    /// Monotonic epoch counter; bumped when a job is published. Workers
    /// remember the last epoch they saw so a single job is never run
    /// twice by the same worker.
    epoch: u64,
    /// The active job, or `None` between epochs. Cleared by the caller
    /// *before* `run` returns, under the same mutex workers register
    /// through, so no worker can reach a retired job.
    job: Option<*const Job>,
    /// Workers currently holding a reference to the active job.
    active: usize,
    /// First panic payload captured from any chunk this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

// SAFETY: the raw job pointer makes `State` !Send by default; the
// epoch/active protocol above guarantees it is only dereferenced while
// the pointee is alive, and all access is mutex-guarded.
unsafe impl Send for State {}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between epochs.
    work: Condvar,
    /// The caller parks here waiting for the completion barrier.
    barrier: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // A poisoned mutex only means a chunk panicked while we held the
    // guard elsewhere; the state itself is always consistent, and
    // refusing to lock would turn a reported panic into a hang.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of `threads - 1` workers plus the calling thread.
///
/// ```
/// use mobicache_sim::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let total = AtomicU64::new(0);
/// // 8 chunks over 800 items; the caller and the 3 workers claim them.
/// pool.run(8, &|chunk| {
///     let sum: u64 = (chunk as u64 * 100..(chunk as u64 + 1) * 100).sum();
///     total.fetch_add(sum, Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), (0..800).sum());
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// A pool presenting `threads` total execution lanes: the calling
    /// thread plus `threads - 1` spawned workers. `threads <= 1` spawns
    /// nothing and [`WorkerPool::run`] degenerates to an inline loop.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            barrier: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mobicache-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total execution lanes (spawned workers + the caller).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Spawned worker threads (0 for a serial pool).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Executes `task(i)` for every `i in 0..chunks`, each exactly
    /// once, and returns when all have completed. The caller claims
    /// chunks alongside the workers, so a busy pool never blocks
    /// progress. Not reentrant: `task` must not call `run` on the same
    /// pool.
    ///
    /// # Panics
    /// Re-raises the first panic any chunk produced — after the
    /// barrier, so no worker still references caller-owned data.
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.handles.is_empty() || chunks == 1 {
            for i in 0..chunks {
                task(i);
            }
            return;
        }
        // SAFETY: lifetime erasure only — the barrier below keeps the
        // closure borrowed for strictly longer than any worker can
        // reach it through the job pointer.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Job {
            task,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            chunks,
        };
        {
            let mut st = lock(&self.shared);
            debug_assert!(st.job.is_none(), "WorkerPool::run is not reentrant");
            st.epoch += 1;
            st.job = Some(&job as *const Job);
            st.panic = None;
        }
        self.shared.work.notify_all();
        run_chunks(&self.shared, &job);
        // The barrier: all chunks complete AND every registered worker
        // has released the job. Only then is `job` (and the borrowed
        // task data behind it) safe to drop.
        let mut st = lock(&self.shared);
        while job.done.load(Ordering::Acquire) < chunks || st.active > 0 {
            st = self
                .shared
                .barrier
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Splits `0..len` into at most `slots.len()` contiguous chunks and
    /// runs `task(range, &mut slots[i])` for chunk `i`, each exactly
    /// once, returning when all have completed. Every sharded phase goes
    /// through here, and the chunks are exactly [`chunk_ranges`]`(slots.len(), len)`:
    /// every chunk starts on a multiple of [`CHUNK_ALIGN`], and all but
    /// the last hold the same number of items. Slots past the last chunk
    /// are not touched. A single chunk runs inline on the caller without
    /// touching the pool; an empty range runs nothing.
    ///
    /// Chunk `i` writes slot `i` alone, whichever thread runs it, so
    /// merging the slots in index order afterwards gives the same result
    /// at any pool size.
    ///
    /// # Panics
    /// Panics if `len > 0` and `slots` is empty. Re-raises the first
    /// panic any chunk produced, as [`WorkerPool::run`] does.
    pub fn for_each_chunk<S, F>(&self, len: usize, slots: &mut [S], task: F)
    where
        S: Send,
        F: Fn(Range<usize>, &mut S) + Sync,
    {
        let shards = slots.len();
        let chunks = shard_count(shards, len);
        if chunks == 0 {
            return;
        }
        // The slot handout below relies on this; the geometry guarantees
        // it for any non-empty `slots`.
        assert!(chunks <= shards, "for_each_chunk needs a slot per chunk");
        let range = |i: usize| chunk_range(shards, len, i);
        if cfg!(debug_assertions) {
            // The claim ledger: the chunks partition `0..len` into
            // non-empty, word-aligned ranges.
            let mut next = 0;
            for (i, r) in chunk_ranges(shards, len).enumerate() {
                assert!(
                    r.start == next && r.start < r.end && r.start.is_multiple_of(CHUNK_ALIGN),
                    "chunk {i} = {r:?} breaks the partition of 0..{len}"
                );
                next = r.end;
            }
            assert_eq!(next, len, "chunks do not cover 0..{len}");
        }
        if chunks == 1 {
            task(0..len, &mut slots[0]);
            return;
        }
        let base = SendPtr(slots.as_mut_ptr());
        self.run(chunks, &|i| {
            // SAFETY: `run` passes every index in `0..chunks` exactly
            // once and `chunks <= slots.len()`, so slot `i` is borrowed
            // by chunk `i` alone. `slots` stays mutably borrowed for this
            // whole call, and `run` returns only after every chunk has
            // finished.
            let slot = unsafe { &mut *base.get().add(i) };
            task(range(i), slot);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims and executes chunks of `job` until none remain. Panics are
/// captured into the shared state so the barrier always completes.
fn run_chunks(shared: &Shared, job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::AcqRel);
        if i >= job.chunks {
            return;
        }
        // SAFETY: the job (and the closure it points to) outlives every
        // chunk execution — `run` blocks on the barrier until `done`
        // reaches `chunks` and no worker is registered.
        let task = unsafe { &*job.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut st = lock(shared);
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.chunks {
            // Pair the notification with the mutex so the caller cannot
            // check the predicate and park between our increment and
            // this wake-up.
            drop(lock(shared));
            shared.barrier.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job_ptr = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(ptr) = st.job {
                        st.active += 1;
                        break ptr;
                    }
                    // Epoch already retired before we woke; keep waiting.
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: registration (`active += 1`) and retirement (`job =
        // None`) share the state mutex, so this pointer is live until
        // we deregister below.
        run_chunks(shared, unsafe { &*job_ptr });
        lock(shared).active -= 1;
        shared.barrier.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_count_geometry() {
        // 64-aligned chunks: 100 items over 4 shards -> 64 + 36.
        assert_eq!(chunk_len(4, 100), 64);
        assert_eq!(shard_count(4, 100), 2);
        assert_eq!(shard_count(4, 3), 1);
        assert_eq!(shard_count(4, 0), 0);
        assert_eq!(shard_count(1, 100), 1);
        assert_eq!(shard_count(4, 129), 3);
        // 1000 items -> 4 chunks of 256 (the last 232).
        assert_eq!(chunk_len(4, 1_000), 256);
        assert_eq!(shard_count(4, 1_000), 4);
        // A zero cap behaves as one shard.
        assert_eq!(shard_count(0, 1_000), 1);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for chunks in [1usize, 2, 3, 7, 16, 64] {
            let counts: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
            pool.run(chunks, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i} of {chunks}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        assert_eq!(pool.threads(), 1);
        let total = AtomicU64::new(0);
        pool.run(5, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 10);
    }

    #[test]
    fn more_chunks_than_threads_all_complete() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run(100, &|i| {
            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 5050);
    }

    #[test]
    fn disjoint_slot_writes_via_send_ptr() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![0u64; 9];
        let ptr = SendPtr(slots.as_mut_ptr());
        pool.run(9, &|i| {
            // Bind the wrapper, not its field: edition-2021 closures
            // would otherwise capture the bare `*mut` (which is !Sync).

            // SAFETY: each chunk owns exactly slot `i`.
            unsafe { *ptr.get().add(i) = (i as u64 + 1) * 3 };
        });
        assert_eq!(slots, (1..=9).map(|k| k * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_chunk_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("panic must propagate through run");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("chunk 3 exploded"), "got: {msg}");
        // The barrier completed: every non-panicking chunk still ran.
        assert_eq!(ran.load(Ordering::Relaxed), 7);
        // And the pool is reusable afterwards.
        let total = AtomicU64::new(0);
        pool.run(4, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 6);
    }

    #[test]
    fn sequential_epochs_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let total = AtomicU64::new(0);
            pool.run(6, &|i| {
                total.fetch_add(round * 10 + i as u64, Ordering::Relaxed);
            });
            assert_eq!(total.into_inner(), round * 60 + 15, "round {round}");
        }
    }

    #[test]
    fn drop_without_running_joins_cleanly() {
        let pool = WorkerPool::new(8);
        drop(pool);
    }
}

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
//! caller's inputs (population size, configured shard count), each
//! chunk writes only to its own slot, and the caller merges slots in
//! chunk-index order after `run` returns — so results are bit-identical
//! whether a chunk ran on a worker, on the caller, or everything ran
//! inline on a pool with zero workers.
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A raw pointer wrapper asserting `Send`/`Sync`, for chunk tasks that
/// address disjoint per-chunk slots of a caller-owned buffer.
///
/// # Safety contract (on the user)
/// Tasks must only dereference the pointer at offsets owned by their
/// own chunk, and the pointee must outlive the [`WorkerPool::run`]
/// call — which it does when it lives on the caller's stack, because
/// `run` does not return (even by unwinding) until every chunk has
/// completed and every worker has released the job.
pub struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Inside a chunk closure, always go through
    /// this method rather than field access: under RFC 2229 disjoint
    /// capture, `ptr.0` would capture only the raw (non-`Send`) field
    /// and the closure would stop being `Sync`, while a method call
    /// captures the whole wrapper.
    #[inline]
    pub fn get(self) -> *mut T {
        self.0
    }
}

// Manual impls: the wrapper is a pointer copy regardless of `T`
// (derives would demand `T: Copy`).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> std::fmt::Debug for SendPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SendPtr").field(&self.0).finish()
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Number of contiguous chunks a population of `len` items should be
/// split into: at most `max_shards`, at most one per item, and — when
/// `min_per_shard > 1` — only as many as keep every chunk at least that
/// big. Returns ≥ 1; `1` means "run serially on the caller".
///
/// Chunk geometry is part of the determinism argument, so every sharded
/// phase (engine fan-out, wake-up burst, oracle scan) derives its
/// chunk count through this one function.
pub fn shard_count(max_shards: usize, len: usize, min_per_shard: usize) -> usize {
    let by_work = if min_per_shard > 1 {
        (len / min_per_shard).max(1)
    } else {
        len
    };
    max_shards.min(len).min(by_work).max(1)
}

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
        assert_eq!(shard_count(4, 100, 1), 4);
        assert_eq!(shard_count(4, 3, 1), 3);
        assert_eq!(shard_count(4, 0, 1), 1);
        assert_eq!(shard_count(1, 100, 1), 1);
        // Work threshold: 100 items at ≥ 64 per shard -> 1 shard;
        // 1000 items -> capped by max_shards again.
        assert_eq!(shard_count(4, 100, 64), 1);
        assert_eq!(shard_count(4, 129, 64), 2);
        assert_eq!(shard_count(4, 1_000, 64), 4);
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

//! `forestbal-par` — a zero-dependency, std-only fork-join pool with a hard
//! determinism contract.
//!
//! # Why a first-party pool
//!
//! The workspace builds offline with std only (no rayon, no crossbeam), and
//! the distributed runtimes already own threads: the threaded `Cluster` runs
//! every rank as an OS thread, and tests routinely oversubscribe ranks ×
//! workers on small machines. So a [`Pool`] is only a width, and every
//! dispatch is one `std::thread::scope`. Three rules follow:
//!
//! 1. **One fork-join per batch.** At width `W > 1` a dispatch spawns up to
//!    `W - 1` scoped threads. They and the calling thread (worker 0) claim
//!    tasks from one shared cursor, and all of them are joined before the
//!    dispatch returns. Tasks borrow the caller's data; nothing outlives the
//!    batch, so concurrent dispatchers (several `Cluster` ranks sharing one
//!    pool) never wait on each other.
//! 2. **The caller drains the cursor.** If the OS refuses a thread, the
//!    batch continues on the threads it already has, down to the caller
//!    alone. Rank × worker oversubscription can never fail or deadlock a
//!    dispatch.
//! 3. **Serial cases run inline.** Width 1, a single task, and a dispatch
//!    from inside a task (a parallel kernel calling another) run on the
//!    calling thread with its ambient worker id: no spawn, no lock.
//!
//! A panicking task makes the batch skip its remaining tasks; once every
//! thread has joined, the dispatch re-raises the panic with its original
//! payload.
//!
//! # The determinism contract
//!
//! Every parallel kernel built on this pool must produce output **bit-identical
//! for every thread count**, including 1. The pool enforces the only structure
//! that guarantees this: *partition → independent compute → ordered
//! deterministic merge*.
//!
//! * Task indices are a pure function of the input (`chunk_ranges` splits by
//!   arithmetic, never by load).
//! * Tasks may communicate only through their own task-indexed output slot
//!   ([`Pool::map`]) or their own element ([`Pool::for_each_mut`]); worker
//!   ids, and the scratch elements [`Pool::for_each_mut`] lends one per
//!   worker, choose *scratch buffers*, never *results*.
//! * Merges iterate task-index order or worker-index order (the caller's
//!   scratch slice) — never completion order.
//!
//! Which worker runs which task is scheduling noise (tasks self-schedule off a
//! shared cursor); anything derived from it must be either scratch or merged in
//! a fixed order. Trace counters accumulated in per-worker scratch are merged
//! in worker-index order for reproducible *totals*; the totals themselves are
//! sums, hence schedule-invariant.
//!
//! # Control
//!
//! The global pool is sized by `FORESTBAL_THREADS` (or
//! `available_parallelism`) on first use; [`set_global_threads`] pins it
//! earlier (e.g. from a `--threads` CLI flag). Tests that need several thread
//! counts in one process build private pools and scope them with
//! [`Pool::install`], which overrides [`current`] on the calling thread only —
//! exactly right for `Cluster` rank closures.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

/// Hard cap on pool width; protects against `FORESTBAL_THREADS=999999`.
pub const MAX_THREADS: usize = 256;

type Payload = Box<dyn Any + Send + 'static>;

/// A fork-join pool of `threads` workers, the dispatching thread included.
/// It holds no threads between dispatches.
pub struct Pool {
    threads: usize,
}

thread_local! {
    /// Pool override installed by [`Pool::install`] on this thread.
    static CURRENT: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
    /// Are we inside a pool task on this thread? Nested dispatch runs inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Ambient worker index (0 outside the pool / on the dispatcher).
    static WORKER_ID: Cell<usize> = const { Cell::new(0) };
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

/// Read `FORESTBAL_THREADS`, falling back to `available_parallelism`.
/// Invalid or zero values fall back too — the pool never panics on
/// environment garbage.
fn threads_from_env() -> usize {
    std::env::var("FORESTBAL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin the global pool to `threads` workers. Returns `false` if the global
/// pool was already created (first use wins); call this before any kernel
/// touches the pool — e.g. at the top of `main`.
pub fn set_global_threads(threads: usize) -> bool {
    GLOBAL.set(Arc::new(Pool::new(threads))).is_ok()
}

/// The pool the current thread should use: the innermost [`Pool::install`]
/// override, else the process-global pool (created on first use from
/// `FORESTBAL_THREADS`).
pub fn current() -> Arc<Pool> {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        GLOBAL
            .get_or_init(|| Arc::new(Pool::new(threads_from_env())))
            .clone()
    })
}

impl Pool {
    /// A pool of `threads` total workers (including the dispatcher), clamped
    /// to `1..=MAX_THREADS`. `threads = 1` runs every dispatch inline.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// Total workers, including the dispatching thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Install this pool as [`current`] on the calling thread for the
    /// duration of `f`. Nests; the previous override is restored on exit
    /// (including unwinds).
    pub fn install<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Pool>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        let _restore = Restore(prev);
        f()
    }

    /// Split `0..len` into at most `threads` contiguous ranges of at least
    /// `min_chunk` elements (except when `len < min_chunk`, which yields a
    /// single range). Pure arithmetic — the partition depends only on `len`,
    /// `min_chunk` and the pool width, never on load.
    pub fn chunk_ranges(&self, len: usize, min_chunk: usize) -> Vec<Range<usize>> {
        let min_chunk = min_chunk.max(1);
        let chunks = (len / min_chunk).clamp(1, self.threads.max(1));
        let (base, rem) = (len / chunks, len % chunks);
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let end = start + base + usize::from(c < rem);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Run `tasks` invocations of `f(task, worker)` across the pool and block
    /// until all have finished. Tasks self-schedule (dynamic load balance);
    /// worker ids are in `0..threads` and unique within the batch, with the
    /// dispatcher as worker 0. A task panic is re-raised here after the
    /// batch has joined.
    pub fn run(&self, tasks: usize, f: impl Fn(usize, usize) + Sync) {
        self.dispatch(
            &mut vec![(); tasks],
            &mut vec![(); self.threads],
            &|t, _, w, _| f(t, w),
        );
    }

    /// Run `f(task, worker)` for each task and collect the `tasks` results in
    /// **task-index order** — the ordered merge half of the determinism
    /// contract.
    pub fn map<R: Send>(&self, tasks: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
        let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        self.dispatch(&mut slots, &mut vec![(); self.threads], &|t, slot, w, _| {
            *slot = Some(f(t, w));
        });
        slots
            .into_iter()
            .map(|r| r.expect("every task ran"))
            .collect()
    }

    /// Run `f(index, &mut item, &mut scratch)` over each element of `items`,
    /// one task per element, on `min(threads, scratch.len(), items.len())`
    /// workers. Worker `w` holds `scratch[w]` for the whole batch, so fold
    /// anything it accumulates in slice order. Results land in the caller's
    /// slice — ordered merge for free. Panics if `scratch` is empty while
    /// `items` is not.
    pub fn for_each_mut<T: Send, S: Send>(
        &self,
        items: &mut [T],
        scratch: &mut [S],
        f: impl Fn(usize, &mut T, &mut S) + Sync,
    ) {
        self.dispatch(items, scratch, &|i, item, _, s| f(i, item, s));
    }

    /// The one fork-join: `f(index, &mut item, worker, &mut scratch[worker])`
    /// for every item, on `min(threads, items, scratch)` workers claiming
    /// items from one locked cursor. `f` is a trait object so that the
    /// spawn and join code exists once per item and scratch type, not once
    /// per call site.
    fn dispatch<T: Send, S: Send>(
        &self,
        items: &mut [T],
        scratch: &mut [S],
        f: &(dyn Fn(usize, &mut T, usize, &mut S) + Sync),
    ) {
        if items.is_empty() {
            return;
        }
        assert!(
            !scratch.is_empty(),
            "a dispatch needs scratch for one worker"
        );
        let width = self.threads.min(items.len()).min(scratch.len());
        if width == 1 || IN_TASK.get() {
            let worker = WORKER_ID.get();
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item, worker, &mut scratch[0]);
            }
            return;
        }
        // `None` once drained, or once a task has panicked: the remaining
        // tasks are skipped.
        let cursor = Mutex::new(Some(items.iter_mut().enumerate()));
        let claim = || {
            let mut guard = cursor.lock().expect("no task runs under the cursor lock");
            guard.as_mut()?.next()
        };
        let work = |worker: usize, s: &mut S| -> Result<(), Payload> {
            let prev_in = IN_TASK.replace(true);
            let prev_id = WORKER_ID.replace(worker);
            let r = catch_unwind(AssertUnwindSafe(|| {
                while let Some((i, item)) = claim() {
                    f(i, item, worker, s);
                }
            }));
            WORKER_ID.set(prev_id);
            IN_TASK.set(prev_in);
            if r.is_err() {
                *cursor.lock().expect("no task runs under the cursor lock") = None;
            }
            r
        };
        let (mine, lent) = scratch[..width].split_first_mut().expect("width >= 2");
        let result = thread::scope(|scope| {
            let work = &work;
            // Stop at the first thread the OS refuses; the caller drains
            // whatever the missing workers would have claimed.
            let handles: Vec<_> = lent
                .iter_mut()
                .enumerate()
                .map_while(|(i, s)| {
                    thread::Builder::new()
                        .spawn_scoped(scope, move || work(i + 1, s))
                        .ok()
                })
                .collect();
            let mut result = work(0, mine);
            // Joined explicitly so the first panic keeps its payload; a
            // bare scope would replace it with its own message.
            for h in handles {
                result = result.and(h.join().unwrap_or_else(Err));
            }
            result
        });
        if let Err(payload) = result {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn map_returns_task_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(37, |t, _| t * t);
            assert_eq!(out, (0..37).map(|t| t * t).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let mut v = vec![0usize; 101];
            pool.for_each_mut(&mut v, &mut [(); 8], |i, x, _| *x += i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        }
    }

    #[test]
    fn worker_ids_unique_within_batch() {
        let pool = Pool::new(4);
        let in_use: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        pool.run(64, |_, w| {
            assert!(
                !in_use[w].swap(true, Ordering::SeqCst),
                "worker {w} aliased"
            );
            std::thread::sleep(std::time::Duration::from_micros(50));
            in_use[w].store(false, Ordering::SeqCst);
        });
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = Arc::new(Pool::new(3));
        let count = AtomicUsize::new(0);
        let p2 = Arc::clone(&pool);
        pool.install(|| {
            pool.run(6, |_, w| {
                // Nested call must not deadlock and must keep the worker id.
                p2.run(4, |_, inner_w| {
                    assert_eq!(inner_w, w);
                    count.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 24);
    }

    #[test]
    fn panics_propagate_after_drain() {
        fn message(r: thread::Result<()>) -> String {
            let payload = r.expect_err("the task panic must reach the dispatcher");
            payload
                .downcast_ref::<&str>()
                .expect("original &str payload")
                .to_string()
        }
        for threads in [2, 3, 8] {
            let pool = Pool::new(threads);
            let task = |t: usize| {
                if t == 5 {
                    panic!("task 5 exploded");
                }
            };
            let run = catch_unwind(AssertUnwindSafe(|| pool.run(16, |t, _| task(t))));
            let map = catch_unwind(AssertUnwindSafe(|| {
                pool.map(16, |t, _| task(t));
            }));
            let each = catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_mut(&mut [0u8; 16], &mut [(); 8], |t, _, _| task(t));
            }));
            for r in [run, map, each] {
                assert_eq!(message(r), "task 5 exploded", "threads={threads}");
            }
            // Pool is still usable after a panic.
            assert_eq!(pool.map(3, |t, _| t), vec![0, 1, 2]);
        }
    }

    #[test]
    fn serial_cases_run_on_the_caller() {
        let caller = thread::current().id();
        let on_caller = |w: usize| {
            assert_eq!(thread::current().id(), caller);
            assert_eq!(w, 0);
        };
        // Width 1, a single task at any width, and one lent scratch element.
        Pool::new(1).run(5, |_, w| on_caller(w));
        Pool::new(1).map(5, |_, w| on_caller(w));
        Pool::new(3).run(1, |_, w| on_caller(w));
        Pool::new(8).map(1, |_, w| on_caller(w));
        Pool::new(8).for_each_mut(&mut [0u8; 9], &mut [(); 1], |_, _, _| on_caller(0));
        // Nested dispatch: on the task's thread, with the task's worker id.
        let pool = Pool::new(3);
        pool.run(6, |_, w| {
            let task_thread = thread::current().id();
            pool.run(4, |_, inner| {
                assert_eq!(thread::current().id(), task_thread);
                assert_eq!(inner, w);
            });
        });
    }

    #[test]
    fn for_each_mut_width_is_bounded_by_scratch() {
        let caller = thread::current().id();
        for threads in [2, 3, 8] {
            let pool = Pool::new(threads);
            for lent in [1, 2] {
                let mut scratch: Vec<HashSet<ThreadId>> = vec![HashSet::new(); lent];
                let seen = Mutex::new(HashSet::new());
                pool.for_each_mut(&mut [0u8; 64], &mut scratch, |_, _, s| {
                    s.insert(thread::current().id());
                    seen.lock().unwrap().insert(thread::current().id());
                    thread::sleep(std::time::Duration::from_micros(50));
                });
                assert!(seen.into_inner().unwrap().len() <= lent);
                // Each element is lent to one thread for the whole batch.
                assert!(scratch.iter().all(|s| s.len() <= 1));
                assert!(scratch[0].iter().all(|&id| id == caller));
            }
        }
    }

    #[test]
    fn concurrent_dispatchers_share_one_pool() {
        let pool = Arc::new(Pool::new(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for rep in 0..20 {
                        let out = pool.map(9, move |t, _| t + rep);
                        assert_eq!(out, (0..9).map(|t| t + rep).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn install_overrides_current_per_thread() {
        let pool = Arc::new(Pool::new(7));
        pool.install(|| {
            assert_eq!(current().threads(), 7);
        });
        // Restored after install.
        let t = std::thread::spawn(|| current().threads()).join().unwrap();
        assert!(t >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let pool = Pool::new(4);
        for len in [0usize, 1, 5, 1000, 4097] {
            for min in [1usize, 64, 4096] {
                let ranges = pool.chunk_ranges(len, min);
                assert!(!ranges.is_empty());
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                if len >= min {
                    assert!(ranges.iter().all(|r| r.len() >= min.min(len)));
                }
            }
        }
    }
}

//! The rank host: what runs the simulated ranks' coroutines.
//!
//! The scheduler in [`crate::runtime`] runs exactly one rank at a time
//! and exchanges data with it through that rank's mailbox. A [`Host`]
//! moves *control* only: into a rank, back out to the scheduler. Two
//! hosts implement it, chosen by the platform ([`FIBERS`]), never by the
//! caller:
//!
//! - `fiber::FiberPool` (x86_64 Linux): userspace stackful coroutines on
//!   the scheduler's thread, all stacks in one lazily-faulted slab, which
//!   is what makes P = 112,128 virtual ranks fit in one process.
//! - [`Threads`] (every other platform): one OS thread per rank,
//!   baton-passed through one mutex. Portable, but kernel task and map
//!   limits cap P at a few thousand.
//!
//! The host affects wall-clock cost only; virtual times, delivery orders,
//! stats, traces and results are bit-identical (pinned by the runtime's
//! differential tests, which run both hosts on x86_64 Linux).

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Does this platform host ranks on fibers?
pub(crate) const FIBERS: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// Moves control between the scheduler and the rank coroutines.
///
/// Contract: rank bodies never run concurrently with each other or with
/// the scheduler, so a rank and the scheduler may share plain `Cell`
/// state as long as each touches it only while it holds control.
/// Dropping a host drops the bodies that never started; ranks still
/// parked in [`yield_out`](Host::yield_out) are switched into by the
/// thread host until their bodies return (their mailbox is empty, so they
/// unwind via `ShutdownSignal`) and abandoned with their stacks by the
/// fiber host.
pub(crate) trait Host {
    /// Install rank `r`'s body, to start at the first `switch_into(r)`.
    /// Everything the body borrows must outlive the host.
    fn spawn(&self, r: usize, body: Box<dyn FnOnce()>);
    /// Scheduler side: run rank `r` until it calls `yield_out(r)` or its
    /// body returns. `Err` only if the rank could not be started (the
    /// thread host failed to spawn its thread); the rank never ran then.
    fn switch_into(&self, r: usize) -> Result<(), String>;
    /// Rank side, from inside rank `r`'s body: hand control back to the
    /// scheduler; returns when the scheduler switches into `r` again.
    fn yield_out(&self, r: usize);
    /// Has rank `r` started and not yet returned from its body?
    fn is_parked(&self, r: usize) -> bool;
}

/// The platform's host for `size` ranks; `fibers` is [`FIBERS`] except in
/// the runtime's differential tests, which also run the thread host.
pub(crate) fn new_host(fibers: bool, size: usize, stack_size: usize) -> Box<dyn Host> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if fibers {
        return Box::new(crate::fiber::FiberPool::new(size, stack_size));
    }
    debug_assert!(!fibers, "no fiber host on this platform");
    Box::new(Threads::new(size, stack_size))
}

/// One OS thread per rank, spawned on the rank's first switch and parked
/// on its own condvar until the baton names it again.
struct Threads {
    stack_size: usize,
    shared: Arc<Shared>,
}

struct Shared {
    baton: Mutex<Baton>,
    /// `wake[r]` wakes rank `r`; the last entry wakes the scheduler.
    wake: Vec<Condvar>,
}

struct Baton {
    /// Who holds control: rank `r` as `Some(r)`, the scheduler as `None`.
    turn: Option<usize>,
    ranks: Vec<Slot>,
}

/// A rank's body until it starts, then its thread until joined.
#[derive(Default)]
struct Slot {
    body: Option<Body>,
    thread: Option<JoinHandle<()>>,
    done: bool,
}

/// A rank body on its way to its thread.
struct Body(Box<dyn FnOnce()>);

// Safety: a body captures what `SimCluster::run_inner` gives it: the
// rank function (`Sync`), this host (`Sync`), and its rank's mailbox and
// result slot, `!Sync` cells whose contents are `Send` and which the
// scheduler also uses. The body runs on its rank thread only while that
// thread holds the baton, and every handoff goes through the baton's
// lock, which orders the body's accesses to those cells after the
// scheduler's last and before its next: they are never used at once.
// A body that never starts is dropped on the scheduler's thread.
#[allow(unsafe_code)]
unsafe impl Send for Body {}

impl Body {
    // A method, so a closure calling it captures the whole `Send` wrapper
    // rather than just its field.
    fn run(self) {
        (self.0)()
    }
}

// Every update under the baton's lock is a single field write, so the
// state is valid even after a panic poisoned the lock; recovering it
// keeps `Drop` from panicking.
impl Shared {
    fn lock(&self) -> MutexGuard<'_, Baton> {
        self.baton.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand control to `to` and wake it; the lock stays held.
    fn give<'a>(&self, mut b: MutexGuard<'a, Baton>, to: Option<usize>) -> MutexGuard<'a, Baton> {
        b.turn = to;
        self.wake[to.unwrap_or(self.wake.len() - 1)].notify_one();
        b
    }

    /// Sleep on `b`'s lock until control comes back to `me`.
    fn wait(&self, b: MutexGuard<'_, Baton>, me: Option<usize>) {
        let cv = &self.wake[me.unwrap_or(self.wake.len() - 1)];
        let b = cv.wait_while(b, |b| b.turn != me);
        drop(b.unwrap_or_else(PoisonError::into_inner));
    }
}

impl Threads {
    fn new(size: usize, stack_size: usize) -> Threads {
        const MAPS_PER_THREAD: u64 = 4;
        const SLACK: u64 = 256;
        // Each rank thread costs ~4 kernel memory maps (stack, guard page,
        // alternate signal stack). Exhausting `vm.max_map_count` mid-spawn
        // aborts the whole process from inside the std runtime —
        // uncatchable — so predict the shortfall and panic cleanly instead.
        if let Some((max, used)) = map_budget() {
            let needed = used + MAPS_PER_THREAD * size as u64 + SLACK;
            assert!(
                needed <= max,
                "{size} simulated ranks need ~{needed} kernel memory maps but \
                 vm.max_map_count is {max} (this platform hosts every rank on an \
                 OS thread); raise the sysctl or lower P"
            );
        }
        let ranks = (0..size).map(|_| Slot::default()).collect();
        Threads {
            stack_size,
            shared: Arc::new(Shared {
                baton: Mutex::new(Baton { turn: None, ranks }),
                wake: (0..=size).map(|_| Condvar::new()).collect(),
            }),
        }
    }
}

impl Host for Threads {
    fn spawn(&self, r: usize, body: Box<dyn FnOnce()>) {
        self.shared.lock().ranks[r].body = Some(Body(body));
    }

    fn switch_into(&self, r: usize) -> Result<(), String> {
        let mut b = self.shared.lock();
        if let Some(body) = b.ranks[r].body.take() {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("simrank-{r}"))
                .stack_size(self.stack_size)
                .spawn(move || {
                    shared.wait(shared.lock(), Some(r));
                    body.run();
                    let mut b = shared.lock();
                    b.ranks[r].done = true;
                    drop(shared.give(b, None));
                });
            let size = b.ranks.len();
            b.ranks[r].thread = Some(spawned.map_err(|e| {
                format!(
                    "failed to spawn simulated rank {r} of {size}: {e}; each \
                     simulated rank needs one OS thread on this platform, so \
                     raise the process limit (`ulimit -u`) or lower P"
                )
            })?);
        }
        self.shared.wait(self.shared.give(b, Some(r)), None);
        Ok(())
    }

    fn yield_out(&self, r: usize) {
        self.shared
            .wait(self.shared.give(self.shared.lock(), None), Some(r));
    }

    fn is_parked(&self, r: usize) -> bool {
        let slot = &self.shared.lock().ranks[r];
        slot.thread.is_some() && !slot.done
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        // Only a scheduler that unwound mid-run leaves parked ranks: give
        // each control until its body returns, then join them all.
        for r in 0..self.shared.wake.len() - 1 {
            while self.is_parked(r) {
                let _ = self.switch_into(r);
            }
        }
        let threads: Vec<_> = (self.shared.lock().ranks.iter_mut())
            .filter_map(|s| s.thread.take())
            .collect();
        for t in threads {
            // Nothing panics past a body's `catch_unwind`, and `Drop`
            // must not panic either way.
            let _ = t.join();
        }
    }
}

/// `(vm.max_map_count, maps this process uses now)`, where readable.
pub(crate) fn map_budget() -> Option<(u64, u64)> {
    let max = std::fs::read_to_string("/proc/sys/vm/max_map_count").ok()?;
    let used = std::fs::read_to_string("/proc/self/maps").ok()?;
    Some((max.trim().parse().ok()?, used.lines().count() as u64))
}

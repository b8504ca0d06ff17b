//! Userspace stackful coroutines — the rank host that makes P ≈ 112k
//! virtual ranks fit in one process.
//!
//! The thread host ([`crate::host::Threads`]) parks one OS thread per
//! simulated rank. That is simple and portable, but each thread costs a
//! kernel task and ~4 kernel memory maps, so `kernel.pid_max` (32768 by
//! default) and `vm.max_map_count` (65530) cap it at a few thousand ranks
//! — far short of the paper's P = 112,128 weak-scaling point (Fig. 15).
//! Since the scheduler only ever runs **one rank at a time** (baton
//! passing), the threads were never buying parallelism, just suspendable
//! stacks. This module provides the suspendable stacks directly:
//!
//! * one `mmap(MAP_NORESERVE)` slab holds *all* fiber stacks — a single
//!   kernel memory map regardless of P, with pages faulted in lazily so
//!   an idle rank costs only the few stack pages it has actually written
//!   (measured ≈ 1–3 pages per rank for the balance workloads);
//! * a 20-instruction `global_asm!` context switch saves the sysv64
//!   callee-saved registers and swaps `rsp` — no syscalls, no signal
//!   masks, ~2 ns per switch vs. ~2 µs for a thread handoff;
//! * when the kernel's map budget allows (small/medium P), the lowest
//!   page of every stack is `mprotect(PROT_NONE)`d so overflow faults
//!   loudly. At very large P guard pages would exhaust
//!   `vm.max_map_count` (each splits the slab mapping), so they are
//!   skipped — per-rank stack depth does not grow with P, which is why
//!   the guarded CI smoke at P = 8192 bounds the unguarded 112k run.
//!
//! The pool is deliberately type-agnostic: it implements the
//! control-only [`Host`] trait, bodies are `FnOnce()` closures, and all
//! rank⇄scheduler data lives in the runtime module's mailboxes. Panics
//! unwind normally off a fiber stack into the `catch_unwind` at the
//! body's base (every frame below the catch is a Rust frame with unwind
//! info).
//!
//! The module only compiles on x86_64 Linux; every other platform hosts
//! ranks on threads.

// Raw stacks, `mmap`/`mprotect` and the hand-written context switch have
// no safe form; each block carries its own `// Safety:` argument.
#![allow(unsafe_code)]

use crate::host::{map_budget, Host};
use std::arch::global_asm;
use std::cell::Cell;

// The context switch. `rdi` = where to store the suspending context's
// stack pointer, `rsi` = the stack pointer to resume. Everything the
// sysv64 ABI requires a callee to preserve is pushed around the swap;
// caller-saved state is dead across any call, so `ret` on the resumed
// stack continues that context as if its own `forestbal_fiber_switch`
// call had returned.
//
// `forestbal_fiber_boot` is the entry shim a fresh stack "returns"
// into: the seeded frame placed the payload pointer in the `rbp` slot,
// so boot moves it to `rdi`, clears the frame pointer (terminating
// backtraces), fixes alignment (rsp ≡ 0 mod 16 before `call`, hence
// ≡ 8 at the callee's first instruction, as the ABI demands) and calls
// the Rust entry, which never returns.
global_asm!(
    ".text",
    ".balign 16",
    ".globl forestbal_fiber_switch",
    "forestbal_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".balign 16",
    ".globl forestbal_fiber_boot",
    "forestbal_fiber_boot:",
    "mov rdi, rbp",
    "xor ebp, ebp",
    "sub rsp, 8",
    "call forestbal_fiber_entry",
    "ud2",
);

extern "sysv64" {
    fn forestbal_fiber_switch(save_into: *mut *mut u8, resume_from: *mut u8);
    fn forestbal_fiber_boot();
}

// Raw mmap/mprotect/munmap through the C runtime std already links.
// `std::alloc` would commit the whole slab's accounting eagerly and
// cannot express MAP_NORESERVE or PROT_NONE guards.
extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    fn mprotect(addr: *mut core::ffi::c_void, len: usize, prot: i32) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;
const PAGE: usize = 4096;

/// What the boot shim hands to `forestbal_fiber_entry`.
struct FiberPayload {
    pool: *const FiberPool,
    index: usize,
    body: Option<Box<dyn FnOnce()>>,
}

/// The Rust side of a fiber's first activation. Runs the body, marks
/// the fiber finished, and switches back to the scheduler for the
/// last time. Must never return (there is no frame to return to).
///
/// # Safety
/// Only `forestbal_fiber_boot` may call this, with the payload pointer
/// `switch_into` seeded, whose box and pool outlive the fiber.
#[no_mangle]
unsafe extern "sysv64" fn forestbal_fiber_entry(payload: *mut FiberPayload) -> ! {
    let (pool, index) = {
        let p = &mut *payload;
        let body = p.body.take().expect("fiber booted twice");
        body();
        (p.pool, p.index)
    };
    let pool = &*pool;
    pool.slots[index].finished.set(true);
    // Final switch out. The scheduler never resumes a finished fiber,
    // so the context saved here is dead; abort if it ever runs.
    forestbal_fiber_switch(pool.slots[index].rsp.as_ptr(), pool.sched_rsp.get());
    std::process::abort();
}

struct Slot {
    /// Saved stack pointer while the fiber is suspended.
    rsp: Cell<*mut u8>,
    started: Cell<bool>,
    finished: Cell<bool>,
    /// Boxed so the payload's address is stable; `None` once booted
    /// or never spawned.
    payload: Cell<Option<Box<FiberPayload>>>,
}

/// A fixed-size pool of lazily-materialized fiber stacks plus the
/// scheduler's saved context. See the module docs for the design.
pub(crate) struct FiberPool {
    slab: *mut u8,
    slab_len: usize,
    stack_size: usize,
    sched_rsp: Cell<*mut u8>,
    slots: Vec<Slot>,
}

impl FiberPool {
    /// Reserve stacks for `count` fibers of `stack_size` bytes each
    /// (rounded up to whole pages, minimum 64 KiB). Memory is only
    /// reserved, not committed: untouched stacks cost nothing.
    pub(crate) fn new(count: usize, stack_size: usize) -> FiberPool {
        let stack_size = stack_size.max(64 * 1024).next_multiple_of(PAGE);
        let slab_len = count
            .checked_mul(stack_size)
            .expect("fiber slab size overflows");
        // Safety: an anonymous private mapping at a kernel-chosen address
        // touches no existing memory; failure is checked below.
        let slab = unsafe {
            mmap(
                std::ptr::null_mut(),
                slab_len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANON_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            !std::ptr::eq(slab, MAP_FAILED),
            "cannot reserve {slab_len} bytes of fiber stacks ({count} ranks × \
             {stack_size} B); lower SimConfig::stack_size or P"
        );
        let slab = slab as *mut u8;
        if guard_budget_allows(count) {
            for i in 0..count {
                // Safety: page `i * stack_size` lies inside the slab just
                // mapped, and no stack has been handed out yet.
                let rc = unsafe { mprotect(slab.add(i * stack_size) as *mut _, PAGE, PROT_NONE) };
                assert_eq!(rc, 0, "cannot protect fiber guard page {i}");
            }
        }
        FiberPool {
            slab,
            slab_len,
            stack_size,
            sched_rsp: Cell::new(std::ptr::null_mut()),
            slots: (0..count)
                .map(|_| Slot {
                    rsp: Cell::new(std::ptr::null_mut()),
                    started: Cell::new(false),
                    finished: Cell::new(false),
                    payload: Cell::new(None),
                })
                .collect(),
        }
    }

    /// Lay out the initial frame `forestbal_fiber_switch` restores on
    /// first entry: callee-saved zeros, the payload pointer in the
    /// `rbp` slot, and `forestbal_fiber_boot` as the return address.
    ///
    /// # Safety
    /// `index` must be a slot of this pool whose stack is not in use.
    unsafe fn seed_stack(&self, index: usize, payload: *mut FiberPayload) -> *mut u8 {
        let top = self.slab.add((index + 1) * self.stack_size);
        debug_assert_eq!(top as usize % 16, 0, "stack top must be 16-aligned");
        let words = top as *mut u64;
        let base = words.sub(8);
        for i in 0..5 {
            base.add(i).write(0); // r15, r14, r13, r12, rbx
        }
        base.add(5).write(payload as u64); // rbp slot → boot's rdi
        base.add(6)
            .write(forestbal_fiber_boot as *const () as usize as u64); // ret target
        base.add(7).write(0); // scratch above boot's frame
        base as *mut u8
    }
}

impl Host for FiberPool {
    fn spawn(&self, index: usize, body: Box<dyn FnOnce()>) {
        self.slots[index].payload.set(Some(Box::new(FiberPayload {
            pool: self,
            index,
            body: Some(body),
        })));
    }

    /// Transfer control to fiber `index` (booting it on first use);
    /// returns when the fiber yields or finishes. Never fails.
    fn switch_into(&self, index: usize) -> Result<(), String> {
        let slot = &self.slots[index];
        debug_assert!(!slot.finished.get(), "resumed a finished fiber");
        if !slot.started.replace(true) {
            // The slot keeps owning the payload box (it is freed at
            // pool drop); the fiber receives a raw alias to consume
            // the body through. Boxed contents do not move when the
            // box does, so the pointer stays valid.
            let mut payload = slot.payload.take().expect("fiber has no body");
            let payload_ptr: *mut FiberPayload = &mut *payload;
            slot.payload.set(Some(payload));
            // Safety: the slot has not started, so its stack is unused.
            slot.rsp.set(unsafe { self.seed_stack(index, payload_ptr) });
        }
        // Safety: `slot.rsp` is a context saved by a switch out of this
        // fiber (or seeded above), and the fiber's stack is still mapped.
        unsafe { forestbal_fiber_switch(self.sched_rsp.as_ptr(), slot.rsp.get()) };
        Ok(())
    }

    fn yield_out(&self, index: usize) {
        // Safety: called on fiber `index`'s own stack, so `sched_rsp` is
        // the context that switched into it and is still suspended.
        unsafe { forestbal_fiber_switch(self.slots[index].rsp.as_ptr(), self.sched_rsp.get()) };
    }

    fn is_parked(&self, index: usize) -> bool {
        self.slots[index].started.get() && !self.slots[index].finished.get()
    }
}

impl Drop for FiberPool {
    fn drop(&mut self) {
        // Un-booted payloads (shutdown before start) drop here, while
        // everything they borrow is still alive.
        for slot in &self.slots {
            drop(slot.payload.take());
        }
        // Safety: the slab was mapped in `new` with this length, and no
        // fiber runs once the pool is being dropped.
        let rc = unsafe { munmap(self.slab as *mut _, self.slab_len) };
        debug_assert_eq!(rc, 0, "munmap of the fiber slab failed");
    }
}

/// Guard pages split the slab mapping (~2 extra kernel maps each), so
/// they are only armed when `vm.max_map_count` has room. Per-rank
/// stack depth is P-independent, so guarded smaller runs bound the
/// unguarded huge ones.
fn guard_budget_allows(count: usize) -> bool {
    let (max, used) = map_budget().unwrap_or((65530, 0));
    used + 2 * count as u64 + 512 <= max
}

//! Reusable working memory for the subtree balance kernels.
//!
//! The parallel phase-1 and phase-4 loops in `forestbal-forest` call a
//! subtree balance once per local tree (and once per query in the splice
//! path). Each call needs a work queue, one or two membership tables, and
//! sort buffers, all of packed Morton keys — allocations identical in
//! shape from call to call. [`BalanceScratch`] owns all of them so a rank
//! allocates once per balance pass instead of once per subtree.
//!
//! Lifetime rules: a scratch may be reused across any sequence of kernel
//! invocations, of either kernel, with any roots and conditions — every
//! kernel fully resets the state it reads before use, and nothing of a
//! previous invocation's *results* survives in the scratch. Buffers only
//! grow (to the high-water mark of past inputs) and instrumentation
//! counters only accumulate; harvest them with [`BalanceScratch::stats`]
//! at the end of a pass and feed them to `forestbal-trace`.

use forestbal_octant::{linearize_keys_with, sort_keys_with, OctantTable, SortScratch};
use std::collections::VecDeque;

/// Reusable arena of kernel working memory. See the module docs for the
/// lifetime rules.
pub struct BalanceScratch<const D: usize> {
    /// Keys of pending octants whose constraints still propagate (both
    /// kernels).
    pub(crate) work: VecDeque<u128>,
    /// `snew` in the old kernel, `rnew` in the new kernel.
    pub(crate) table_a: OctantTable<D>,
    /// `rprec` in the new kernel; unused by the old kernel.
    pub(crate) table_b: OctantTable<D>,
    /// Radix-sort key buffers.
    pub(crate) sort: SortScratch,
    /// Assembly buffer for the pre-sort union (`all` / `rfinal`).
    pub(crate) buf: Vec<u128>,
    /// Per-worker child arenas for parallel phases (see
    /// [`BalanceScratch::for_each_task`]); persist across calls so the
    /// steady state stays allocation-free at any thread count.
    workers: Vec<BalanceScratch<D>>,
    /// Counter deltas merged back from worker arenas, included in
    /// [`BalanceScratch::stats`] so a parallel phase reports the same
    /// totals through the same snapshot API as a serial one.
    absorbed: ScratchStats,
}

/// Cumulative instrumentation harvested from a [`BalanceScratch`]; the
/// source of the kernel counters traced by `forestbal-forest`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Radix scatter passes executed across all sorts.
    pub radix_passes: u64,
    /// Sorts satisfied by the already-sorted early-out.
    pub presorted_hits: u64,
    /// Slots inspected across all table lookups and inserts.
    pub table_probes: u64,
    /// Table lookup/insert operations.
    pub table_lookups: u64,
    /// Table regrowths (zero when the pre-sizing bounds held).
    pub table_grows: u64,
}

impl ScratchStats {
    /// Fieldwise difference since an earlier snapshot of the same scratch.
    pub fn delta_since(&self, base: &ScratchStats) -> ScratchStats {
        ScratchStats {
            radix_passes: self.radix_passes - base.radix_passes,
            presorted_hits: self.presorted_hits - base.presorted_hits,
            table_probes: self.table_probes - base.table_probes,
            table_lookups: self.table_lookups - base.table_lookups,
            table_grows: self.table_grows - base.table_grows,
        }
    }

    /// The five counters `forestbal-forest` traces for a balance phase,
    /// as `(name, value)` under `prefix`: `"balance.local"` (phase 1) or
    /// `"balance.rebalance"` (phase 4).
    pub fn counters(&self, prefix: &str) -> [(&'static str, u64); 5] {
        let names = match prefix {
            "balance.local" => [
                "balance.local.radix_passes",
                "balance.local.presorted_sorts",
                "balance.local.table_probes",
                "balance.local.table_lookups",
                "balance.local.table_grows",
            ],
            "balance.rebalance" => [
                "balance.rebalance.radix_passes",
                "balance.rebalance.presorted_sorts",
                "balance.rebalance.table_probes",
                "balance.rebalance.table_lookups",
                "balance.rebalance.table_grows",
            ],
            _ => panic!("no kernel counters under {prefix:?}"),
        };
        let values = [
            self.radix_passes,
            self.presorted_hits,
            self.table_probes,
            self.table_lookups,
            self.table_grows,
        ];
        std::array::from_fn(|i| (names[i], values[i]))
    }

    /// Fieldwise accumulate.
    pub fn accumulate(&mut self, d: &ScratchStats) {
        self.radix_passes += d.radix_passes;
        self.presorted_hits += d.presorted_hits;
        self.table_probes += d.table_probes;
        self.table_lookups += d.table_lookups;
        self.table_grows += d.table_grows;
    }
}

impl<const D: usize> BalanceScratch<D> {
    /// New scratch with empty buffers.
    pub fn new() -> Self {
        BalanceScratch {
            work: VecDeque::new(),
            table_a: OctantTable::new(),
            table_b: OctantTable::new(),
            sort: SortScratch::new(),
            buf: Vec::new(),
            workers: Vec::new(),
            absorbed: ScratchStats::default(),
        }
    }

    /// Run `f(index, task, arena)` once per element of `tasks` on the
    /// current `forestbal-par` pool: the one dispatch of the parallel
    /// balance phases. The child arenas (kept across calls, grown or
    /// shrunk to the pool width) are lent to `Pool::for_each_mut`, one per
    /// worker; a width-1 pool or a single task runs on this arena itself.
    /// Afterwards every worker's counter growth is folded into this
    /// scratch's totals in worker-index order, per the determinism
    /// contract of `forestbal-par` (the totals are sums, hence
    /// schedule-invariant), so [`BalanceScratch::stats`] reads the same at
    /// every pool width.
    pub fn for_each_task<T: Send>(
        &mut self,
        tasks: &mut [T],
        f: impl Fn(usize, &mut T, &mut BalanceScratch<D>) + Sync,
    ) {
        let pool = forestbal_par::current();
        if pool.threads() == 1 || tasks.len() < 2 {
            for (i, task) in tasks.iter_mut().enumerate() {
                f(i, task, self);
            }
            return;
        }
        self.workers.truncate(pool.threads());
        self.workers
            .resize_with(pool.threads(), BalanceScratch::new);
        let bases: Vec<ScratchStats> = self.workers.iter().map(BalanceScratch::stats).collect();
        pool.for_each_mut(tasks, &mut self.workers, f);
        for (w, base) in self.workers.iter().zip(&bases) {
            self.absorbed.accumulate(&w.stats().delta_since(base));
        }
    }

    /// Sort a key vector through the scratch's radix buffers.
    pub fn sort(&mut self, v: &mut Vec<u128>) {
        sort_keys_with::<D>(v, &mut self.sort);
    }

    /// Linearize a key vector through the scratch's radix buffers.
    pub fn linearize(&mut self, v: &mut Vec<u128>) {
        linearize_keys_with::<D>(v, &mut self.sort);
    }

    /// Snapshot the cumulative instrumentation counters, including deltas
    /// absorbed from worker arenas of parallel phases.
    pub fn stats(&self) -> ScratchStats {
        let mut s = ScratchStats {
            radix_passes: self.sort.radix_passes,
            presorted_hits: self.sort.presorted_hits,
            table_probes: self.table_a.probe_count() + self.table_b.probe_count(),
            table_lookups: self.table_a.lookup_count() + self.table_b.lookup_count(),
            table_grows: self.table_a.grow_count() + self.table_b.grow_count(),
        };
        s.accumulate(&self.absorbed);
        s
    }
}

impl<const D: usize> Default for BalanceScratch<D> {
    fn default() -> Self {
        Self::new()
    }
}

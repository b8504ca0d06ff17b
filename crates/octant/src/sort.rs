//! LSD radix sort of octants through their packed Morton keys.
//!
//! [`sort_octants_with`] packs each octant into a single integer key (see
//! [`crate::key`]), radix-sorts the keys least-significant-digit first with
//! 8-bit digits, and unpacks in place. Because key order equals
//! [`crate::morton::cmp`], the result is exactly what
//! `sort_unstable` produces — the proptests assert this — at O(n) per digit
//! instead of O(n log n) comparisons through the XOR-MSB comparator.
//!
//! Two fast paths keep the common cases cheap: an already-sorted input
//! returns after one linear scan, and trivial digit positions (all keys
//! sharing a byte, which is the norm — 2D keys use 59 of 128 bits and real
//! coordinate distributions cluster high bytes) are skipped entirely using
//! histograms gathered in a single pass over the keys.
//!
//! Inputs containing octants outside the packable coordinate range fall
//! back to `sort_unstable`; the balance algorithms never produce such
//! octants (see [`crate::key::packable`]), but the fallback keeps the
//! routine total.
//!
//! # Parallel path
//!
//! At [`PAR_MIN_LEN`] keys and above, the scatter passes run across the
//! [`forestbal_par`] pool under its determinism contract: the key array is
//! split into contiguous chunks (pure arithmetic, load-independent), each
//! worker histograms and scatters its own chunk, and the destination buffer
//! is cut into one window per (digit, chunk), laid out digit-major, so the
//! window of chunk `c` and digit `d` starts at
//!
//! ```text
//! offset(chunk c, digit d) = Σ_{d' < d} total[d']  +  Σ_{c' < c} count[c'][d]
//! ```
//!
//! — exactly the position serial stable LSD would assign, for any chunk
//! count. Each chunk fills only its own windows, no ordering between workers
//! can leak into the output, and the trivial-pass decision uses the summed
//! totals (permutation-invariant), so the executed pass set matches serial
//! too. Output and `SortScratch` counters are therefore bit-identical for
//! every thread count, including 1.

use crate::key::{self, key_bits};
use crate::octant::Octant;
use crate::packed::pack_batch;
use forestbal_par::Pool;

/// Reusable buffers for [`sort_octants_with`]. One scratch serves any
/// number of sorts of any dimension; buffers grow to the high-water mark
/// and are retained across calls. The counters are cumulative and feed the
/// `forestbal-trace` kernel counters.
#[derive(Clone, Default)]
pub struct SortScratch {
    keys: Vec<u128>,
    tmp: Vec<u128>,
    /// Radix passes actually executed (trivial single-byte passes excluded).
    pub radix_passes: u64,
    /// Sorts satisfied by the already-sorted early-out.
    pub presorted_hits: u64,
    /// Sorts routed through the radix path.
    pub radix_sorts: u64,
    /// Sorts that fell back to comparison sort (unpackable input).
    pub comparison_fallbacks: u64,
}

impl SortScratch {
    /// New scratch with empty buffers and zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Below this length a comparison sort beats packing + histogramming.
///
/// The kernel bench (`timings --exp kernel`) showed the previous cutoff of
/// 64 was too eager: at n≈330 the radix path ran at 0.90× of
/// `sort_unstable` — the fixed cost of gathering 8–11 byte histograms
/// dominates until the O(n log n) comparisons have a few thousand elements
/// to lose on. The crossover is pinned by the
/// `small_input_crossover_pins_cutoff` test.
pub const RADIX_MIN_LEN: usize = 512;

/// At and above this many keys the scatter passes run on the
/// [`forestbal_par`] pool (when it has more than one thread). Below it the
/// per-pass fork-join overhead outweighs the memory-bandwidth win.
pub const PAR_MIN_LEN: usize = 1 << 15;

/// Minimum keys per parallel chunk; bounds scheduling overhead per task.
const PAR_MIN_CHUNK: usize = 1 << 13;

/// Sort octants into Morton order (ancestors first), equivalent to
/// `a.sort_unstable()`, through the caller's scratch buffers.
pub fn sort_octants_with<const D: usize>(a: &mut [Octant<D>], s: &mut SortScratch) {
    if a.len() < 2 {
        return;
    }
    if a.windows(2).all(|w| w[0] <= w[1]) {
        s.presorted_hits += 1;
        return;
    }
    if a.len() < RADIX_MIN_LEN || !a.iter().all(key::packable) {
        s.comparison_fallbacks += 1;
        a.sort_unstable();
        return;
    }
    s.radix_sorts += 1;
    s.keys.clear();
    pack_batch(a, &mut s.keys);
    s.radix_passes += radix_lsd(&mut s.keys, &mut s.tmp, key_bits::<D>());
    for (o, &k) in a.iter_mut().zip(&s.keys) {
        *o = key::unpack(k);
    }
}

/// Radix-sort an array of packed keys in place — the native sort of the
/// SoA forest storage, where leaves already live as `u128` keys and no
/// pack/unpack conversion is needed at all. `D` selects the key width
/// actually populated ([`key_bits`]); passes over bytes above it are
/// skipped. Shares the early-outs and counters of [`sort_octants_with`].
pub fn sort_keys_with<const D: usize>(keys: &mut Vec<u128>, s: &mut SortScratch) {
    if keys.len() < 2 {
        return;
    }
    if keys.windows(2).all(|w| w[0] <= w[1]) {
        s.presorted_hits += 1;
        return;
    }
    if keys.len() < RADIX_MIN_LEN {
        s.comparison_fallbacks += 1;
        keys.sort_unstable();
        return;
    }
    s.radix_sorts += 1;
    s.radix_passes += radix_lsd(keys, &mut s.tmp, key_bits::<D>());
}

/// Digit `i` (8 bits) of a key.
#[inline]
fn byte(k: u128, i: u32) -> usize {
    (k >> (8 * i)) as u8 as usize
}

/// LSD radix sort of `keys` using `tmp` as the ping-pong buffer, visiting
/// only the low `bits` bits. Dispatches to the parallel scatter at
/// [`PAR_MIN_LEN`]; both paths produce bit-identical output and pass
/// counts. Returns the number of scatter passes executed.
fn radix_lsd(keys: &mut Vec<u128>, tmp: &mut Vec<u128>, bits: u32) -> u64 {
    if keys.len() >= PAR_MIN_LEN {
        let pool = forestbal_par::current();
        if pool.threads() > 1 {
            return radix_lsd_par(keys, tmp, bits, &pool);
        }
    }
    radix_lsd_serial(keys, tmp, bits)
}

/// Serial LSD radix sort — the specification the parallel path must match
/// bit-for-bit. Histograms for every digit position are gathered in one
/// pass, and positions where all keys share one byte value are skipped.
fn radix_lsd_serial(keys: &mut Vec<u128>, tmp: &mut Vec<u128>, bits: u32) -> u64 {
    let n = keys.len();
    debug_assert!(n < u32::MAX as usize);
    let num_digits = bits.div_ceil(8) as usize;
    debug_assert!(num_digits <= 16);
    let mut hist = [[0u32; 256]; 16];
    for &k in keys.iter() {
        for (b, h) in hist.iter_mut().enumerate().take(num_digits) {
            h[byte(k, b as u32)] += 1;
        }
    }
    tmp.clear();
    tmp.resize(n, 0);
    let mut passes = 0u64;
    // `keys` always holds the current data; after each scatter the buffers
    // swap so the loop body never cares which allocation it started in.
    for (b, h) in hist.iter_mut().enumerate().take(num_digits) {
        // Trivial pass: every key has the same byte here — order unchanged.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let start = sum;
            sum += *c;
            *c = start;
        }
        for &k in keys.iter() {
            let d = byte(k, b as u32);
            tmp[h[d] as usize] = k;
            h[d] += 1;
        }
        std::mem::swap(keys, tmp);
        passes += 1;
    }
    passes
}

/// Parallel LSD radix sort: per-chunk histograms, one destination window
/// per (digit, chunk), each chunk writing only its own windows.
/// Bit-identical to [`radix_lsd_serial`] for any chunk count — the
/// differential proptests pin this across thread counts {1, 2, 3, 8}.
fn radix_lsd_par(keys: &mut Vec<u128>, tmp: &mut Vec<u128>, bits: u32, pool: &Pool) -> u64 {
    let n = keys.len();
    debug_assert!(n < u32::MAX as usize);
    let num_digits = bits.div_ceil(8) as usize;
    debug_assert!(num_digits <= 16);
    let ranges = pool.chunk_ranges(n, PAR_MIN_CHUNK);
    let chunks = ranges.len();
    if chunks < 2 {
        return radix_lsd_serial(keys, tmp, bits);
    }
    // One parallel scan gathers every digit position's histogram per chunk,
    // mirroring the serial one-scan gather.
    let first_hists: Vec<Box<[[u32; 256]]>> = {
        let src: &[u128] = keys;
        let ranges = &ranges;
        pool.map(chunks, |c, _| {
            let mut h = vec![[0u32; 256]; num_digits].into_boxed_slice();
            for &k in &src[ranges[c].clone()] {
                for (b, hb) in h.iter_mut().enumerate() {
                    hb[byte(k, b as u32)] += 1;
                }
            }
            h
        })
    };
    // Per-digit totals are permutation-invariant, so the trivial-pass
    // decisions below match the serial path exactly.
    let mut totals = vec![[0u32; 256]; num_digits];
    for h in &first_hists {
        for (t, hb) in totals.iter_mut().zip(h.iter()) {
            for (td, &hd) in t.iter_mut().zip(hb.iter()) {
                *td += hd;
            }
        }
    }
    tmp.clear();
    tmp.resize(n, 0);
    let mut passes = 0u64;
    for b in 0..num_digits {
        if totals[b].iter().any(|&c| c as usize == n) {
            continue;
        }
        // Per-chunk digit counts for the *current* arrangement: the
        // first executed pass can reuse the initial scan; later passes see
        // reshuffled chunks and must recount this digit.
        let counts: Vec<[u32; 256]> = if passes == 0 {
            first_hists.iter().map(|h| h[b]).collect()
        } else {
            let src: &[u128] = keys;
            let ranges = &ranges;
            pool.map(chunks, |c, _| {
                let mut h = [0u32; 256];
                for &k in &src[ranges[c].clone()] {
                    h[byte(k, b as u32)] += 1;
                }
                h
            })
        };
        // Cut `tmp` into one window per (digit, chunk), digit-major: the
        // window of (d, c) starts where serial stable scatter puts chunk
        // c's first key with digit d.
        {
            let mut windows: Vec<[std::slice::IterMut<u128>; 256]> = (0..chunks)
                .map(|_| std::array::from_fn(|_| Default::default()))
                .collect();
            let mut rest: &mut [u128] = tmp;
            for d in 0..256 {
                for (c, count) in counts.iter().enumerate() {
                    let window = rest.split_off_mut(..count[d] as usize);
                    windows[c][d] = window.expect("the counts sum to n").iter_mut();
                }
            }
            let src: &[u128] = keys;
            let ranges = &ranges;
            pool.for_each_mut(&mut windows, &mut vec![(); pool.threads()], |c, win, _| {
                for &k in &src[ranges[c].clone()] {
                    let slot = win[byte(k, b as u32)].next();
                    *slot.expect("window sized by this chunk's digit count") = k;
                }
            });
        }
        std::mem::swap(keys, tmp);
        passes += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::ROOT_LEN;

    type Oct3 = Octant<3>;

    /// Deterministic xorshift octant soup: random descent paths from root.
    fn soup<const D: usize>(n: usize, seed: u64, max_depth: u8) -> Vec<Octant<D>> {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let depth = (rng() % (max_depth as u64 + 1)) as u8;
                let mut o = Octant::<D>::root();
                for _ in 0..depth {
                    o = o.child(rng() as usize % Octant::<D>::NUM_CHILDREN);
                }
                o
            })
            .collect()
    }

    #[test]
    fn matches_sort_unstable_3d() {
        for seed in [1, 7, 99] {
            let mut a = soup::<3>(500, seed, 10);
            let mut b = a.clone();
            a.sort_unstable();
            sort_octants_with(&mut b, &mut SortScratch::new());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matches_sort_unstable_2d() {
        let mut a = soup::<2>(777, 42, 14);
        let mut b = a.clone();
        a.sort_unstable();
        sort_octants_with(&mut b, &mut SortScratch::new());
        assert_eq!(a, b);
    }

    #[test]
    fn presorted_early_out() {
        let mut a = soup::<3>(300, 5, 8);
        a.sort_unstable();
        let mut s = SortScratch::new();
        sort_octants_with(&mut a, &mut s);
        assert_eq!(s.presorted_hits, 1);
        assert_eq!(s.radix_sorts, 0);
        assert_eq!(s.radix_passes, 0);
    }

    #[test]
    fn out_of_root_still_sorts() {
        // Shift half the soup a full root length negative: still packable,
        // still must match the comparison sort.
        let mut a = soup::<3>(400, 11, 6);
        for (i, o) in a.iter_mut().enumerate() {
            if i % 2 == 0 {
                o.coords[0] -= ROOT_LEN;
            }
        }
        let mut b = a.clone();
        a.sort_unstable();
        sort_octants_with(&mut b, &mut SortScratch::new());
        assert_eq!(a, b);
    }

    #[test]
    fn unpackable_falls_back() {
        // Long enough for the radix path, so only the packable check can
        // send it to the comparison sort, wherever the bad octant sits.
        let n = 2 * RADIX_MIN_LEN;
        for at in [0, n / 2, n - 1] {
            let mut a = soup::<3>(n, 3, 6);
            a[at].coords[at % 3] = -2 * ROOT_LEN; // outside the packable window
            let mut b = a.clone();
            let mut s = SortScratch::new();
            sort_octants_with(&mut a, &mut s);
            assert_eq!((s.comparison_fallbacks, s.radix_sorts), (1, 0), "at {at}");
            b.sort_unstable();
            assert_eq!(a, b, "at {at}");
        }
    }

    #[test]
    fn small_and_empty_inputs() {
        let mut v: Vec<Oct3> = vec![];
        sort_octants_with(&mut v, &mut SortScratch::new());
        let r = Oct3::root();
        let mut v = vec![r.child(3), r.child(1)];
        sort_octants_with(&mut v, &mut SortScratch::new());
        assert_eq!(v, vec![r.child(1), r.child(3)]);
    }

    #[test]
    fn scratch_reuse_across_dimensions() {
        let mut s = SortScratch::new();
        let mut a2 = soup::<2>(2000, 9, 9);
        let mut a3 = soup::<3>(2000, 9, 9);
        let (mut b2, mut b3) = (a2.clone(), a3.clone());
        sort_octants_with(&mut a2, &mut s);
        sort_octants_with(&mut a3, &mut s);
        assert_eq!(s.radix_sorts, 2);
        assert!(s.radix_passes > 0);
        b2.sort_unstable();
        b3.sort_unstable();
        assert_eq!(a2, b2);
        assert_eq!(a3, b3);
    }

    #[test]
    fn small_input_crossover_pins_cutoff() {
        // One octant below the cutoff: the comparison fallback must run
        // (no histogram cost on tiny inputs — the n≈330 regression fix).
        let mut below = soup::<3>(RADIX_MIN_LEN - 1, 21, 9);
        let mut s = SortScratch::new();
        sort_octants_with(&mut below, &mut s);
        assert_eq!((s.comparison_fallbacks, s.radix_sorts), (1, 0));
        assert!(below.windows(2).all(|w| w[0] <= w[1]));
        // At the cutoff: the radix path must take over.
        let mut at = soup::<3>(RADIX_MIN_LEN, 21, 9);
        let mut s = SortScratch::new();
        sort_octants_with(&mut at, &mut s);
        assert_eq!((s.comparison_fallbacks, s.radix_sorts), (0, 1));
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        // Same crossover on the native packed-key path.
        let mut keys: Vec<u128> = soup::<2>(RADIX_MIN_LEN, 33, 12)
            .iter()
            .map(key::pack::<2>)
            .collect();
        let mut s = SortScratch::new();
        sort_keys_with::<2>(&mut keys, &mut s);
        assert_eq!((s.comparison_fallbacks, s.radix_sorts), (0, 1));
        keys.truncate(RADIX_MIN_LEN - 1);
        keys.reverse(); // definitely unsorted
        let mut s = SortScratch::new();
        sort_keys_with::<2>(&mut keys, &mut s);
        assert_eq!((s.comparison_fallbacks, s.radix_sorts), (1, 0));
    }

    /// The parallel radix must be bit-identical to serial (threads = 1) for
    /// every thread count, both key widths, including reused-scratch steady
    /// state. This is the kernel-level half of the determinism contract;
    /// the forest-level half lives in `crates/forest/tests/par_differential`.
    #[test]
    fn parallel_radix_bit_identical_across_thread_counts() {
        use std::sync::Arc;
        let n = PAR_MIN_LEN + 4321; // above the parallel threshold
        for seed in [3u64, 17] {
            let base2 = soup::<2>(n, seed, 13);
            let base3 = soup::<3>(n, seed, 13);
            let serial_pool = Arc::new(Pool::new(1));
            let (expected2, expected3, expected_counters) = serial_pool.install(|| {
                let mut s = SortScratch::new();
                let (mut a2, mut a3) = (base2.clone(), base3.clone());
                sort_octants_with(&mut a2, &mut s);
                sort_octants_with(&mut a3, &mut s);
                // Steady state: sort again pre-sorted, then a reshuffled copy.
                sort_octants_with(&mut a2, &mut s);
                let mut again = base3.clone();
                sort_octants_with(&mut again, &mut s);
                assert_eq!(again, a3);
                (a2, a3, (s.radix_passes, s.presorted_hits, s.radix_sorts))
            });
            for threads in [2usize, 3, 8] {
                let pool = Arc::new(Pool::new(threads));
                pool.install(|| {
                    let mut s = SortScratch::new();
                    let (mut a2, mut a3) = (base2.clone(), base3.clone());
                    sort_octants_with(&mut a2, &mut s);
                    sort_octants_with(&mut a3, &mut s);
                    sort_octants_with(&mut a2, &mut s);
                    let mut again = base3.clone();
                    sort_octants_with(&mut again, &mut s);
                    assert_eq!(a2, expected2, "threads={threads} seed={seed} 2D");
                    assert_eq!(a3, expected3, "threads={threads} seed={seed} 3D");
                    assert_eq!(again, expected3);
                    assert_eq!(
                        (s.radix_passes, s.presorted_hits, s.radix_sorts),
                        expected_counters,
                        "threads={threads}: counters must be schedule-invariant"
                    );
                });
            }
        }
    }

    #[test]
    fn parallel_key_sort_matches_serial() {
        use std::sync::Arc;
        let n = PAR_MIN_LEN * 2 + 77;
        let octs = soup::<3>(n, 41, 14);
        let base: Vec<u128> = octs.iter().map(key::pack::<3>).collect();
        let mut expected = base.clone();
        expected.sort_unstable();
        for threads in [1usize, 2, 3, 8] {
            let pool = Arc::new(Pool::new(threads));
            pool.install(|| {
                let mut s = SortScratch::new();
                let mut keys = base.clone();
                sort_keys_with::<3>(&mut keys, &mut s);
                assert_eq!(keys, expected, "threads={threads}");
                assert!(s.radix_passes > 0);
            });
        }
    }
}

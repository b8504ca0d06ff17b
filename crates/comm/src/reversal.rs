//! Reversing an asymmetric communication pattern (§V).
//!
//! Before the Query phase each rank knows, from its local octants, which
//! ranks it will *send* to — but not which ranks will send to *it*. The
//! three schemes below compute the sender list from the receiver list:
//!
//! * [`reverse_naive`] — Figure 12: `Allgather` the counts, `Allgatherv`
//!   the receiver lists, scan everything. Exact, but transports the whole
//!   global pattern to every rank.
//! * [`reverse_ranges`] — the first improvement deployed in p4est: each
//!   rank encodes its receivers as at most `R` rank ranges and one
//!   `Allgather` of `2R` integers is scanned. May return false positives
//!   (ranks that will send an empty message) when the receiver set does
//!   not fit in `R` ranges.
//! * [`reverse_notify`] — the paper's `Notify` algorithm (Figure 13):
//!   bottom-up divide-and-conquer over process groups of doubling size
//!   using only point-to-point messages, O(P log P) messages total, exact.
//!   Non-powers-of-two are handled by redirecting a missing peer
//!   `p xor 2^l >= P` to `p - 2^l`, which balances duplicate messages
//!   across peers instead of bottlenecking the highest rank.

use crate::comm::Comm;
use crate::share::shared_decode;
use forestbal_trace as trace;

/// Message tag space reserved by the reversal algorithms.
const NOTIFY_TAG_BASE: u32 = 0xB000_0000;

/// Memo keys for [`shared_decode`] (one per allgather call site).
const SHARE_KEY_NAIVE: u64 = 0x4e41_4956;
const SHARE_KEY_RANGES: u64 = 0x524e_4745;

/// The transposed communication pattern in CSR form: senders of rank `r`
/// are `senders[offsets[r]..offsets[r+1]]`, sorted ascending, deduped.
/// Decoded **once per gather buffer per thread** via [`shared_decode`]:
/// the naive and ranges scans used to be O(P·pattern) per rank — O(P²)
/// and worse in aggregate, ~10¹⁰ list scans at P = 112k — and are O(out)
/// per rank against this index.
struct InvertedPattern {
    offsets: Vec<u32>,
    senders: Vec<u32>,
}

impl InvertedPattern {
    fn senders_of(&self, r: usize) -> &[u32] {
        &self.senders[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// Invert allgathered receiver lists (`all[q]` = rank q's receivers as
/// LE u32s, possibly with duplicates). Out-of-range receivers are
/// ignored, matching the scan they replace (no rank matches them).
fn invert_lists(all: &[Vec<u8>]) -> InvertedPattern {
    let size = all.len();
    // Two passes (count, fill); `scratch` dedups each list so a rank
    // naming the same receiver twice still counts as one sender, exactly
    // like the `contains` scan did. One reused buffer, no per-list
    // allocation.
    let mut counts = vec![0u32; size + 1];
    let mut scratch: Vec<u32> = Vec::new();
    let dedup = |data: &[u8], scratch: &mut Vec<u32>| {
        scratch.clear();
        scratch.extend(
            data.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        scratch.sort_unstable();
        scratch.dedup();
    };
    for data in all {
        dedup(data, &mut scratch);
        for &r in scratch.iter().filter(|&&r| (r as usize) < size) {
            counts[r as usize + 1] += 1;
        }
    }
    let mut offsets = counts;
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut senders = vec![0u32; offsets[size] as usize];
    for (q, data) in all.iter().enumerate() {
        dedup(data, &mut scratch);
        for &r in scratch.iter().filter(|&&r| (r as usize) < size) {
            senders[cursor[r as usize] as usize] = q as u32;
            cursor[r as usize] += 1;
        }
    }
    // Buckets are sorted by construction: q ascends across the fill.
    InvertedPattern { offsets, senders }
}

/// Inverted `Ranges` encoding, or `None` when the expansion is too large
/// to materialize (heavily merged ranges can cover nearly the whole
/// cluster per rank, making the inverse O(P²) in space — fall back to
/// the per-rank scan instead).
struct InvertedRanges(Option<InvertedPattern>);

/// Iterate a rank's fixed-size range encoding as `(lo, hi)` pairs,
/// clamped to the cluster and skipping unused (`u32::MAX`) slots.
fn iter_ranges(data: &[u8], size: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    data.chunks_exact(8).filter_map(move |c| {
        let lo = u32::from_le_bytes(c[0..4].try_into().unwrap());
        let hi = u32::from_le_bytes(c[4..8].try_into().unwrap());
        (lo != u32::MAX && (lo as usize) < size).then(|| (lo as usize, (hi as usize).min(size - 1)))
    })
}

fn invert_ranges(all: &[Vec<u8>]) -> InvertedRanges {
    let size = all.len();
    // Expansion budget: the honest (unmerged) case is O(pattern) total;
    // allow generous slack before declaring the inverse not worth it.
    let cap = 16 * size as u64 + 1024;
    let expansion: u64 = all
        .iter()
        .flat_map(|d| iter_ranges(d, size))
        .map(|(lo, hi)| (hi - lo + 1) as u64)
        .sum();
    if expansion > cap {
        return InvertedRanges(None);
    }
    // Count via a difference array (ranges within one rank are disjoint
    // by construction, so no per-rank dedup is needed): cover[r] = how
    // many ranks' encodings contain r = that bucket's size.
    let mut diff = vec![0i64; size + 1];
    for (lo, hi) in all.iter().flat_map(|d| iter_ranges(d, size)) {
        diff[lo] += 1;
        diff[hi + 1] -= 1;
    }
    let mut offsets = vec![0u32; size + 1];
    let mut cover = 0i64;
    for r in 0..size {
        cover += diff[r];
        offsets[r + 1] = offsets[r] + cover as u32;
    }
    let mut cursor = offsets.clone();
    let mut senders = vec![0u32; offsets[size] as usize];
    for (q, data) in all.iter().enumerate() {
        for (lo, hi) in iter_ranges(data, size) {
            for r in lo..=hi {
                senders[cursor[r] as usize] = q as u32;
                cursor[r] += 1;
            }
        }
    }
    InvertedRanges(Some(InvertedPattern { offsets, senders }))
}

/// Does this tag belong to the [`reverse_notify`] tag space? Lets callers
/// attribute per-tag [`crate::CommStats`] traffic to pattern reversal.
pub fn is_notify_tag(tag: u32) -> bool {
    (NOTIFY_TAG_BASE..NOTIFY_TAG_BASE + 64).contains(&tag)
}

fn encode_u32s(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_u32s(data: &[u8]) -> Vec<u32> {
    debug_assert!(data.len().is_multiple_of(4));
    data.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Naive reversal (Figure 12): allgather counts, then receiver lists.
/// Returns the exact sorted list of ranks that name `ctx.rank()` among
/// their receivers.
pub fn reverse_naive(ctx: &impl Comm, receivers: &[usize]) -> Vec<usize> {
    trace::span_begin("reverse_naive", || ctx.now_ns());
    // Allgather the counts (mirrors the MPI_Allgather of |R|)...
    let counts = ctx.allgather(encode_u32s(&[receivers.len() as u32]));
    debug_assert_eq!(counts.len(), ctx.size());
    // ...then allgatherv the receiver lists themselves.
    let lists: Vec<u32> = receivers.iter().map(|&r| r as u32).collect();
    let all = ctx.allgather(encode_u32s(&lists));
    // Invert once per gather (shared across co-threaded ranks) and read
    // this rank's bucket, instead of scanning all P lists per rank.
    let inv = shared_decode(&all, SHARE_KEY_NAIVE, invert_lists);
    let senders: Vec<usize> = inv
        .senders_of(ctx.rank())
        .iter()
        .map(|&q| q as usize)
        .collect();
    trace::counter_add("reversal.receivers", receivers.len() as u64);
    trace::counter_add("reversal.senders", senders.len() as u64);
    trace::span_end(|| ctx.now_ns());
    senders
}

/// `Ranges` reversal: encode the receiver set in at most `max_ranges`
/// inclusive rank ranges (merging the closest gaps first when over
/// budget), allgather the fixed-size encoding, scan. The result is a
/// superset of the true sender list — callers must tolerate the
/// corresponding zero-length messages.
pub fn reverse_ranges(ctx: &impl Comm, receivers: &[usize], max_ranges: usize) -> Vec<usize> {
    assert!(max_ranges >= 1);
    trace::span_begin("reverse_ranges", || ctx.now_ns());
    let ranges = encode_ranges(receivers, max_ranges);
    // Fixed-size encoding: 2 * max_ranges u32 slots, unused slots marked
    // with u32::MAX (matching the fixed bytes-per-process property of the
    // original implementation).
    let mut slots = vec![u32::MAX; 2 * max_ranges];
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        slots[2 * i] = lo as u32;
        slots[2 * i + 1] = hi as u32;
    }
    let all = ctx.allgather(encode_u32s(&slots));
    let me = ctx.rank();
    let inv = shared_decode(&all, SHARE_KEY_RANGES, invert_ranges);
    let senders: Vec<usize> = match &inv.0 {
        // Inverted once per gather, shared across co-threaded ranks.
        Some(pat) => pat.senders_of(me).iter().map(|&q| q as usize).collect(),
        // Expansion too large to materialize: allocation-free scan of
        // the fixed-size encodings.
        None => all
            .iter()
            .enumerate()
            .filter(|(_, data)| iter_ranges(data, ctx.size()).any(|(lo, hi)| lo <= me && me <= hi))
            .map(|(q, _)| q)
            .collect(),
    };
    trace::counter_add("reversal.receivers", receivers.len() as u64);
    // Ranges may overshoot: report real receivers and advertised senders
    // so the false-positive rate is visible in merged counters.
    trace::counter_add("reversal.senders", senders.len() as u64);
    trace::span_end(|| ctx.now_ns());
    senders
}

/// The set of ranks covered by this rank's own `Ranges` encoding — the
/// receivers [`reverse_ranges`] advertises on its behalf. A rank using the
/// Ranges scheme must send a (possibly empty) message to every rank in
/// this expansion, because false-positive receivers will be waiting.
pub fn ranges_expansion(receivers: &[usize], max_ranges: usize, size: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (lo, hi) in encode_ranges(receivers, max_ranges) {
        for q in lo..=hi.min(size - 1) {
            out.push(q);
        }
    }
    out
}

/// Merge a sorted receiver list into at most `max_ranges` inclusive
/// ranges, closing the smallest gaps first.
fn encode_ranges(receivers: &[usize], max_ranges: usize) -> Vec<(usize, usize)> {
    let mut sorted: Vec<usize> = receivers.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.is_empty() {
        return Vec::new();
    }
    let mut ranges: Vec<(usize, usize)> = sorted.iter().map(|&r| (r, r)).collect();
    while ranges.len() > max_ranges {
        // Merge the pair of adjacent ranges with the smallest gap.
        let (i, _) = ranges
            .windows(2)
            .map(|w| w[1].0 - w[0].1)
            .enumerate()
            .min_by_key(|&(_, gap)| gap)
            .unwrap();
        let hi = ranges[i + 1].1;
        ranges[i].1 = hi;
        ranges.remove(i + 1);
    }
    ranges
}

/// The `Notify` algorithm (Figure 13): exact reversal using point-to-point
/// messages only.
///
/// Invariant (equation 2): after level `l`, the items known to rank `p`
/// concern receivers `q` with `q ≡ p (mod 2^l)`, distributed across the
/// residue class. After the last level each rank holds exactly the items
/// addressed to itself; their original senders are the answer.
pub fn reverse_notify(ctx: &impl Comm, receivers: &[usize]) -> Vec<usize> {
    trace::span_begin("reverse_notify", || ctx.now_ns());
    let p = ctx.rank();
    let size = ctx.size();
    // (receiver, original sender) pairs.
    let mut items: Vec<(u32, u32)> = receivers.iter().map(|&q| (q as u32, p as u32)).collect();

    let mut l = 0u32;
    while (1usize << l) < size {
        let bit = 1usize << l;
        let tag = NOTIFY_TAG_BASE + l;
        // Load balance of the divide-and-conquer: how many items this
        // rank carries into each level (equation 2's residue classes).
        trace::hist("reversal.notify.items_per_level", items.len() as u64);

        // Split: items whose receiver residue matches mine stay.
        let (keep, give): (Vec<_>, Vec<_>) = items
            .into_iter()
            .partition(|&(q, _)| (q as usize >> l) & 1 == (p >> l) & 1);

        // Outgoing peer with the non-power-of-two redirection rule.
        let natural = p ^ bit;
        let target = if natural < size {
            Some(natural)
        } else if p >= bit {
            Some(p - bit)
        } else {
            None
        };
        match target {
            Some(t) => {
                let flat: Vec<u32> = give.iter().flat_map(|&(q, s)| [q, s]).collect();
                ctx.send(t, tag, encode_u32s(&flat));
            }
            None => debug_assert!(
                give.is_empty(),
                "items addressed beyond the cluster cannot exist"
            ),
        }

        // Deterministic incoming peers: the natural partner, plus the
        // redirected rank p + 2^l when its own natural partner is missing.
        let mut expect: Vec<usize> = Vec::with_capacity(2);
        let s1 = p ^ bit;
        if s1 < size {
            expect.push(s1);
        }
        let s2 = p + bit;
        if s2 < size && s2 != s1 && (s2 ^ bit) >= size {
            expect.push(s2);
        }

        items = keep;
        for s in expect {
            let (_, data) = ctx.recv(Some(s), tag);
            let vals = decode_u32s(&data);
            items.extend(vals.chunks_exact(2).map(|c| (c[0], c[1])));
        }
        l += 1;
    }

    let mut senders: Vec<usize> = items
        .into_iter()
        .map(|(q, s)| {
            debug_assert_eq!(q as usize, p, "invariant (2) violated");
            s as usize
        })
        .collect();
    senders.sort_unstable();
    senders.dedup();
    trace::counter_add("reversal.notify.levels", l as u64);
    trace::counter_add("reversal.receivers", receivers.len() as u64);
    trace::counter_add("reversal.senders", senders.len() as u64);
    trace::span_end(|| ctx.now_ns());
    senders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    /// Run all three schemes on a fixed pattern and check them against the
    /// transpose. `pattern[p]` is rank `p`'s receiver list.
    fn check_pattern(pattern: Vec<Vec<usize>>) {
        let size = pattern.len();
        let mut want: Vec<Vec<usize>> = vec![Vec::new(); size];
        for (p, rs) in pattern.iter().enumerate() {
            for &q in rs {
                want[q].push(p);
            }
        }
        for w in want.iter_mut() {
            w.sort_unstable();
            w.dedup();
        }

        let pat = &pattern;
        let naive = Cluster::run(size, |ctx| reverse_naive(ctx, &pat[ctx.rank()]));
        assert_eq!(naive.results, want, "naive");

        let notify = Cluster::run(size, |ctx| reverse_notify(ctx, &pat[ctx.rank()]));
        assert_eq!(notify.results, want, "notify");

        // Ranges may overshoot: each result must be a superset.
        let ranges = Cluster::run(size, |ctx| reverse_ranges(ctx, &pat[ctx.rank()], 2));
        for (got, want) in ranges.results.iter().zip(&want) {
            for s in want {
                assert!(got.contains(s), "ranges missed sender {s}");
            }
        }
    }

    #[test]
    fn empty_pattern() {
        check_pattern(vec![vec![], vec![], vec![]]);
    }

    #[test]
    fn ring_pattern() {
        let size = 6;
        check_pattern((0..size).map(|p| vec![(p + 1) % size]).collect());
    }

    #[test]
    fn all_to_one() {
        let size = 7;
        check_pattern((0..size).map(|_| vec![0]).collect());
    }

    #[test]
    fn one_to_all() {
        let size = 5;
        check_pattern(
            (0..size)
                .map(|p| if p == 2 { (0..size).collect() } else { vec![] })
                .collect(),
        );
    }

    #[test]
    fn power_of_two_sizes() {
        for size in [1usize, 2, 4, 8, 16] {
            check_pattern((0..size).map(|p| vec![p % 2, size - 1 - p]).collect());
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        // The redirection rule of §V; the paper exercises 12 cores/node.
        for size in [3usize, 5, 6, 7, 11, 12, 13] {
            check_pattern(
                (0..size)
                    .map(|p| vec![(p * 5 + 1) % size, (p + size / 2) % size])
                    .collect(),
            );
        }
    }

    #[test]
    fn self_notification() {
        check_pattern(vec![vec![0], vec![1, 0], vec![2, 1]]);
    }

    #[test]
    fn notify_message_count_is_p_log_p() {
        let size = 16;
        let out = Cluster::run(size, |ctx| {
            reverse_notify(ctx, &[(ctx.rank() + 1) % 16]);
            ctx.stats()
        });
        let total: u64 = out.stats.iter().map(|s| s.messages_sent).sum();
        assert_eq!(total, (size * 4) as u64, "P log2(P) messages for P=16");
    }

    #[test]
    fn naive_volume_exceeds_notify_volume() {
        // The headline of §V: Notify moves far less data than the
        // Allgatherv-based scheme on sparse patterns at larger P.
        let size = 24;
        let pat: Vec<Vec<usize>> = (0..size)
            .map(|p| vec![(p + 1) % size, (p + 2) % size])
            .collect();
        let pat = &pat;
        let naive = Cluster::run(size, |ctx| {
            reverse_naive(ctx, &pat[ctx.rank()]);
        });
        let notify = Cluster::run(size, |ctx| {
            reverse_notify(ctx, &pat[ctx.rank()]);
        });
        // Naive transports the whole pattern to every rank via
        // collectives; count collective bytes * P (broadcast fan-out) vs
        // notify's p2p bytes.
        let naive_moved = naive.total_stats().collective_bytes * (size as u64);
        let notify_moved = notify.total_stats().bytes_sent;
        assert!(
            notify_moved < naive_moved,
            "notify {notify_moved} >= naive {naive_moved}"
        );
    }

    #[test]
    fn encode_ranges_merges_smallest_gaps() {
        let r = encode_ranges(&[0, 1, 2, 9, 10, 40], 2);
        assert_eq!(r, vec![(0, 10), (40, 40)]);
        let exact = encode_ranges(&[3, 4, 5], 4);
        assert_eq!(exact, vec![(3, 3), (4, 4), (5, 5)]);
        assert!(encode_ranges(&[], 3).is_empty());
    }

    #[test]
    fn random_patterns_all_sizes() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for &size in &[2usize, 3, 9, 10, 17] {
            let pattern: Vec<Vec<usize>> = (0..size)
                .map(|_| {
                    let n = rng.random_range(0..size);
                    (0..n).map(|_| rng.random_range(0..size)).collect()
                })
                .collect();
            check_pattern(pattern);
        }
    }
}

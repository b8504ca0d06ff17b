//! Wire encoding v2: packed-key records that encode and decode as a
//! bounds-checked `memcpy`.
//!
//! Every octant-bearing message ships the octant as its packed Morton key
//! (see `forestbal_octant::key`) in fixed-width little-endian form:
//! **8 bytes in 2D** (59-bit key) and **16 bytes in 3D** (86-bit key),
//! versus the `4*D + 1 = 9/13` bytes of the v1 field-by-field codec — and,
//! unlike v1, with no per-field shifting on either end: the bytes on the
//! wire *are* the storage representation of the SoA forest
//! (`crate::store`), so batch encode/decode degenerates to a copy.
//!
//! Octant streams are framed as *tree runs* — `(u32 tree, u32 count,
//! count × key)` — so the 4-byte tree id of v1's per-record `(tree,
//! octant)` framing is paid once per run instead of once per octant.
//! Producers emit runs with [`RunEncoder`]; a producer whose tree sequence
//! is not monotone (the ripple boundary exchange translates octants into
//! neighbor trees mid-stream) simply starts a new run, which is always
//! correct, merely less compact.
//!
//! Bytes per octant on the wire is published as [`key_size`] and surfaces
//! in the kernel BENCH JSON (`wire_bytes_2d`/`wire_bytes_3d`) so
//! message-volume changes stay visible in the perf trajectory.

use crate::connectivity::TreeId;
use forestbal_octant::{sort_keys_with, unpack_batch, Octant, SortScratch};
use std::collections::BTreeMap;
use std::ops::Range;

/// Bytes per octant on the wire: one packed key, 8 bytes for `D <= 2`
/// (59-bit keys) and 16 bytes for larger `D` (86-bit keys in 3D).
pub const fn key_size<const D: usize>() -> usize {
    if D <= 2 {
        8
    } else {
        16
    }
}

/// Append one packed key in little-endian fixed width.
#[inline]
pub fn put_key<const D: usize>(buf: &mut Vec<u8>, k: u128) {
    if D <= 2 {
        buf.extend_from_slice(&(k as u64).to_le_bytes());
    } else {
        buf.extend_from_slice(&k.to_le_bytes());
    }
}

/// Read one packed key at `pos`, advancing it.
#[inline]
pub fn get_key<const D: usize>(buf: &[u8], pos: &mut usize) -> u128 {
    let k = if D <= 2 {
        u64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap()) as u128
    } else {
        u128::from_le_bytes(buf[*pos..*pos + 16].try_into().unwrap())
    };
    *pos += key_size::<D>();
    k
}

/// Batches at and above this many keys en/decode across the
/// `forestbal-par` pool; byte `i*key_size..` is a pure function of key `i`,
/// so chunked copies reproduce the serial bytes exactly.
const PAR_KEYS_MIN: usize = 1 << 15;

/// Minimum keys per parallel codec chunk.
const PAR_KEYS_CHUNK: usize = 1 << 14;

/// Slice core of [`put_keys`]: encode `keys[i]` at `dst[i*key_size..]`.
#[inline]
fn write_keys<const D: usize>(keys: &[u128], dst: &mut [u8]) {
    let ks = key_size::<D>();
    debug_assert_eq!(dst.len(), keys.len() * ks);
    for (rec, &k) in dst.chunks_exact_mut(ks).zip(keys) {
        if D <= 2 {
            rec.copy_from_slice(&(k as u64).to_le_bytes());
        } else {
            rec.copy_from_slice(&k.to_le_bytes());
        }
    }
}

/// Slice core of [`get_keys`]: decode `src[i*key_size..]` into `dst[i]`.
#[inline]
fn read_keys<const D: usize>(src: &[u8], dst: &mut [u128]) {
    let ks = key_size::<D>();
    debug_assert_eq!(src.len(), dst.len() * ks);
    for (rec, slot) in src.chunks_exact(ks).zip(dst) {
        *slot = if D <= 2 {
            u64::from_le_bytes(rec.try_into().unwrap()) as u128
        } else {
            u128::from_le_bytes(rec.try_into().unwrap())
        };
    }
}

/// Append a batch of packed keys — the memcpy half of the wire format.
/// Chunks across the `forestbal-par` pool at `PAR_KEYS_MIN` keys.
pub fn put_keys<const D: usize>(buf: &mut Vec<u8>, keys: &[u128]) {
    let ks = key_size::<D>();
    let base = buf.len();
    buf.resize(base + keys.len() * ks, 0);
    chunked(keys.len(), &mut buf[base..], ks, |r, dst| {
        write_keys::<D>(&keys[r], dst)
    });
}

/// Read `count` packed keys at `pos` into `out`, advancing `pos`. The
/// decode half of the memcpy wire format, with the same pool dispatch as
/// [`put_keys`].
pub fn get_keys<const D: usize>(buf: &[u8], pos: &mut usize, count: usize, out: &mut Vec<u128>) {
    let ks = key_size::<D>();
    let src = &buf[*pos..*pos + count * ks];
    let base = out.len();
    out.resize(base + count, 0);
    *pos += count * ks;
    chunked(count, &mut out[base..], 1, |r, dst| {
        read_keys::<D>(&src[r.start * ks..r.end * ks], dst)
    });
}

/// Run `f(key range, output piece)` over `count` keys whose output holds
/// `per_key` elements per key: whole, or, from `PAR_KEYS_MIN` keys on a
/// pool wider than 1, on pieces split at the pool's `chunk_ranges`
/// boundaries.
fn chunked<T: Send>(
    count: usize,
    out: &mut [T],
    per_key: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    if count >= PAR_KEYS_MIN {
        let pool = forestbal_par::current();
        if pool.threads() > 1 {
            let mut rest = out;
            let mut parts: Vec<_> = pool
                .chunk_ranges(count, PAR_KEYS_CHUNK)
                .into_iter()
                .map(|r| {
                    let piece = rest.split_off_mut(..r.len() * per_key);
                    (r, piece.expect("ranges tile the output"))
                })
                .collect();
            pool.for_each_mut(&mut parts, &mut vec![(); pool.threads()], |_, (r, o), _| {
                f(r.clone(), o)
            });
            return;
        }
    }
    f(0..count, out);
}

/// Append a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u32` at `pos`, advancing it.
pub fn get_u32(buf: &[u8], pos: &mut usize) -> u32 {
    let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
    *pos += 4;
    v
}

/// Streaming encoder of tree runs `(u32 tree, u32 count, count × key)`.
///
/// Push `(tree, key)` pairs in any order; consecutive pushes for the same
/// tree extend the open run, a tree switch closes it and opens a new one.
/// [`RunEncoder::finish`] must be called before the buffer is shipped (it
/// back-patches the open run's count).
#[derive(Default)]
pub struct RunEncoder {
    tree: TreeId,
    count_pos: Option<usize>,
    count: u32,
}

impl RunEncoder {
    /// New encoder with no open run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one `(tree, key)` record to `buf`.
    #[inline]
    pub fn push<const D: usize>(&mut self, buf: &mut Vec<u8>, tree: TreeId, k: u128) {
        if self.count_pos.is_none() || tree != self.tree {
            self.finish(buf);
            put_u32(buf, tree);
            self.count_pos = Some(buf.len());
            put_u32(buf, 0);
            self.tree = tree;
        }
        self.count += 1;
        put_key::<D>(buf, k);
    }

    /// Append a whole key batch for one tree as a single run.
    pub fn push_run<const D: usize>(&mut self, buf: &mut Vec<u8>, tree: TreeId, keys: &[u128]) {
        if keys.is_empty() {
            return;
        }
        self.finish(buf);
        put_u32(buf, tree);
        put_u32(buf, keys.len() as u32);
        put_keys::<D>(buf, keys);
    }

    /// Close the open run (if any), back-patching its count. Idempotent.
    /// Only rewrites bytes already written by `push`, so a slice suffices.
    pub fn finish(&mut self, buf: &mut [u8]) {
        if let Some(p) = self.count_pos.take() {
            buf[p..p + 4].copy_from_slice(&self.count.to_le_bytes());
            self.count = 0;
        }
    }
}

/// Decode a buffer of tree runs, invoking `f` once per run with the
/// decoded key batch. Keys within a run are in producer order.
pub fn for_each_run<const D: usize>(buf: &[u8], mut f: impl FnMut(TreeId, &[u128])) {
    let mut pos = 0;
    let mut keys: Vec<u128> = Vec::new();
    while pos < buf.len() {
        let t = get_u32(buf, &mut pos);
        let n = get_u32(buf, &mut pos) as usize;
        keys.clear();
        get_keys::<D>(buf, &mut pos, n, &mut keys);
        f(t, &keys);
    }
    debug_assert_eq!(pos, buf.len());
}

use crate::forest::Forest;

impl<const D: usize> Forest<D> {
    /// Serialize this rank's leaves to bytes — one tree run per local
    /// tree, copied straight out of the SoA storage. The connectivity and
    /// rank layout are not included; pair with the same connectivity and
    /// any partition on load.
    pub fn serialize_local(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.num_local() * key_size::<D>() + 8 * 4);
        let mut enc = RunEncoder::new();
        for (t, keys) in self.trees_packed() {
            enc.push_run::<D>(&mut buf, t, keys);
        }
        enc.finish(&mut buf);
        buf
    }

    /// Rebuild a per-tree leaf map from bytes produced by
    /// [`Forest::serialize_local`] (possibly concatenated across ranks):
    /// each tree's keys are radix-sorted, since runs of one tree may
    /// arrive out of order, and decoded once at the API edge.
    pub fn deserialize_leaves(data: &[u8]) -> BTreeMap<TreeId, Vec<Octant<D>>> {
        let mut keyed: BTreeMap<TreeId, Vec<u128>> = BTreeMap::new();
        for_each_run::<D>(data, |t, keys| {
            keyed.entry(t).or_default().extend_from_slice(keys)
        });
        let mut sort = SortScratch::new();
        keyed
            .into_iter()
            .map(|(t, mut keys)| {
                sort_keys_with::<D>(&mut keys, &mut sort);
                let mut v = Vec::with_capacity(keys.len());
                unpack_batch(&keys, &mut v);
                (t, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestbal_octant::key;

    #[test]
    fn forest_serialization_roundtrip() {
        use crate::connectivity::BrickConnectivity;
        use forestbal_comm::{Cluster, Comm};
        use std::sync::Arc;
        let conn = Arc::new(BrickConnectivity::<2>::new([2, 1], [false; 2]));
        Cluster::run(3, |ctx| {
            let mut f = Forest::new_uniform(Arc::clone(&conn), ctx, 2);
            f.refine(true, 4, |t, o| t == 0 && o.coords[0] == 0);
            let bytes = f.serialize_local();
            // Run framing: 8 bytes per octant + 8 bytes per tree run.
            let runs = f.trees().count();
            assert_eq!(bytes.len(), f.num_local() * key_size::<2>() + 8 * runs);
            let back = Forest::<2>::deserialize_leaves(&bytes);
            for (t, v) in f.trees() {
                assert_eq!(back[&t], v.iter().collect::<Vec<_>>());
            }
            // Concatenation across ranks reproduces the gathered forest.
            let all = ctx.allgather(bytes);
            let mut concat = Vec::new();
            for part in all.iter() {
                concat.extend_from_slice(part);
            }
            let global = Forest::<2>::deserialize_leaves(&concat);
            assert_eq!(global, f.gather(ctx));
        });
    }

    #[test]
    fn bulk_key_codec_bit_identical_across_thread_counts() {
        // Above `PAR_KEYS_MIN` the bulk codec chunks across the pool;
        // the wire bytes and the decoded keys must not depend on the
        // pool width (including reused output buffers in steady state).
        use forestbal_par::Pool;
        use std::sync::Arc;
        let n = PAR_KEYS_MIN + 1234;
        let r = Octant::<3>::root();
        let keys: Vec<u128> = (0..n)
            .map(|i| key::pack(&r.child(i % 8).child((i / 8) % 8)))
            .collect();

        let serial = Arc::new(Pool::new(1));
        let (base_buf, base_out) = serial.install(|| {
            let mut buf = Vec::new();
            put_keys::<3>(&mut buf, &keys);
            let mut out = Vec::new();
            let mut pos = 0;
            get_keys::<3>(&buf, &mut pos, n, &mut out);
            assert_eq!(pos, buf.len());
            (buf, out)
        });
        assert_eq!(base_out, keys);

        for threads in [2, 3, 8] {
            let pool = Arc::new(Pool::new(threads));
            pool.install(|| {
                let mut buf = Vec::new();
                let mut out = Vec::new();
                for _ in 0..2 {
                    buf.clear();
                    put_keys::<3>(&mut buf, &keys);
                    assert_eq!(buf, base_buf, "{threads} threads: bytes diverged");
                    out.clear();
                    let mut pos = 0;
                    get_keys::<3>(&buf, &mut pos, n, &mut out);
                    assert_eq!(out, base_out, "{threads} threads: keys diverged");
                }
            });
        }
    }

    #[test]
    fn key_record_widths() {
        let o2 = Octant::<2>::root().child(1).child(2);
        let mut buf = Vec::new();
        put_key::<2>(&mut buf, key::pack(&o2));
        assert_eq!(buf.len(), key_size::<2>());
        assert_eq!(buf.len(), 8);
        let mut pos = 0;
        assert_eq!(get_key::<2>(&buf, &mut pos), key::pack(&o2));

        let o3 = Octant::<3>::root().child(5).child(2);
        let mut buf = Vec::new();
        put_key::<3>(&mut buf, key::pack(&o3));
        assert_eq!(buf.len(), key_size::<3>());
        assert_eq!(buf.len(), 16);
        let mut pos = 0;
        assert_eq!(get_key::<3>(&buf, &mut pos), key::pack(&o3));
    }

    #[test]
    fn negative_coords_roundtrip() {
        let o = Octant::<2>::root().child(0).neighbor(&[-1, -1]);
        let mut buf = Vec::new();
        put_key::<2>(&mut buf, key::pack(&o));
        let mut pos = 0;
        assert_eq!(key::unpack::<2>(get_key::<2>(&buf, &mut pos)), o);
    }

    #[test]
    fn run_encoder_merges_and_splits() {
        let r = Octant::<2>::root();
        let ks: Vec<u128> = (0..4).map(|i| key::pack(&r.child(i))).collect();
        let mut buf = Vec::new();
        let mut enc = RunEncoder::new();
        // Non-monotone tree sequence: 3, 3, 9, 3 — three runs.
        enc.push::<2>(&mut buf, 3, ks[0]);
        enc.push::<2>(&mut buf, 3, ks[1]);
        enc.push::<2>(&mut buf, 9, ks[2]);
        enc.push::<2>(&mut buf, 3, ks[3]);
        enc.finish(&mut buf);
        enc.finish(&mut buf); // idempotent
        assert_eq!(buf.len(), 3 * 8 + 4 * key_size::<2>());
        let mut seen = Vec::new();
        for_each_run::<2>(&buf, |t, keys| seen.push((t, keys.to_vec())));
        assert_eq!(
            seen,
            vec![(3, vec![ks[0], ks[1]]), (9, vec![ks[2]]), (3, vec![ks[3]]),]
        );
    }

    #[test]
    fn batch_put_get_roundtrip_3d() {
        let r = Octant::<3>::root();
        let keys: Vec<u128> = (0..8)
            .map(|i| key::pack(&r.child(i).child(7 - i)))
            .collect();
        let mut buf = Vec::new();
        put_u32(&mut buf, 42);
        put_keys::<3>(&mut buf, &keys);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos), 42);
        let mut out = Vec::new();
        get_keys::<3>(&buf, &mut pos, keys.len(), &mut out);
        assert_eq!(out, keys);
        assert_eq!(pos, buf.len());
    }
}

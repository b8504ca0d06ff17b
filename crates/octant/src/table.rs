//! Flat open-addressing octant membership table over packed Morton keys.
//!
//! [`OctantTable`] is the membership set of the balance kernels (in
//! place of a `HashSet<Octant<D>>`, which the tests keep as their
//! oracle). It stores one packed key per slot in a
//! power-of-two `Vec<u128>`, probes linearly from a hashed home slot, and
//! never stores the 16-byte octant struct at all — membership is a compare
//! of integers in a cache-friendly flat array, with no buckets and no
//! per-entry allocation.
//!
//! The stored and hashed value is the Morton key itself ([`crate::key`]),
//! the representation the kernels already hold, so [`OctantTable::insert_key`]
//! and [`OctantTable::contains_key`] encode nothing. The struct
//! [`OctantTable::insert`] / [`OctantTable::contains`] pack first.
//!
//! Pre-size with [`OctantTable::with_capacity_for`] (or
//! [`OctantTable::reset_for`], which also reuses the allocation across
//! kernel invocations): the kernels know an upper bound on insertions from
//! `input.len()`, so in steady state the table never regrows —
//! [`OctantTable::grow_count`] stays zero, which the kernel tests assert.
//!
//! ## Probe locality
//!
//! Probes walk a side array of one-byte *tags* (a 7-bit hash fragment,
//! high bit set; `0` marks an empty slot) and only touch the 16-byte key
//! slot on a tag match. At 16 slots per cache line the tag array of even
//! a large table stays cache-resident, so a miss chain costs byte reads
//! instead of full-width slot loads — the same reasoning as SwissTable's
//! control bytes, minus the SIMD group scan. Tag collisions merely cost
//! one extra slot compare (rate ≈ 1/128 per probe step). The probe
//! *sequence* is tag-independent, so the probe/lookup counters are
//! identical to the plain-slot implementation's.

use std::cell::Cell;

use crate::key;
use crate::octant::Octant;

/// Fill value for unwritten key slots. Occupancy is tracked by the tag
/// array alone; this sentinel (never a valid key: packed keys use at most
/// 113 bits) only keeps uninitialized slots visibly invalid in a debugger.
const EMPTY: u128 = u128::MAX;

/// Maximum load factor of 1/2: capacity is at least twice the expected
/// insertion count, keeping linear-probe chains short.
const LOAD_NUM: usize = 2;

const MIN_CAP: usize = 16;

/// An insert-and-query set of octants backed by a flat array of packed
/// integer keys with linear probing.
///
/// Supports the operations the balance kernels need — `insert`,
/// `contains`, iteration, `clear` — plus probe/grow counters for the
/// `forestbal-trace` instrumentation. Unlike `HashSet` it does not support
/// removal (the kernels never remove).
pub struct OctantTable<const D: usize> {
    slots: Vec<u128>,
    /// One tag byte per slot: `0` = empty, else `0x80 | top7(hash)`.
    /// Probes scan this array and touch `slots` only on a tag match.
    tags: Vec<u8>,
    mask: usize,
    len: usize,
    grows: u64,
    // Probe statistics cover reads too; `contains` takes `&self`, so the
    // counters live in `Cell`s (the table is per-rank, never shared).
    probes: Cell<u64>,
    lookups: Cell<u64>,
}

/// Tag of an occupied slot: the hash's top seven bits with the high bit
/// forced on, so no occupied tag collides with the empty marker `0`.
#[inline]
fn tag_of(h: u64) -> u8 {
    0x80 | (h >> 57) as u8
}

impl<const D: usize> OctantTable<D> {
    /// New empty table with minimal capacity.
    pub fn new() -> Self {
        Self::with_capacity_for(0)
    }

    /// New table sized so `n` insertions trigger no regrowth.
    pub fn with_capacity_for(n: usize) -> Self {
        let cap = Self::capacity_for(n);
        OctantTable {
            slots: vec![EMPTY; cap],
            tags: vec![0; cap],
            mask: cap - 1,
            len: 0,
            grows: 0,
            probes: Cell::new(0),
            lookups: Cell::new(0),
        }
    }

    fn capacity_for(n: usize) -> usize {
        (n * LOAD_NUM).next_power_of_two().max(MIN_CAP)
    }

    /// Clear the table and size it for `n` insertions without regrowth,
    /// keeping the existing allocation. The slot count is a function of
    /// `n` alone, never of what the allocation held before, so probe
    /// sequences — and with them the probe/grow counters — do not depend
    /// on the history of a reused table. Counters are cumulative across
    /// resets.
    pub fn reset_for(&mut self, n: usize) {
        let want = Self::capacity_for(n);
        // Only the tag array needs wiping: probes consult `slots` strictly
        // after a tag match, and a zero tag ends the chain.
        self.slots.resize(want, EMPTY);
        self.tags.clear();
        self.tags.resize(want, 0);
        self.mask = want - 1;
        self.len = 0;
    }

    /// Number of stored octants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Times the table regrew because an insert exceeded the load factor.
    /// Zero whenever the pre-sizing bound held.
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Total slots inspected across all lookups and inserts (a perfectly
    /// collision-free workload costs exactly one probe per operation).
    pub fn probe_count(&self) -> u64 {
        self.probes.get()
    }

    /// Total lookup/insert operations.
    pub fn lookup_count(&self) -> u64 {
        self.lookups.get()
    }

    /// Hash the folded key with an fmix64-style avalanche (two
    /// multiply/xor-shift rounds). Packed keys of a complete octree are
    /// highly structured — neighbors share almost every bit — and a single
    /// Fibonacci multiply leaves enough correlation in the masked bits to
    /// cluster linear probes; full avalanche keeps chains near the
    /// load-factor optimum. The top bits feed the tag byte, so the whole
    /// width must avalanche, not just the masked low bits.
    #[inline]
    fn hash(key: u128) -> u64 {
        let mut h = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h
    }

    /// Walk the probe sequence for `key`; returns the slot index holding
    /// the key, or the first empty slot. Only tag bytes are read until a
    /// tag matches; the sequence itself never depends on the tags, so the
    /// probe counter counts slots inspected exactly as a plain-slot walk
    /// would.
    #[inline]
    fn probe(&self, key: u128) -> usize {
        self.lookups.set(self.lookups.get() + 1);
        let h = Self::hash(key);
        let tag = tag_of(h);
        let mut i = h as usize & self.mask;
        let mut steps = 1u64;
        loop {
            let t = self.tags[i];
            if (t == tag && self.slots[i] == key) || t == 0 {
                self.probes.set(self.probes.get() + steps);
                return i;
            }
            i = (i + 1) & self.mask;
            steps += 1;
        }
    }

    /// Is the octant present?
    #[inline]
    pub fn contains(&self, o: &Octant<D>) -> bool {
        self.contains_key(key::pack(o))
    }

    /// Insert an octant; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, o: &Octant<D>) -> bool {
        self.insert_key(key::pack(o))
    }

    /// Is the octant with this packed key present?
    #[inline]
    pub fn contains_key(&self, key: u128) -> bool {
        self.tags[self.probe(key)] != 0
    }

    /// Insert the octant with this packed key; returns `true` if it was
    /// not already present.
    #[inline]
    pub fn insert_key(&mut self, key: u128) -> bool {
        let i = self.probe(key);
        if self.tags[i] != 0 {
            return false;
        }
        self.slots[i] = key;
        self.tags[i] = tag_of(Self::hash(key));
        self.len += 1;
        if self.len * LOAD_NUM > self.slots.len() {
            self.grow();
        }
        true
    }

    fn grow(&mut self) {
        self.grows += 1;
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; new_cap]);
        self.mask = new_cap - 1;
        for (key, t) in old.into_iter().zip(old_tags) {
            if t != 0 {
                let i = self.probe(key);
                self.slots[i] = key;
                self.tags[i] = t;
            }
        }
    }

    /// Iterate the packed keys of the stored octants in slot (arbitrary)
    /// order.
    pub fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.tags
            .iter()
            .zip(&self.slots)
            .filter(|(&t, _)| t != 0)
            .map(|(_, &k)| k)
    }
}

impl<const D: usize> Default for OctantTable<D> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    type Oct3 = Octant<3>;

    fn soup<const D: usize>(n: usize, seed: u64) -> Vec<Octant<D>> {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let depth = (rng() % 9) as u8;
                let mut o = Octant::<D>::root();
                for _ in 0..depth {
                    o = o.child(rng() as usize % Octant::<D>::NUM_CHILDREN);
                }
                o
            })
            .collect()
    }

    #[test]
    fn insert_contains_basic() {
        let mut t = OctantTable::<3>::new();
        let r = Oct3::root();
        assert!(!t.contains(&r));
        assert!(t.insert(&r));
        assert!(!t.insert(&r));
        assert!(t.contains(&r));
        assert_eq!(t.len(), 1);
        assert!(!t.contains(&r.child(0)));
    }

    #[test]
    fn matches_hash_set() {
        let octs = soup::<3>(2000, 31);
        let mut t = OctantTable::<3>::with_capacity_for(octs.len());
        let mut h = HashSet::<Octant<3>>::new();
        for o in &octs {
            assert_eq!(t.insert(o), h.insert(*o), "insert diverges on {o:?}");
        }
        assert_eq!(t.len(), h.len());
        for o in &octs {
            assert!(t.contains(o));
            // Probe some absent octants too.
            let miss = o.first_descendant((o.level + 1).min(crate::coords::MAX_LEVEL));
            assert_eq!(t.contains(&miss), h.contains(&miss));
        }
        let mut from_t: Vec<_> = t.keys().collect();
        let mut from_h: Vec<_> = h.iter().map(key::pack).collect();
        from_t.sort_unstable();
        from_h.sort_unstable();
        assert_eq!(from_t, from_h);
    }

    #[test]
    fn presized_table_never_grows() {
        let octs = soup::<3>(1000, 77);
        let mut t = OctantTable::<3>::with_capacity_for(octs.len());
        for o in &octs {
            t.insert(o);
        }
        assert_eq!(t.grow_count(), 0);
        assert!(t.probe_count() >= t.lookup_count());
    }

    #[test]
    fn undersized_table_grows_correctly() {
        let octs = soup::<2>(600, 5);
        let mut t = OctantTable::<2>::with_capacity_for(4);
        let mut h = HashSet::<Octant<2>>::new();
        for o in &octs {
            t.insert(o);
            h.insert(*o);
        }
        assert!(t.grow_count() > 0);
        assert_eq!(t.len(), h.len());
        for o in h.iter() {
            assert!(t.contains(o));
        }
    }

    #[test]
    fn reset_keeps_allocation_but_not_history() {
        let mut t = OctantTable::<3>::with_capacity_for(500);
        let cap = t.capacity();
        for o in soup::<3>(500, 13).iter() {
            t.insert(o);
        }
        t.reset_for(100);
        assert!(t.slots.capacity() >= cap, "reset shrank the allocation");
        // Slot count, hence every probe sequence, is that of a fresh table.
        assert_eq!(
            t.capacity(),
            OctantTable::<3>::with_capacity_for(100).capacity()
        );
        assert!(t.is_empty());
        let r = Oct3::root();
        assert!(!t.contains(&r));
        assert!(t.insert(&r));
    }

    #[test]
    fn key_and_struct_entry_points_agree() {
        let octs = soup::<2>(300, 3);
        let mut t = OctantTable::<2>::with_capacity_for(octs.len());
        let mut uniq = HashSet::<Octant<2>>::new();
        for (i, o) in octs.iter().enumerate() {
            let fresh = if i % 2 == 0 {
                t.insert(o)
            } else {
                t.insert_key(key::pack(o))
            };
            assert_eq!(fresh, uniq.insert(*o));
        }
        for o in &octs {
            assert!(t.contains(o) && t.contains_key(key::pack(o)));
            let n = o.neighbor(&[1, 0]);
            assert_eq!(t.contains_key(key::pack(&n)), uniq.contains(&n));
        }
        assert_eq!(t.keys().count(), uniq.len());
    }

    #[test]
    fn out_of_root_members() {
        let mut t = OctantTable::<2>::new();
        let o = Octant::<2>::root().child(0).neighbor(&[-1, -1]);
        assert!(t.insert(&o));
        assert!(t.contains(&o));
        assert!(!t.contains(&o.neighbor(&[1, 0])));
    }
}

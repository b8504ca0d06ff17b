//! Dilated integers: the word-parallel bit spread under every Morton
//! representation in this crate.
//!
//! Interleaving `D` coordinates is `D` *dilations* — each coordinate's bits
//! moved to stride `D` — shifted and OR-ed together; de-interleaving is the
//! inverse *contraction* of each bit plane. Both are a five-step
//! shift-and-mask ladder on one machine word instead of a loop over bits.
//! [`crate::morton::interleave`] (24-bit in-root coordinates) and
//! [`crate::key::pack`] (27-bit biased coordinates) are built on the same
//! ladders, so a unit-cell Morton index costs the same few nanoseconds
//! whether it is taken from an [`crate::Octant`] or from a packed key.
//! These ladders are the crate's only key codec: the batch codecs in
//! [`crate::packed`] run them once per octant.

/// Dilate the low 32 bits of `v` to even bit positions (stride 2).
#[inline]
pub(crate) fn dilate2(v: u64) -> u64 {
    let mut x = v & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`dilate2`]: gather every second bit into the low 32.
#[inline]
pub(crate) fn contract2(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x
}

/// Dilate the low 21 bits of `v` to every third bit position (stride 3).
#[inline]
pub(crate) fn dilate3(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF;
    x = (x | (x << 32)) & 0x1F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x1F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`dilate3`].
#[inline]
pub(crate) fn contract3(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x1F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x1F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x1F_FFFF;
    x
}

/// Dilate up to 42 bits to stride 3 as a `u128` (split 21 + 21): wide
/// enough for a 24-bit coordinate and for a 27-bit key field.
#[inline]
pub(crate) fn dilate3_wide(v: u64) -> u128 {
    dilate3(v) as u128 | (dilate3(v >> 21) as u128) << 63
}

/// Inverse of [`dilate3_wide`].
#[inline]
pub(crate) fn contract3_wide(v: u128) -> u64 {
    contract3(v as u64) | contract3((v >> 63) as u64) << 21
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_match_the_bit_loop() {
        // One set bit at a time, then all of them.
        for b in 0..32 {
            assert_eq!(dilate2(1 << b), 1 << (2 * b));
        }
        for b in 0..21 {
            assert_eq!(dilate3(1 << b), 1 << (3 * b));
        }
        for b in 0..42 {
            assert_eq!(dilate3_wide(1 << b), 1u128 << (3 * b));
        }
        assert_eq!(dilate2(u64::MAX), 0x5555_5555_5555_5555);
        assert_eq!(dilate3(u64::MAX), 0x1249_2492_4924_9249);
    }

    #[test]
    fn contract_inverts_dilate_and_ignores_foreign_planes() {
        for v in [0u64, 1, 0x1F_FFFF, 0x7FF_FFFF, 0x555_5555, 0x2AA_AAAA] {
            let (v2, v3, vw) = (v & 0xFFFF_FFFF, v & 0x1F_FFFF, v & 0x7FF_FFFF);
            assert_eq!(contract2(dilate2(v2)), v2);
            assert_eq!(contract3(dilate3(v3)), v3);
            assert_eq!(contract3_wide(dilate3_wide(vw)), vw);
            // Bits of the other axes' planes do not leak in.
            assert_eq!(contract2(dilate2(v2) | 0xAAAA_AAAA_AAAA_AAAA), v2);
            assert_eq!(contract3(dilate3(v3) | !0x1249_2492_4924_9249), v3);
        }
    }
}

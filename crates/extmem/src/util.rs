//! Small numeric and hashing utilities shared across the workspace.
//!
//! The randomized constructions (the bucket sort's bin assignment, the
//! ORAM's hash tables, fault injection) and the test inputs need seeded
//! randomness. A standard 64-bit finalizer-style mixer (`splitmix64`) is
//! implemented in-crate rather than pulled in as a dependency; its avalanche
//! behaviour is more than adequate for the simulator-scale experiments here.

/// The `splitmix64` mixing function: a bijective 64-bit finalizer with good
/// avalanche properties, used as the basis of all in-crate hashing.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes `x` with a salt, producing a pseudo-random 64-bit value.
#[inline]
pub fn hash64(x: u64, salt: u64) -> u64 {
    splitmix64(x ^ splitmix64(salt))
}

/// Maps a 64-bit hash to a bucket in `[0, n)` using the widening-multiply
/// trick (unbiased enough for our purposes and much faster than `%`).
#[inline]
pub fn bucket_of(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (((hash as u128) * (n as u128)) >> 64) as usize
}

/// Integer `⌊log2⌋`, with `ilog2_floor(0) = 0`.
#[inline]
pub fn ilog2_floor(x: usize) -> u32 {
    if x == 0 {
        0
    } else {
        usize::BITS - 1 - x.leading_zeros()
    }
}

/// The smallest power of two `≥ x` (and `1` for `x = 0`).
#[inline]
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // A couple of reference values computed from the canonical algorithm.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn hash64_depends_on_salt() {
        assert_ne!(hash64(7, 1), hash64(7, 2));
        assert_eq!(hash64(7, 1), hash64(7, 1));
    }

    #[test]
    fn bucket_of_stays_in_range_and_spreads() {
        let n = 13;
        let mut seen = vec![false; n];
        for i in 0..1000u64 {
            let b = bucket_of(hash64(i, 42), n);
            assert!(b < n);
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn ilog2_variants() {
        assert_eq!(ilog2_floor(1), 0);
        assert_eq!(ilog2_floor(3), 1);
        assert_eq!(ilog2_floor(1024), 10);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1025), 2048);
    }
}

//! Batcher's bitonic sorter.
//!
//! The bitonic sorter is the second classic `O(n log² n)` sorting network.
//! Its recursive structure — sort the two halves in opposite directions, then
//! run a sequence of fixed-stride compare-exchange passes — is exactly what
//! the external-memory deterministic sort in [`crate::external_sort`]
//! exploits: every pass touches blocks in a fixed, data-independent order,
//! and sub-problems that fit in the private cache can be finished there for
//! free (as far as the adversary is concerned).
//!
//! The in-memory functions here require power-of-two lengths; callers pad
//! with sentinels, as the external sort does with dummies.

use crate::compare::compare_exchange_dir_by;
use std::cmp::Ordering;

/// Sorts a power-of-two-length slice ascending.
///
/// # Panics
/// Panics if `v.len()` is not a power of two (pad with sentinels first).
pub fn bitonic_sort_pow2<T: Ord>(v: &mut [T]) {
    bitonic_sort_pow2_by(v, true, &|a: &T, b: &T| a.cmp(b));
}

/// Sorts a power-of-two-length slice in the given direction with a custom
/// comparison.
pub fn bitonic_sort_pow2_by<T, F>(v: &mut [T], ascending: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    assert!(
        n.is_power_of_two() || n == 0,
        "bitonic_sort_pow2 requires a power-of-two length"
    );
    if n > 1 {
        sort_rec(v, 0, n, ascending, cmp);
    }
}

/// Merges a bitonic power-of-two-length slice into sorted order in the given
/// direction.
///
/// A slice is *bitonic* when it is an ascending run followed by a descending
/// run (or a rotation thereof); in particular the concatenation of an
/// ascending and a descending sorted half is bitonic. This is the
/// `O(n log n)`-comparator tail of the bitonic sorter, exposed on its own
/// because it is exactly what the external-memory sort's **in-cache
/// finishing** runs once a merge sub-problem fits in the private cache: all
/// remaining compare-exchange levels of the region, executed CPU-side.
///
/// # Panics
/// Panics if `v.len()` is not a power of two.
pub fn bitonic_merge_pow2_by<T, F>(v: &mut [T], ascending: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    assert!(
        n.is_power_of_two() || n == 0,
        "bitonic_merge_pow2 requires a power-of-two length"
    );
    if n > 1 {
        merge_rec(v, 0, n, ascending, cmp);
    }
}

fn sort_rec<T, F>(v: &mut [T], lo: usize, n: usize, asc: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    if n <= 1 {
        return;
    }
    let half = n / 2;
    sort_rec(v, lo, half, true, cmp);
    sort_rec(v, lo + half, half, false, cmp);
    merge_rec(v, lo, n, asc, cmp);
}

/// Merges a bitonic range `v[lo..lo+n]` into `asc` order.
fn merge_rec<T, F>(v: &mut [T], lo: usize, n: usize, asc: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    if n <= 1 {
        return;
    }
    let half = n / 2;
    for i in lo..lo + half {
        compare_exchange_dir_by(v, i, i + half, asc, cmp);
    }
    merge_rec(v, lo, half, asc, cmp);
    merge_rec(v, lo + half, half, asc, cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_power_of_two_inputs() {
        let mut v = vec![7u32, 3, 9, 1, 0, 12, 5, 5];
        bitonic_sort_pow2(&mut v);
        assert_eq!(v, vec![0, 1, 3, 5, 5, 7, 9, 12]);
    }

    #[test]
    fn sorts_descending_when_asked() {
        let mut v = vec![4u32, 1, 3, 2];
        bitonic_sort_pow2_by(&mut v, false, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(v, vec![4, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_lengths() {
        let mut v = vec![3u32, 1, 2];
        bitonic_sort_pow2(&mut v);
    }

    #[test]
    fn random_inputs_match_std_sort() {
        let mut x: u64 = 12345;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for exp in [4usize, 6, 8] {
            let n = 1 << exp;
            let mut v: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            bitonic_sort_pow2(&mut v);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn empty_and_single_element_are_fine() {
        let mut v: Vec<u32> = vec![];
        bitonic_sort_pow2(&mut v);
        let mut w = vec![9u32];
        bitonic_sort_pow2(&mut w);
        assert_eq!(w, vec![9]);
    }

    #[test]
    fn merge_finishes_a_bitonic_sequence() {
        // Ascending half followed by descending half is bitonic.
        let mut v = vec![1u32, 4, 6, 9, 8, 5, 3, 0];
        bitonic_merge_pow2_by(&mut v, true, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(v, vec![0, 1, 3, 4, 5, 6, 8, 9]);
        let mut w = vec![1u32, 4, 6, 9, 8, 5, 3, 0];
        bitonic_merge_pow2_by(&mut w, false, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(w, vec![9, 8, 6, 5, 4, 3, 1, 0]);
    }

    #[test]
    fn network_passes_zero_one_principle_exhaustively() {
        // Zero-one principle: a comparator network sorts all inputs iff it
        // sorts all 0/1 inputs. The in-place sorter executes the bitonic
        // network; checked exhaustively at every width up to 16.
        for n in [1usize, 2, 4, 8, 16] {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                bitonic_sort_pow2(&mut v);
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n={n} mask {mask:b}");
            }
        }
    }

    #[test]
    fn sorts_all_zero_one_inputs_width_8() {
        // The descending merge halves route their maximum to the lower wire;
        // checked through the comparator form in both directions.
        let n = 8;
        for mask in 0u32..(1 << n) {
            let v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
            let mut asc = v.clone();
            bitonic_sort_pow2_by(&mut asc, true, &|a: &u8, b: &u8| a.cmp(b));
            assert!(asc.windows(2).all(|w| w[0] <= w[1]), "failed mask {mask:b}");
            let mut desc = v;
            bitonic_sort_pow2_by(&mut desc, false, &|a: &u8, b: &u8| a.cmp(b));
            assert!(
                desc.windows(2).all(|w| w[0] >= w[1]),
                "failed mask {mask:b}"
            );
        }
    }
}

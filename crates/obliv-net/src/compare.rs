//! Compare-exchange primitives.
//!
//! A *compare-exchange* on positions `(i, j)` reads both cells, writes the
//! smaller to `i` and the larger to `j` (for an ascending comparator). The
//! positions touched never depend on the data — only the (hidden) contents of
//! the two cells do — which is why circuits built from compare-exchange
//! operations are data-oblivious by construction.
//!
//! The helpers here are generic over the comparison so callers can sort by
//! key, by original index (for order-preserving compaction) or with dummies
//! forced to one end.

use std::cmp::Ordering;

/// Compare-exchange `v[i]` and `v[j]` so that afterwards
/// `cmp(&v[i], &v[j]) != Greater` (ascending comparator).
#[inline]
pub fn compare_exchange_by<T, F>(v: &mut [T], i: usize, j: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    debug_assert!(i < j, "comparators must be oriented low-to-high");
    if cmp(&v[i], &v[j]) == Ordering::Greater {
        v.swap(i, j);
    }
}

/// Descending compare-exchange (larger element ends up at the lower index).
#[inline]
pub fn compare_exchange_desc_by<T, F>(v: &mut [T], i: usize, j: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    debug_assert!(i < j);
    if cmp(&v[i], &v[j]) == Ordering::Less {
        v.swap(i, j);
    }
}

/// Directional compare-exchange used by bitonic networks.
#[inline]
pub fn compare_exchange_dir_by<T, F>(v: &mut [T], i: usize, j: usize, ascending: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    if ascending {
        compare_exchange_by(v, i, j, cmp);
    } else {
        compare_exchange_desc_by(v, i, j, cmp);
    }
}

/// Orders an owned pair for a directional comparator: returns the values in
/// the order they belong at `(lower index, higher index)` — minimum first
/// when `ascending`, maximum first otherwise.
///
/// This is the by-value form of the compare-exchange used by the external
/// sorters, which read cells out of blocks or caches and write both back
/// unconditionally (so the server-visible access pattern never depends on
/// whether the pair swapped).
#[inline]
pub fn exchange_dir_by<T, F>(u: T, v: T, ascending: bool, cmp: &F) -> (T, T)
where
    F: Fn(&T, &T) -> Ordering,
{
    let swap = cmp(&u, &v) == Ordering::Greater;
    let (small, large) = if swap { (v, u) } else { (u, v) };
    if ascending {
        (small, large)
    } else {
        (large, small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_comparator_orders_pair() {
        let cmp = |a: &i32, b: &i32| a.cmp(b);
        let mut v = vec![5, 1];
        compare_exchange_by(&mut v, 0, 1, &cmp);
        assert_eq!(v, vec![1, 5]);
        compare_exchange_by(&mut v, 0, 1, &cmp);
        assert_eq!(v, vec![1, 5], "already ordered pair is untouched");
    }

    #[test]
    fn descending_comparator_orders_pair() {
        let mut v = vec![1, 5];
        compare_exchange_desc_by(&mut v, 0, 1, &|a: &i32, b: &i32| a.cmp(b));
        assert_eq!(v, vec![5, 1]);
    }

    #[test]
    fn directional_comparator_respects_flag() {
        let mut v = vec![3, 7];
        compare_exchange_dir_by(&mut v, 0, 1, false, &|a: &i32, b: &i32| a.cmp(b));
        assert_eq!(v, vec![7, 3]);
        compare_exchange_dir_by(&mut v, 0, 1, true, &|a: &i32, b: &i32| a.cmp(b));
        assert_eq!(v, vec![3, 7]);
    }

    #[test]
    fn custom_comparison_is_honoured() {
        // Sort by absolute value.
        let mut v = vec![-9, 2];
        compare_exchange_by(&mut v, 0, 1, &|a: &i32, b: &i32| a.abs().cmp(&b.abs()));
        assert_eq!(v, vec![2, -9]);
    }
}

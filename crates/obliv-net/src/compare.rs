//! The compare-exchange primitive of the external sorters.
//!
//! A *compare-exchange* on positions `(i, j)` reads both cells and writes the
//! smaller to `i` and the larger to `j` (for an ascending comparator). The
//! positions touched never depend on the data — only the (hidden) contents of
//! the two cells do — which is why a fixed schedule of compare-exchanges is
//! data-oblivious by construction. The Lemma 2 sort's external levels and
//! the naive baseline in the `baseline` crate both run one.
//!
//! The comparison is generic so callers can sort by key, by original index
//! or with dummies forced to one end.

use std::cmp::Ordering;

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
        assert_eq!(exchange_dir_by(5, 1, true, &cmp), (1, 5));
        assert_eq!(
            exchange_dir_by(1, 5, true, &cmp),
            (1, 5),
            "already ordered pair is untouched"
        );
    }

    #[test]
    fn descending_comparator_orders_pair() {
        let cmp = |a: &i32, b: &i32| a.cmp(b);
        assert_eq!(exchange_dir_by(1, 5, false, &cmp), (5, 1));
        assert_eq!(exchange_dir_by(5, 1, false, &cmp), (5, 1));
    }

    #[test]
    fn directional_comparator_respects_flag() {
        let cmp = |a: &i32, b: &i32| a.cmp(b);
        let (u, v) = exchange_dir_by(3, 7, false, &cmp);
        assert_eq!((u, v), (7, 3));
        assert_eq!(exchange_dir_by(u, v, true, &cmp), (3, 7));
    }

    #[test]
    fn custom_comparison_is_honoured() {
        // Sort by absolute value.
        let by_abs = |a: &i32, b: &i32| a.abs().cmp(&b.abs());
        assert_eq!(exchange_dir_by(-9, 2, true, &by_abs), (2, -9));
        assert_eq!(exchange_dir_by(2, -9, false, &by_abs), (-9, 2));
    }
}

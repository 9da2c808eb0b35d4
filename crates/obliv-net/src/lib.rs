//! # odo-obliv-net — data-oblivious sorting and routing networks
//!
//! Deterministic data-oblivious building blocks used throughout the
//! workspace:
//!
//! * [`compare`] — the by-value compare-exchange [`exchange_dir_by`], the
//!   only data-dependent step of a fixed compare-exchange schedule (and it
//!   runs with a fixed access pattern); the Lemma 2 sort's external levels
//!   and the naive baseline share it.
//! * [`butterfly`] — the butterfly-like routing network of the paper's
//!   Section 3 (Figure 1), in its in-memory circuit form.
//! * [`external_sort`] — the paper's **Lemma 2** substitute: a deterministic
//!   data-oblivious external-memory sort costing
//!   `O((N/B)(1 + log²(N/M)))` I/Os: its external levels are a fixed bitonic
//!   stride schedule of block-pair compare-exchanges, and every sub-problem that fits the private
//!   cache is finished there with a plain sort, which the server never
//!   sees.
//! * [`bucket_sort`] — the randomized *Bucket Oblivious Sort* route: butterfly
//!   routing of `Z`-capacity buckets via the 2-way [`merge_split`] primitive
//!   plus an `M/B`-way run merge, costing `O((N/B)·log_{M/B}(N/B))` I/Os —
//!   beating the Lemma 2 squared log whenever `N ≫ M`.
//!
//! Everything except [`bucket_sort`] is deterministic: on any two inputs of
//! the same size the butterfly circuit touches the same element positions
//! and the external sort the same sequence of block addresses. The bucket
//! sort's trace is a deterministic function of `(shape, seed, data)`; see its
//! module docs for the random-shuffle obliviousness argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket_sort;
pub mod butterfly;
pub mod compare;
pub mod external_sort;

pub use bucket_sort::{
    bucket_oblivious_sort_by, merge_split, BucketSortConfig, BucketSortError, BucketSortReport,
    MergeSplitOverflow,
};
pub use compare::exchange_dir_by;
pub use external_sort::{try_external_oblivious_sort_by, SortOrder, SortReport};

/// Announces the strictly sequential block-read schedule `[lo, hi)` of
/// array `h` in one [`hint_blocks`](extmem::BlockStore::hint_blocks) call,
/// so a prefetching store coalesces the whole range into span reads. The
/// sort passes build richer stride-shaped schedules by hand; the purely
/// sequential consumers above this crate — selection's streaming passes and
/// the ORAM rebuild pipeline's collect, suppress, keep and copy passes —
/// share this helper instead of each re-rolling the same vector. A forward
/// sweep's schedule is fixed by the array's shape alone, so announcing it
/// leaks nothing.
pub fn hint_block_range<S: extmem::BlockStore>(
    store: &mut S,
    h: &extmem::ArrayHandle,
    lo: usize,
    hi: usize,
) {
    if hi > lo {
        let schedule: Vec<usize> = (lo..hi).collect();
        store.hint_blocks(h, &schedule);
    }
}

/// Zero-one checks of the bitonic network that [`external_sort`] runs. Its
/// external levels are a fixed bitonic stride schedule of block-pair
/// compare-exchanges and its in-cache steps sort aligned regions, all
/// monotone operations, so by the zero-one principle the sort is correct at
/// a shape iff it sorts every 0/1 input of that shape.
#[cfg(test)]
mod bitonic {
    mod tests {
        use crate::{try_external_oblivious_sort_by, SortOrder};
        use extmem::element::Cell;
        use extmem::{Element, ExtMem};
        use std::cmp::Ordering;

        /// Orders cells by key alone in direction `order`, dummies last:
        /// ties among equal keys are left to the sort.
        fn key_only(order: SortOrder) -> impl Fn(&Cell, &Cell) -> Ordering {
            move |x, y| match (x, y) {
                (Some(a), Some(b)) if order == SortOrder::Ascending => a.key.cmp(&b.key),
                (Some(a), Some(b)) => b.key.cmp(&a.key),
                (x, y) => x.is_none().cmp(&y.is_none()),
            }
        }

        /// Sorts every 0/1 key vector of length `n` at `B = 2, M = 4` (so
        /// the in-cache region is `F = 4`) in both orders under a key-only
        /// comparator. Payloads are distinct, so the output must be a
        /// permutation of the input; the report must show `external_levels`
        /// and, for a length that is not a power of two, the padded path.
        fn sorts_every_zero_one_input(n: usize, external_levels: usize) {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let cmp = key_only(order);
                for mask in 0u32..1 << n {
                    let mut mem = ExtMem::new(2);
                    let cells: Vec<Cell> = (0..n)
                        .map(|i| Some(Element::keyed(u64::from((mask >> i) & 1), i)))
                        .collect();
                    let h = mem.alloc_array_from_cells(&cells);
                    let report = try_external_oblivious_sort_by(&mut mem, &h, 4, &cmp).unwrap();
                    let got = mem.snapshot_cells(&h);
                    assert!(
                        got.is_sorted_by(|x, y| cmp(x, y) != Ordering::Greater),
                        "N={n} {order:?} mask {mask:b}"
                    );
                    let (mut got, mut want) = (got, cells);
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "N={n} {order:?} mask {mask:b}");
                    assert_eq!(
                        (report.region_elems, report.external_levels, report.padded),
                        (4, external_levels, !n.is_power_of_two())
                    );
                }
            }
        }

        #[test]
        fn network_passes_zero_one_principle_exhaustively() {
            // Length 16 runs three external levels (strides 4, 8, 4) between
            // the in-cache presort and finishing passes; length 12 pads to 16
            // and also takes the scratch path.
            sorts_every_zero_one_input(16, 3);
            sorts_every_zero_one_input(12, 3);
        }

        #[test]
        fn sorts_all_zero_one_inputs_width_8() {
            // Two oppositely presorted regions, one external level (stride
            // 4) and the finishing pass.
            sorts_every_zero_one_input(8, 1);
        }
    }
}

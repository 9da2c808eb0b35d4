//! # odo-obliv-net — data-oblivious sorting and routing networks
//!
//! Deterministic data-oblivious building blocks used throughout the
//! workspace:
//!
//! * [`compare`] — compare-exchange primitives, the only data-dependent
//!   operation a sorting network performs (and it performs it with a fixed
//!   access pattern).
//! * [`bitonic`] — Batcher's bitonic sorter for power-of-two slices; its
//!   stride structure is what the external-memory sort exploits, and it
//!   finishes the Lemma 2 sort's in-cache sub-problems.
//! * [`butterfly`] — the butterfly-like routing network of the paper's
//!   Section 3 (Figure 1), in its in-memory circuit form, plus an ASCII
//!   renderer that regenerates Figure 1.
//! * [`external_sort`] — the paper's **Lemma 2** substitute: a deterministic
//!   data-oblivious external-memory sort costing
//!   `O((N/B)(1 + log²(N/M)))` I/Os, implemented as an external bitonic sort
//!   whose small sub-problems are finished inside the private cache.
//! * [`bucket_sort`] — the randomized *Bucket Oblivious Sort* route: butterfly
//!   routing of `Z`-capacity buckets via the 2-way [`merge_split`] primitive
//!   plus an `M/B`-way run merge, costing `O((N/B)·log_{M/B}(N/B))` I/Os —
//!   beating the Lemma 2 squared log whenever `N ≫ M`.
//!
//! Everything except [`bucket_sort`] is deterministic: on any two inputs of
//! the same size the sequence of element positions touched — and for the
//! external sort, the sequence of block addresses — is identical. The bucket
//! sort's trace is a deterministic function of `(shape, seed, data)`; see its
//! module docs for the random-shuffle obliviousness argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
pub mod bucket_sort;
pub mod butterfly;
pub mod compare;
pub mod external_sort;

pub use bitonic::{bitonic_merge_pow2_by, bitonic_sort_pow2};
pub use bucket_sort::{
    bucket_oblivious_sort_by, merge_split, BucketSortConfig, BucketSortError, BucketSortReport,
    MergeSplitOverflow,
};
pub use external_sort::{try_external_oblivious_sort_by, SortOrder, SortReport};

/// Announces the strictly sequential block-read schedule `[lo, hi)` of
/// array `h` in one [`hint_blocks`](extmem::BlockStore::hint_blocks) call,
/// so a prefetching store coalesces the whole range into span reads. The
/// sort passes build richer stride-shaped schedules by hand; the purely
/// sequential consumers — the ORAM rebuild pipeline's collect, suppress,
/// keep and copy passes above this crate, and any future streaming pass —
/// share this helper instead of each re-rolling the same vector.
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

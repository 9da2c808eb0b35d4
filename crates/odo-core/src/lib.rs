//! # odo-core — the workspace's algorithm façade
//!
//! Re-exports the public API of the data-oblivious external-memory workspace
//! in one place, so downstream users (the root `odo` crate, the examples,
//! the benchmark harness) depend on a single crate:
//!
//! * [`extmem`] — the machine model: [`ExtMem`], blocks, I/O
//!   accounting, access traces and the obliviousness test utilities.
//! * [`obliv_net`] — the sorting and routing networks, headlined by
//!   [`obliv_net::try_external_oblivious_sort_by`], the paper's Lemma 2
//!   deterministic external oblivious sort.
//! * [`compact`] — the paper's §3 tight order-preserving compaction (and its
//!   reverse, expansion) executed I/O-efficiently over any [`BlockStore`]:
//!   the butterfly levels run as a head-window sweep plus cache-sized
//!   column sweeps that fuse `log₂(W/B)` external levels each. No label
//!   array exists: every sweep recomputes each item's rank from per-row
//!   counts, so `S` sweeps cost `2·S·⌈N/B⌉` I/Os —
//!   `O((N/B)(1 + log_{M/B}(N/M)))`.
//! * [`select`] — the paper's §4 data-oblivious selection and quantiles:
//!   [`select::try_select_kth`] brackets the target between weighted splitters
//!   and keeps the candidates between them in the private cache — two
//!   streaming passes around one small sample array while `N` is below about
//!   `M²/32`, §3 compaction rounds to shrink the window first beyond that —
//!   in `O((N/B)(1 + log_{M/B}(N/M)))` I/Os whose trace hides the data
//!   *and* the rank.
//! * [`sorter`] — the [`OblivSorter`] strategy layer and the one sort
//!   entry point, [`OblivSorter::try_sort`]: a sort (and the ORAM rebuild's
//!   sorts) can swap the deterministic Lemma 2 engine (the default) for the
//!   randomized bucket oblivious sort ([`obliv_net::bucket_sort`]), trading
//!   the squared log for `O((N/B)·log_{M/B}(N/B))` I/Os once `N ≫ M`.
//!
//! With selection landed, the three headline primitives of the paper's title
//! — compaction, selection, and sorting — all run end to end over plaintext
//! and re-encrypting outsourced stores.
//!
//! The server is *untrusted*, not merely curious, so every primitive has one
//! entry point, and it is fallible: [`OblivSorter::try_sort`],
//! [`compact::try_compact`], [`compact::try_expand`],
//! [`select::try_select_kth`] and [`select::try_quantiles`] retry transient
//! faults per an [`extmem::RetryPolicy`] and return a typed [`OdoError`] —
//! over an [`extmem::AuthenticatedStore`], corruption and rollback surface as
//! `Err(Corrupted | Stale)`, never as silently wrong output, and bad
//! arguments as `Err(InvalidArgument)`, never as a panic. Every pass calls
//! only the fallible block ops and returns the first error with `?`. See the
//! repo-root `DESIGN.md` for the fault model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use extmem;
pub use obliv_net;

pub mod compact;
pub mod error;
pub mod select;
pub mod sorter;

pub use compact::{try_compact, try_expand, CompactReport};
pub use error::OdoError;
pub use extmem::{
    AccessEvent, AccessOp, AccessTrace, ArenaStats, ArrayHandle, AuthClientState,
    AuthenticatedStore, BackingStore, Block, BlockArena, BlockCache, BlockStore, CacheBudget, Cell,
    Element, EncryptedStore, ExtMem, FaultKind, FaultSpec, FaultStats, FaultyStore, FileStore,
    InjectedCrash, IoStats, PrefetchConfig, PrefetchStats, PrefetchingStore, RetryPolicy,
    RetryStats, StoreError,
};
pub use obliv_net::{BucketSortConfig, BucketSortError, BucketSortReport, SortOrder, SortReport};
pub use select::{try_quantiles, try_select_kth, SelectReport};
pub use sorter::{OblivSorter, SorterReport};

/// Everything a typical caller needs, importable with one `use`.
pub mod prelude {
    pub use crate::compact::{try_compact, try_expand, CompactReport};
    pub use crate::error::OdoError;
    pub use crate::select::{try_quantiles, try_select_kth, SelectReport};
    pub use crate::sorter::{OblivSorter, SorterReport};
    pub use extmem::{
        AuthenticatedStore, BlockStore, Cell, Element, EncryptedStore, ExtMem, FaultSpec,
        FaultyStore, FileStore, IoStats, PrefetchingStore, RetryPolicy, RetryStats, StoreError,
    };
    pub use obliv_net::{BucketSortConfig, SortOrder};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use extmem::element::cell_cmp_none_last_desc;
    use extmem::RetryingStore;

    fn reversed(n: usize) -> Vec<Element> {
        (0..n)
            .map(|i| Element::keyed((n - 1 - i) as u64, i))
            .collect()
    }

    #[test]
    fn try_sort_sorts_in_either_order_and_reports_io() {
        // 200 is not a power of two: the sort pads through a scratch array.
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut mem = ExtMem::new(8);
            let h = mem.alloc_array_from_elements(&reversed(200));
            let (report, retry) = OblivSorter::default()
                .try_sort(&mut mem, &h, 64, order, RetryPolicy::default())
                .unwrap();
            let got = mem.snapshot_elements(&h);
            let mut want = reversed(200);
            want.sort_unstable();
            if order == SortOrder::Descending {
                want.reverse();
            }
            assert_eq!(got, want, "{order:?}");
            assert_eq!(report.io, mem.stats());
            assert_eq!(retry.retries, 0);
        }
    }

    #[test]
    fn default_sorter_issues_exactly_the_lemma_2_sort() {
        // The default façade adds no I/O to the Lemma 2 engine it wraps.
        let mut direct = ExtMem::new(8);
        let h = direct.alloc_array_from_elements(&reversed(200));
        direct.enable_trace();
        let mut rs = RetryingStore::new(&mut direct, RetryPolicy::default());
        let engine =
            obliv_net::try_external_oblivious_sort_by(&mut rs, &h, 64, &cell_cmp_none_last_desc)
                .unwrap();

        let mut mem = ExtMem::new(8);
        let g = mem.alloc_array_from_elements(&reversed(200));
        mem.enable_trace();
        let (report, _) = OblivSorter::default()
            .try_sort(
                &mut mem,
                &g,
                64,
                SortOrder::Descending,
                RetryPolicy::default(),
            )
            .unwrap();

        assert_eq!(report.io, engine.io);
        assert_eq!(mem.snapshot_elements(&g), direct.snapshot_elements(&h));
        assert!(mem.trace().is_some_and(|t| !t.is_empty()));
        assert_eq!(mem.trace(), direct.trace());
    }
}

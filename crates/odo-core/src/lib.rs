//! # odo-core — the workspace's algorithm façade
//!
//! Re-exports the public API of the data-oblivious external-memory workspace
//! in one place, so downstream users (the root `odo` crate, the examples,
//! the benchmark harness) depend on a single crate:
//!
//! * [`extmem`] — the machine model: [`ExtMem`], [`Config`], blocks, I/O
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
//!   streaming passes and one small sample sort while `N` is below about
//!   `M²/32`, §3 compaction rounds to shrink the window first beyond that —
//!   in `O((N/B)(1 + log_{M/B}(N/M)))` I/Os whose trace hides the data
//!   *and* the rank.
//! * [`sorter`] — the [`OblivSorter`] strategy layer: a sort (and the ORAM
//!   rebuild's sorts) can swap the deterministic Lemma 2 engine for the
//!   randomized bucket oblivious sort ([`obliv_net::bucket_sort`]), trading
//!   the squared log for `O((N/B)·log_{M/B}(N/B))` I/Os once `N ≫ M`.
//!
//! With selection landed, the three headline primitives of the paper's title
//! — compaction, selection, and sorting — all run end to end over plaintext
//! and re-encrypting outsourced stores.
//!
//! The server is *untrusted*, not merely curious, so every primitive has one
//! entry point, and it is fallible: [`try_sort`], [`OblivSorter::try_sort`],
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

use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};

pub use compact::{try_compact, try_expand, CompactReport};
pub use error::OdoError;
pub use extmem::{
    AccessEvent, AccessOp, AccessTrace, ArenaStats, ArrayHandle, AuthClientState,
    AuthenticatedStore, BackingStore, Block, BlockArena, BlockCache, BlockStore, CacheBudget, Cell,
    Config, ConfigError, Element, EncryptedStore, ExtMem, FaultKind, FaultSpec, FaultStats,
    FaultyStore, FileStore, InjectedCrash, IoStats, PrefetchConfig, PrefetchStats,
    PrefetchingStore, RetryPolicy, RetryStats, StoreError,
};
pub use obliv_net::{
    bitonic_sort_pow2, bucket_oblivious_sort, BucketSortConfig, BucketSortError, BucketSortReport,
    Comparator, Network, SortOrder, SortReport,
};
pub use select::{try_quantiles, try_select_kth, SelectReport};
pub use sorter::{OblivSorter, SortEngine, SorterReport};

/// Everything a typical caller needs, importable with one `use`.
pub mod prelude {
    pub use crate::compact::{try_compact, try_expand, CompactReport};
    pub use crate::error::OdoError;
    pub use crate::select::{try_quantiles, try_select_kth, SelectReport};
    pub use crate::sorter::{OblivSorter, SortEngine, SorterReport};
    pub use crate::try_sort;
    pub use extmem::{
        AuthenticatedStore, BlockStore, Cell, Config, Element, EncryptedStore, ExtMem, FaultSpec,
        FaultyStore, FileStore, IoStats, PrefetchingStore, RetryPolicy, RetryStats, StoreError,
    };
    pub use obliv_net::BucketSortConfig;
    pub use obliv_net::{SortOrder, SortReport};
}

/// Sorts array `h` by key in the given order, dummies last, with the
/// paper's Lemma 2 deterministic external oblivious sort
/// ([`obliv_net::try_external_oblivious_sort_by`]) in at most `cache_elems`
/// words of private memory, for untrusted/unreliable servers: transient
/// faults are retried per `policy` (the retry schedule depends only on the
/// server's fault schedule, never on the data, so traces stay
/// data-independent), tampering detected by an [`AuthenticatedStore`]
/// returns `Err(OdoError::Store(Corrupted | Stale))` instead of a wrong
/// answer, and a cache below two blocks returns
/// [`OdoError::InvalidArgument`] before any I/O.
///
/// On `Err` the contents of `h` (and of the scratch array, for non-power-of-
/// two lengths) are unspecified; the store itself remains usable and its I/O
/// accounting reflects every operation actually issued.
pub fn try_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
    policy: RetryPolicy,
) -> Result<(SortReport, RetryStats), OdoError> {
    let mut rs = extmem::RetryingStore::new(store, policy);
    let report = match order {
        SortOrder::Ascending => {
            obliv_net::try_external_oblivious_sort_by(&mut rs, h, cache_elems, &cell_cmp_none_last)
        }
        SortOrder::Descending => obliv_net::try_external_oblivious_sort_by(
            &mut rs,
            h,
            cache_elems,
            &cell_cmp_none_last_desc,
        ),
    }?;
    Ok((report, rs.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let (report, retry) =
                try_sort(&mut mem, &h, 64, order, RetryPolicy::default()).unwrap();
            let got = mem.snapshot_elements(&h);
            let mut want = reversed(200);
            want.sort_unstable();
            if order == SortOrder::Descending {
                want.reverse();
            }
            assert_eq!(got, want, "{order:?}");
            assert!(report.padded);
            assert_eq!(report.io, mem.stats());
            assert_eq!(retry.retries, 0);
        }
    }
}

//! # odo-core — the workspace's algorithm façade
//!
//! Re-exports the public API of the data-oblivious external-memory workspace
//! in one place, so downstream users (the root `odo` crate, the examples,
//! the benchmark harness) depend on a single crate:
//!
//! * [`extmem`] — the machine model: [`ExtMem`], [`Config`], blocks, I/O
//!   accounting, access traces and the obliviousness test utilities.
//! * [`obliv_net`] — the sorting and routing networks, headlined by
//!   [`external_oblivious_sort`], the paper's Lemma 2 deterministic external
//!   oblivious sort.
//! * [`compact`] — the paper's §3 tight order-preserving compaction (and its
//!   reverse, expansion) executed I/O-efficiently over any [`BlockStore`]:
//!   the butterfly levels run as a head-window sweep plus cache-sized
//!   column sweeps that fuse `log₂(W/B)` external levels each, in
//!   `O((N/B)(1 + log_{M/B}(N/M)))` I/Os.
//! * [`select`] — the paper's §4 data-oblivious selection and quantiles:
//!   [`select::select_kth`] brackets the target between weighted splitters
//!   and keeps the candidates between them in the private cache — two
//!   streaming passes and one small sample sort while `N` is below about
//!   `M²/32`, §3 compaction rounds to shrink the window first beyond that —
//!   in `O((N/B)(1 + log_{M/B}(N/M)))` I/Os whose trace hides the data
//!   *and* the rank.
//! * [`sorter`] — the [`OblivSorter`] strategy layer: every embedded sort
//!   (the façades, selection's sample sorts, the quantile pass)
//!   can swap the deterministic Lemma 2 engine for the randomized bucket
//!   oblivious sort ([`obliv_net::bucket_sort`]), trading the squared log
//!   for `O((N/B)·log_{M/B}(N/B))` I/Os once `N ≫ M`.
//!
//! With selection landed, the three headline primitives of the paper's title
//! — compaction, selection, and sorting — all run end to end over plaintext
//! and re-encrypting outsourced stores.
//!
//! The server is *untrusted*, not merely curious, so every primitive also
//! has a fallible form for unreliable/tampering servers: [`try_sort`],
//! [`compact::try_compact`] and [`select::try_select_kth`] retry transient
//! faults per an [`extmem::RetryPolicy`] and propagate a typed [`OdoError`]
//! — over an [`extmem::AuthenticatedStore`], corruption and rollback surface
//! as `Err(Corrupted | Stale)`, never as silently wrong output. See the
//! repo-root `DESIGN.md` for the fault model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use extmem;
pub use obliv_net;

pub mod compact;
pub mod error;
pub mod select;
pub mod sorter;

pub use compact::{compact_order_preserving, expand, try_compact, try_expand, CompactReport};
pub use error::OdoError;
pub use extmem::{
    AccessEvent, AccessOp, AccessTrace, ArenaStats, ArrayHandle, AuthClientState,
    AuthenticatedStore, BackingStore, Block, BlockArena, BlockCache, BlockStore, CacheBudget, Cell,
    Config, ConfigError, Element, EncryptedStore, ExtMem, FaultKind, FaultSpec, FaultStats,
    FaultyStore, FileStore, InjectedCrash, IoStats, PrefetchConfig, PrefetchStats,
    PrefetchingStore, RetryPolicy, RetryStats, StoreError,
};
pub use obliv_net::{
    bitonic_sort_pow2, bucket_oblivious_sort, external_oblivious_sort, external_oblivious_sort_by,
    try_bucket_oblivious_sort, try_external_oblivious_sort, BucketSortConfig, BucketSortError,
    BucketSortReport, Comparator, Network, SortOrder, SortReport,
};
pub use select::{
    quantiles, quantiles_with, select_kth, select_kth_with, try_select_kth, SelectReport,
};
pub use sorter::{OblivSorter, SortEngine, SorterReport};

/// Everything a typical caller needs, importable with one `use`.
pub mod prelude {
    pub use crate::compact::{
        compact, compact_order_preserving, expand, try_compact, try_expand, CompactReport,
    };
    pub use crate::error::OdoError;
    pub use crate::select::{
        quantiles, quantiles_with, select_kth, select_kth_with, try_select_kth, SelectReport,
    };
    pub use crate::sorter::{OblivSorter, SortEngine, SorterReport};
    pub use crate::{sort_with, try_sort};
    pub use extmem::{
        install_quiet_abort_hook, AuthenticatedStore, BlockStore, Cell, Config, Element,
        EncryptedStore, ExtMem, FaultSpec, FaultyStore, FileStore, IoStats, PrefetchingStore,
        RetryPolicy, RetryStats, StoreError,
    };
    pub use obliv_net::BucketSortConfig;
    pub use obliv_net::{
        external_oblivious_sort, try_external_oblivious_sort, SortOrder, SortReport,
    };
}

/// Fallible variant of [`obliv_net::external_oblivious_sort`] returning the
/// workspace-level [`OdoError`]: transient faults retried per `policy`,
/// tampering detected by an [`AuthenticatedStore`] propagated as
/// `Err(OdoError::Store(Corrupted | Stale))` instead of a wrong answer. See
/// [`obliv_net::try_external_oblivious_sort`] for the store-level contract.
pub fn try_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
    policy: RetryPolicy,
) -> Result<(SortReport, RetryStats), OdoError> {
    try_external_oblivious_sort(store, h, cache_elems, order, policy).map_err(OdoError::from)
}

/// Sorts array `h` with an explicit [`OblivSorter`] strategy — the
/// engine-switchable front door to the external oblivious sorts.
/// `&OblivSorter::Bitonic` (the default) is the deterministic Lemma 2 sort;
/// `OblivSorter::bucket(seed)` swaps in the randomized
/// `O((N/B)·log_{M/B}(N/B))` bucket sort. See [`sorter::OblivSorter::sort`]
/// for the contract and panics.
pub fn sort_with<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
    sorter: &OblivSorter,
) -> SorterReport {
    sorter.sort(store, h, cache_elems, order)
}

/// Sorts `items` on an outsourced store configured by `cfg` and returns the
/// sorted elements together with the exact I/O cost — the one-call form of
/// the paper's headline sorting result.
///
/// # Panics
/// Panics if `cfg` fails basic validation (`N ≥ 1`, `B ≥ 1`, `M ≥ 2B`) or
/// if `items.len()` disagrees with `cfg.n_elements` — the validated model
/// point must describe the data actually sorted.
pub fn sort_outsourced(
    cfg: &Config,
    items: &[Element],
    order: SortOrder,
) -> (Vec<Element>, SortReport) {
    cfg.validate().expect("invalid (N, B, M) configuration");
    assert_eq!(
        items.len(),
        cfg.n_elements,
        "items.len() must equal the configured N"
    );
    let mut mem = ExtMem::new(cfg.block_elems);
    let h = mem.alloc_array_from_elements(items);
    let report = external_oblivious_sort(&mut mem, &h, cfg.cache_elems, order);
    (mem.snapshot_elements(&h), report)
}

/// Compacts `cells` (occupied cells to the front, order preserved, dummies
/// after) on an outsourced store configured by `cfg` and returns the routed
/// array together with the exact I/O cost — the one-call form of the paper's
/// §3 tight order-preserving compaction.
///
/// # Panics
/// Panics if `cfg` fails basic validation, if `cells.len()` disagrees with
/// `cfg.n_elements`, or on the [`compact::compact`] cache requirements
/// (`M ≥ 8B`; power-of-two `B` when the array exceeds the cache).
pub fn compact_outsourced(cfg: &Config, cells: &[Cell]) -> (Vec<Cell>, CompactReport) {
    cfg.validate().expect("invalid (N, B, M) configuration");
    assert_eq!(
        cells.len(),
        cfg.n_elements,
        "cells.len() must equal the configured N"
    );
    let mut mem = ExtMem::new(cfg.block_elems);
    let h = mem.alloc_array_from_cells(cells);
    let report = compact::compact(&mut mem, &h, cfg.cache_elems);
    (mem.snapshot_cells(&h), report)
}

/// Selects the `k`-th smallest of `items` (0-based rank by key, ties broken
/// by original position) on an outsourced store configured by `cfg`, and
/// returns the element together with the exact I/O cost — the one-call form
/// of the paper's §4 selection result. The server-visible trace depends only
/// on the shape `(N, B, M)`, never on the data or on `k`.
///
/// # Panics
/// Panics if `cfg` fails basic validation, if `items.len()` disagrees with
/// `cfg.n_elements`, if `k ≥ items.len()`, or on the [`select::select_kth`]
/// external-path cache requirements (`M ≥ max(8B, 32)`; power-of-two `B` when
/// the array exceeds the cache).
pub fn select_outsourced(cfg: &Config, items: &[Element], k: usize) -> (Element, SelectReport) {
    cfg.validate().expect("invalid (N, B, M) configuration");
    assert_eq!(
        items.len(),
        cfg.n_elements,
        "items.len() must equal the configured N"
    );
    let mut mem = ExtMem::new(cfg.block_elems);
    let h = mem.alloc_array_from_elements(items);
    select_kth(&mut mem, &h, cfg.cache_elems, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_outsourced_sorts_and_reports_io() {
        let cfg = Config::new(200, 8, 64);
        let items: Vec<Element> = (0..200)
            .map(|i| Element::keyed(199 - i as u64, i))
            .collect();
        let (sorted, report) = sort_outsourced(&cfg, &items, SortOrder::Ascending);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), 200);
        assert!(report.io.total() > 0);
        assert!(report.padded, "200 is not a power of two");
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_config_is_rejected() {
        let cfg = Config::new(10, 8, 8); // cache holds only one block
        sort_outsourced(&cfg, &[Element::new(1, 0)], SortOrder::Ascending);
    }

    #[test]
    fn compact_outsourced_compacts_and_reports_io() {
        let cfg = Config::new(300, 8, 64);
        let cells: Vec<Cell> = (0..300)
            .map(|i| {
                if i % 4 == 0 {
                    Some(Element::keyed(i as u64, i))
                } else {
                    None
                }
            })
            .collect();
        let (out, report) = compact_outsourced(&cfg, &cells);
        let expected: Vec<Element> = cells.iter().flatten().copied().collect();
        let prefix: Vec<Element> = out.iter().take(75).map(|c| c.unwrap()).collect();
        assert_eq!(prefix, expected);
        assert!(out[75..].iter().all(|c| c.is_none()));
        assert_eq!(report.occupied, 75);
        assert!(report.io.total() > 0);
    }

    #[test]
    fn select_outsourced_selects_and_reports_io() {
        // Duplicate-heavy keys so the façade exercises the tie-breaking
        // contract: rank k, ties by original position.
        let cfg = Config::new(600, 8, 64);
        let items: Vec<Element> = (0..600)
            .map(|i| Element::keyed((i as u64 * 7) % 50, i))
            .collect();
        let mut expected: Vec<(u64, usize)> =
            items.iter().map(|e| (e.key, e.payload as usize)).collect();
        expected.sort_unstable();
        for k in [0usize, 1, 300, 599] {
            let (got, report) = select_outsourced(&cfg, &items, k);
            assert_eq!((got.key, got.payload as usize), expected[k], "k={k}");
            assert_eq!(report.rank, k);
            assert!(report.io.total() > 0);
            assert!(!report.in_cache, "600 > 64 takes the external path");
        }
    }

    #[test]
    #[should_panic(expected = "rank k out of range")]
    fn select_outsourced_rejects_overlarge_rank() {
        let cfg = Config::new(100, 8, 512);
        let items: Vec<Element> = (0..100).map(|i| Element::keyed(i as u64, i)).collect();
        select_outsourced(&cfg, &items, 100);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn select_outsourced_rejects_invalid_config() {
        let cfg = Config::new(10, 8, 8);
        select_outsourced(&cfg, &[Element::new(1, 0); 10], 0);
    }
}

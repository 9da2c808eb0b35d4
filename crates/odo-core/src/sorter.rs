//! The sorter strategy layer: one switch for every external oblivious sort
//! in the workspace.
//!
//! Two engines implement the same contract — sort the cells of a
//! [`BlockStore`] array with dummies last, behind a trace the server cannot
//! correlate with the data:
//!
//! * [`OblivSorter::Bitonic`] — the paper's Lemma 2 deterministic external
//!   bitonic sort, `O((N/B)(1 + log²(N/M)))` I/Os, trace a fixed function of
//!   the shape `(N, B, M)` alone. The default, and the oracle in every
//!   differential test.
//! * [`OblivSorter::Bucket`] — the randomized bucket oblivious sort
//!   ([`obliv_net::bucket_sort`]), `O((N/B)·log_{M/B}(N/B))` I/Os, trace a
//!   fixed function of `(shape, seed)` plus the random bin assignment. The
//!   engine of choice once `N ≫ M`, where the squared log dominates.
//!
//! The ORAM rebuild takes the strategy as a parameter and sorts through
//! [`OblivSorter::try_sort_by`]; selection and quantiles embed the
//! deterministic default. See the repo-root `DESIGN.md` for when to pick
//! which.

use crate::error::OdoError;
use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc, Cell};
use extmem::{ArrayHandle, BlockStore, IoStats, RetryPolicy, RetryStats, RetryingStore};
use obliv_net::bucket_sort::BucketSortConfig;
use obliv_net::SortOrder;
use std::cmp::Ordering;

/// Which engine a [`SorterReport`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortEngine {
    /// The Lemma 2 deterministic external bitonic sort.
    Bitonic,
    /// The randomized bucket oblivious sort.
    Bucket,
}

/// The engine-agnostic slice of a sort's outcome. Engine-specific detail
/// (bucket capacity, butterfly depth, merge passes, …) stays on the engines'
/// own report types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SorterReport {
    /// I/Os charged to this sort (reads + writes deltas).
    pub io: IoStats,
    /// The engine that ran.
    pub engine: SortEngine,
}

/// Strategy switch for the external oblivious sorts. `Default` is
/// [`OblivSorter::Bitonic`] — deterministic, shape-only trace, no overflow
/// probability — so existing callers keep their exact behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OblivSorter {
    /// Lemma 2: deterministic external bitonic sort,
    /// `O((N/B)(1 + log²(N/M)))` I/Os.
    #[default]
    Bitonic,
    /// Randomized bucket oblivious sort, `O((N/B)·log_{M/B}(N/B))` I/Os;
    /// see [`BucketSortConfig`] for the seed and the bucket-capacity knob.
    Bucket(BucketSortConfig),
}

impl OblivSorter {
    /// The bucket engine with the given seed and automatic bucket capacity.
    pub fn bucket(seed: u64) -> Self {
        OblivSorter::Bucket(BucketSortConfig::seeded(seed))
    }

    /// Which engine this strategy selects.
    pub fn engine(&self) -> SortEngine {
        match self {
            OblivSorter::Bitonic => SortEngine::Bitonic,
            OblivSorter::Bucket(_) => SortEngine::Bucket,
        }
    }

    /// Sorts array `h` by an arbitrary cell comparator with the selected
    /// engine, over `store` as given, returning the first error: an argument
    /// failure as [`OdoError::InvalidArgument`], a bucket overflow as
    /// [`OdoError::BucketOverflow`], a failed block I/O as
    /// [`OdoError::Store`]. The comparator must order dummies last (e.g.
    /// [`extmem::element::cell_cmp_none_last`]); the bucket engine enforces
    /// that itself and only consults `cmp` on occupied cells. Transient
    /// errors are not retried here; the passes that embed a sort call this
    /// over the [`RetryingStore`] their own `try_*` façade built.
    pub fn try_sort_by<S, F>(
        &self,
        store: &mut S,
        h: &ArrayHandle,
        cache_elems: usize,
        cmp: &F,
    ) -> Result<SorterReport, OdoError>
    where
        S: BlockStore,
        F: Fn(&Cell, &Cell) -> Ordering,
    {
        let io = match self {
            OblivSorter::Bitonic => {
                obliv_net::try_external_oblivious_sort_by(store, h, cache_elems, cmp)?.io
            }
            OblivSorter::Bucket(cfg) => {
                obliv_net::bucket_oblivious_sort_by(store, h, cache_elems, cfg, cmp)?.io
            }
        };
        Ok(SorterReport {
            io,
            engine: self.engine(),
        })
    }

    /// Sorts array `h` in the given order (dummies last) with the selected
    /// engine, for untrusted/unreliable servers: transient faults retry per
    /// `policy`, tampering and argument failures surface as a typed
    /// [`OdoError`], and a bucket overflow returns
    /// [`OdoError::BucketOverflow`] (retry with a fresh seed).
    pub fn try_sort<S: BlockStore>(
        &self,
        store: &mut S,
        h: &ArrayHandle,
        cache_elems: usize,
        order: SortOrder,
        policy: RetryPolicy,
    ) -> Result<(SorterReport, RetryStats), OdoError> {
        let mut rs = RetryingStore::new(store, policy);
        let report = match order {
            SortOrder::Ascending => self.try_sort_by(&mut rs, h, cache_elems, &cell_cmp_none_last),
            SortOrder::Descending => {
                self.try_sort_by(&mut rs, h, cache_elems, &cell_cmp_none_last_desc)
            }
        }?;
        Ok((report, rs.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::{Element, ExtMem};

    fn scrambled(n: usize) -> Vec<Element> {
        (0..n)
            .map(|i| Element::keyed(extmem::util::hash64(i as u64, 0xCAFE) % 997, i))
            .collect()
    }

    fn sorted_by(
        sorter: OblivSorter,
        n: usize,
        b: usize,
        m: usize,
    ) -> (Vec<Element>, SorterReport) {
        let mut mem = ExtMem::new(b);
        let items = scrambled(n);
        let h = mem.alloc_array_from_elements(&items);
        let (report, _) = sorter
            .try_sort(
                &mut mem,
                &h,
                m,
                SortOrder::Ascending,
                RetryPolicy::default(),
            )
            .unwrap();
        (mem.snapshot_elements(&h), report)
    }

    #[test]
    fn both_engines_agree_with_each_other() {
        let (bitonic, rb) = sorted_by(OblivSorter::Bitonic, 2048, 16, 256);
        let (bucket, rk) = sorted_by(OblivSorter::bucket(42), 2048, 16, 256);
        assert_eq!(bitonic, bucket);
        assert_eq!(rb.engine, SortEngine::Bitonic);
        assert_eq!(rk.engine, SortEngine::Bucket);
        assert!(bitonic.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bucket_engine_beats_bitonic_when_n_dwarfs_m() {
        let (_, rb) = sorted_by(OblivSorter::Bitonic, 1 << 13, 16, 256);
        let (_, rk) = sorted_by(OblivSorter::bucket(7), 1 << 13, 16, 256);
        assert!(
            rk.io.total() < rb.io.total(),
            "bucket {} >= bitonic {}",
            rk.io.total(),
            rb.io.total()
        );
    }

    #[test]
    fn default_is_the_deterministic_oracle() {
        assert_eq!(OblivSorter::default(), OblivSorter::Bitonic);
        assert_eq!(OblivSorter::default().engine(), SortEngine::Bitonic);
    }

    #[test]
    fn try_sort_runs_both_engines() {
        for sorter in [OblivSorter::Bitonic, OblivSorter::bucket(5)] {
            let mut mem = ExtMem::new(8);
            let items = scrambled(1024);
            let h = mem.alloc_array_from_elements(&items);
            let (report, _) = sorter
                .try_sort(
                    &mut mem,
                    &h,
                    128,
                    SortOrder::Ascending,
                    RetryPolicy::default(),
                )
                .unwrap();
            assert_eq!(report.engine, sorter.engine());
            let got = mem.snapshot_elements(&h);
            assert!(got.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn a_cache_below_two_blocks_is_a_typed_error_for_every_engine() {
        // M = B: the Lemma 2 sort needs M >= 2B, the bucket engine M >= 8B
        // on its external path.
        for sorter in [OblivSorter::Bitonic, OblivSorter::bucket(3)] {
            let mut mem = ExtMem::new(8);
            let h = mem.alloc_array_from_elements(&scrambled(64));
            let err = sorter
                .try_sort(
                    &mut mem,
                    &h,
                    8,
                    SortOrder::Ascending,
                    RetryPolicy::default(),
                )
                .unwrap_err();
            assert!(
                matches!(err, OdoError::InvalidArgument { .. }),
                "{:?}: {err:?}",
                sorter.engine()
            );
        }
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_elements(&scrambled(64));
        let err = crate::try_sort(
            &mut mem,
            &h,
            8,
            SortOrder::Ascending,
            RetryPolicy::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least two blocks"));
        assert_eq!(mem.stats().total(), 0, "refused before any I/O");
    }
}

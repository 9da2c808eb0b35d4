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
//! Callers that embed a sort — [`crate::select::select_kth_with`]'s sample
//! sorts, [`crate::sort_outsourced_with`] — take the strategy
//! as a parameter; the un-suffixed entry points keep the deterministic
//! default. See the repo-root `DESIGN.md` for when to pick which.

use crate::error::OdoError;
use extmem::element::Cell;
use extmem::{ArrayHandle, BlockStore, IoStats, RetryPolicy, RetryStats};
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

    /// Sorts array `h` in the given order (dummies last) with the selected
    /// engine.
    ///
    /// # Panics
    /// Panics on the engine's argument requirements (see
    /// [`obliv_net::external_oblivious_sort`] and
    /// [`obliv_net::bucket_oblivious_sort`]) and, for the bucket engine, on
    /// a bucket overflow — retry with a fresh seed via [`Self::try_sort`]
    /// instead of panicking where that matters.
    pub fn sort<S: BlockStore>(
        &self,
        store: &mut S,
        h: &ArrayHandle,
        cache_elems: usize,
        order: SortOrder,
    ) -> SorterReport {
        match self {
            OblivSorter::Bitonic => {
                let r = obliv_net::external_oblivious_sort(store, h, cache_elems, order);
                SorterReport {
                    io: r.io,
                    engine: SortEngine::Bitonic,
                }
            }
            OblivSorter::Bucket(cfg) => {
                let r = obliv_net::bucket_oblivious_sort(store, h, cache_elems, order, cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
                SorterReport {
                    io: r.io,
                    engine: SortEngine::Bucket,
                }
            }
        }
    }

    /// Sorts array `h` by an arbitrary cell comparator with the selected
    /// engine. The comparator must order dummies last (e.g.
    /// [`extmem::element::cell_cmp_none_last`]); the bucket engine enforces
    /// that itself and only consults `cmp` on occupied cells.
    ///
    /// # Panics
    /// Same conditions as [`Self::sort`].
    pub fn sort_by<S, F>(
        &self,
        store: &mut S,
        h: &ArrayHandle,
        cache_elems: usize,
        cmp: &F,
    ) -> SorterReport
    where
        S: BlockStore,
        F: Fn(&Cell, &Cell) -> Ordering,
    {
        match self {
            OblivSorter::Bitonic => {
                let r = obliv_net::external_oblivious_sort_by(store, h, cache_elems, cmp);
                SorterReport {
                    io: r.io,
                    engine: SortEngine::Bitonic,
                }
            }
            OblivSorter::Bucket(cfg) => {
                let r = obliv_net::bucket_oblivious_sort_by(store, h, cache_elems, cfg, cmp)
                    .unwrap_or_else(|e| panic!("{e}"));
                SorterReport {
                    io: r.io,
                    engine: SortEngine::Bucket,
                }
            }
        }
    }

    /// Fallible variant of [`Self::sort`] for untrusted/unreliable servers:
    /// transient faults retry per `policy`, tampering and argument failures
    /// surface as a typed [`OdoError`], and a bucket overflow returns
    /// [`OdoError::BucketOverflow`] (retry with a fresh seed) instead of
    /// panicking.
    pub fn try_sort<S: BlockStore>(
        &self,
        store: &mut S,
        h: &ArrayHandle,
        cache_elems: usize,
        order: SortOrder,
        policy: RetryPolicy,
    ) -> Result<(SorterReport, RetryStats), OdoError> {
        match self {
            OblivSorter::Bitonic => {
                let (r, retries) =
                    obliv_net::try_external_oblivious_sort(store, h, cache_elems, order, policy)
                        .map_err(OdoError::from)?;
                Ok((
                    SorterReport {
                        io: r.io,
                        engine: SortEngine::Bitonic,
                    },
                    retries,
                ))
            }
            OblivSorter::Bucket(cfg) => {
                let (r, retries) =
                    obliv_net::try_bucket_oblivious_sort(store, h, cache_elems, order, cfg, policy)
                        .map_err(OdoError::from)?;
                Ok((
                    SorterReport {
                        io: r.io,
                        engine: SortEngine::Bucket,
                    },
                    retries,
                ))
            }
        }
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

    fn sort_with(
        sorter: OblivSorter,
        n: usize,
        b: usize,
        m: usize,
    ) -> (Vec<Element>, SorterReport) {
        let mut mem = ExtMem::new(b);
        let items = scrambled(n);
        let h = mem.alloc_array_from_elements(&items);
        let report = sorter.sort(&mut mem, &h, m, SortOrder::Ascending);
        (mem.snapshot_elements(&h), report)
    }

    #[test]
    fn both_engines_agree_with_each_other() {
        let (bitonic, rb) = sort_with(OblivSorter::Bitonic, 2048, 16, 256);
        let (bucket, rk) = sort_with(OblivSorter::bucket(42), 2048, 16, 256);
        assert_eq!(bitonic, bucket);
        assert_eq!(rb.engine, SortEngine::Bitonic);
        assert_eq!(rk.engine, SortEngine::Bucket);
        assert!(bitonic.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bucket_engine_beats_bitonic_when_n_dwarfs_m() {
        let (_, rb) = sort_with(OblivSorter::Bitonic, 1 << 13, 16, 256);
        let (_, rk) = sort_with(OblivSorter::bucket(7), 1 << 13, 16, 256);
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
}

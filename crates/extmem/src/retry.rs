//! Bounded retry with backoff over a fallible store.
//!
//! Every pass is written against the fallible `try_*` half of
//! [`BlockStore`] and propagates the first [`StoreError`] with `?`.
//! [`RetryingStore`] sits between a pass and an unreliable server:
//!
//! * **Transient** failures are retried up to [`RetryPolicy::max_retries`]
//!   times with capped exponential backoff. In the I/O model "backoff" is
//!   bookkeeping, not wall-clock sleeping: the schedule is charged to
//!   [`RetryStats::backoff_units`]. Crucially, whether an operation is
//!   retried depends only on what the *server* did (the injected fault
//!   schedule), never on the data — retried addresses are re-issued
//!   verbatim, so traces stay data-independent (the fault battery asserts
//!   this byte for byte).
//! * **Permanent** failures (corruption, rollback, exhausted retries) are
//!   returned as values. The pass stops at the first one: tampered data
//!   could otherwise flow into the algorithm's internal invariants and
//!   either trip an assertion or — worse — produce a silently wrong answer.
//!
//! Each `try_*` façade builds one `RetryingStore` over the caller's store,
//! runs its pass, and returns the pass's report with the retry counters.
//! After a failed pass the *contents* of the arrays touched by the
//! algorithm are unspecified (the pass stopped mid-routing); the store
//! itself remains usable and its I/O accounting reflects every operation
//! actually issued.

use crate::block::Block;
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::store::BlockStore;

/// How many times to retry transient faults, and how the (model) backoff
/// schedule grows. The schedule is a function of the attempt number only —
/// never of the data being stored — so retries cannot leak plaintext.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries per operation (0 = fail on first transient).
    pub max_retries: u32,
    /// Backoff charged for the first retry, in abstract time units.
    pub backoff_base_units: u64,
    /// Cap on the per-retry backoff; the exponential schedule saturates here.
    pub backoff_cap_units: u64,
}

impl Default for RetryPolicy {
    /// Eight retries with a 1-unit base doubling up to 64 units — enough to
    /// ride out fault rates well past anything a usable server would show.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff_base_units: 1,
            backoff_cap_units: 64,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first transient fault is fatal.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_units: 0,
            backoff_cap_units: 0,
        }
    }

    /// Backoff charged for retry number `attempt` (1-based): capped
    /// exponential, `min(base << (attempt-1), cap)`.
    fn backoff_for(&self, attempt: u32) -> u64 {
        let shifted = self
            .backoff_base_units
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        shifted.min(self.backoff_cap_units)
    }
}

/// Counters describing what the retry layer had to do during a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operations re-issued after a transient fault.
    pub retries: u64,
    /// Total backoff charged across all retries, in abstract time units.
    pub backoff_units: u64,
}

/// Retries the transient faults of a fallible [`BlockStore`] per the
/// [`RetryPolicy`] and returns every other error as a value (see the module
/// docs).
#[derive(Debug)]
pub struct RetryingStore<'a, S: BlockStore> {
    inner: &'a mut S,
    policy: RetryPolicy,
    stats: RetryStats,
}

impl<'a, S: BlockStore> RetryingStore<'a, S> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: &'a mut S, policy: RetryPolicy) -> Self {
        RetryingStore {
            inner,
            policy,
            stats: RetryStats::default(),
        }
    }

    /// Retry counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Runs `op` against the inner store, re-issuing it verbatim after each
    /// transient failure until it succeeds, fails permanently, or the
    /// policy's retries run out.
    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut S) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            match op(self.inner) {
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.stats.backoff_units += self.policy.backoff_for(attempt);
                }
                other => return other,
            }
        }
    }
}

impl<S: BlockStore> BlockStore for RetryingStore<'_, S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.inner.hint_blocks(h, blocks);
    }

    fn recycle(&mut self, blk: Block) {
        self.inner.recycle(blk);
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.retry(|s| s.try_load_block(h, i))
    }

    /// Each attempt writes a clone of `blk`, so a retry re-issues the same
    /// contents.
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.retry(|s| s.try_store_block(h, i, blk.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Cell, Element};
    use crate::mem::ExtMem;
    use std::collections::VecDeque;

    /// A scripted flaky store: pops one error per fallible op from a queue;
    /// an empty queue means success.
    struct Scripted {
        mem: ExtMem,
        read_errs: VecDeque<Option<StoreError>>,
        write_errs: VecDeque<Option<StoreError>>,
    }

    impl Scripted {
        fn new(b: usize) -> Self {
            Scripted {
                mem: ExtMem::new(b),
                read_errs: VecDeque::new(),
                write_errs: VecDeque::new(),
            }
        }
    }

    impl BlockStore for Scripted {
        fn block_elems(&self) -> usize {
            self.mem.block_elems()
        }
        fn alloc_array(&mut self, len: usize) -> ArrayHandle {
            self.mem.alloc_array(len)
        }
        fn io_stats(&self) -> IoStats {
            self.mem.stats()
        }
        fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
            let blk = self.mem.try_load_block(h, i)?;
            match self.read_errs.pop_front().flatten() {
                Some(e) => Err(e),
                None => Ok(blk),
            }
        }
        fn try_store_block(
            &mut self,
            h: &ArrayHandle,
            i: usize,
            blk: Block,
        ) -> Result<(), StoreError> {
            match self.write_errs.pop_front().flatten() {
                Some(e) => Err(e),
                None => self.mem.try_store_block(h, i, blk),
            }
        }
    }

    fn cells(n: u64) -> Vec<Cell> {
        (0..n).map(|k| Some(Element::new(k, k))).collect()
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.store_span(&h, 0, &cells(4));
        // Two transient failures, then success.
        s.read_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        s.read_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        assert_eq!(rs.try_load_span(&h, 0, 4).unwrap(), cells(4));
        let stats = rs.stats();
        assert_eq!(stats.retries, 2);
        // Exponential backoff: 1 + 2 units.
        assert_eq!(stats.backoff_units, 3);
        // Each attempt was a real server access (charged).
        assert_eq!(s.io_stats().reads, 3);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        for _ in 0..10 {
            s.read_errs
                .push_back(Some(StoreError::Transient { addr: 7 }));
        }
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let err = RetryingStore::new(&mut s, policy)
            .try_load_block(&h, 0)
            .unwrap_err();
        assert_eq!(err, StoreError::Transient { addr: 7 });
        // 1 initial attempt + 3 retries, all charged.
        assert_eq!(s.io_stats().reads, 4);
    }

    #[test]
    fn fatal_errors_abort_immediately_without_retries() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 8);
        s.read_errs
            .push_back(Some(StoreError::Corrupted { addr: 2 }));
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        let err = rs.try_load_span(&h, 0, 8).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 2 });
        assert_eq!(rs.stats(), RetryStats::default());
        assert_eq!(s.io_stats().reads, 1, "no retry, and the span stops");
    }

    #[test]
    fn write_retries_reissue_the_same_block() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.write_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        rs.try_store_span(&h, 0, &cells(4)).unwrap();
        assert_eq!(rs.stats().retries, 1);
        assert_eq!(s.load_span(&h, 0, 4), cells(4));
    }

    #[test]
    fn fatal_span_write_errors_are_typed_values_not_unwinds() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 8);
        s.write_errs
            .extend([None, Some(StoreError::Corrupted { addr: 1 })]);
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        let err = rs.try_store_span(&h, 0, &cells(8)).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 1 });
        assert_eq!(rs.stats().retries, 0, "fatal errors are never retried");
        // The first block landed; the span stopped at the second.
        assert_eq!(s.load_span(&h, 0, 8)[..4], cells(4)[..]);
    }

    #[test]
    #[should_panic(expected = "a genuine logic error")]
    fn non_abort_panics_propagate_unchanged() {
        // The retry layer handles errors, not panics: a panic inside the
        // wrapped store reaches the caller as it was raised.
        struct Panicky(ExtMem);
        impl BlockStore for Panicky {
            fn block_elems(&self) -> usize {
                self.0.block_elems()
            }
            fn alloc_array(&mut self, len: usize) -> ArrayHandle {
                self.0.alloc_array(len)
            }
            fn io_stats(&self) -> IoStats {
                self.0.stats()
            }
            fn try_load_block(&mut self, _: &ArrayHandle, _: usize) -> Result<Block, StoreError> {
                panic!("a genuine logic error");
            }
            fn try_store_block(
                &mut self,
                h: &ArrayHandle,
                i: usize,
                blk: Block,
            ) -> Result<(), StoreError> {
                self.0.try_store_block(h, i, blk)
            }
        }
        let mut s = Panicky(ExtMem::new(4));
        let h = BlockStore::alloc_array(&mut s, 4);
        let _ = RetryingStore::new(&mut s, RetryPolicy::default()).try_load_block(&h, 0);
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_base_units: 2,
            backoff_cap_units: 16,
        };
        let units: Vec<u64> = (1..=6).map(|a| p.backoff_for(a)).collect();
        assert_eq!(units, vec![2, 4, 8, 16, 16, 16]);
    }

    #[test]
    fn no_retries_policy_fails_on_first_transient() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.read_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        let err = RetryingStore::new(&mut s, RetryPolicy::no_retries())
            .try_load_block(&h, 0)
            .unwrap_err();
        assert!(err.is_transient());
    }
}

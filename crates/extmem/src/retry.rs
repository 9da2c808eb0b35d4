//! Bounded retry over a fallible store.
//!
//! Every pass is written against the fallible `try_*` half of
//! [`BlockStore`] and propagates the first [`StoreError`] with `?`.
//! [`RetryingStore`] sits between a pass and an unreliable server:
//!
//! * **Transient** failures are retried up to [`RetryPolicy::max_retries`]
//!   times, at once: the I/O model has no clock to wait on. Crucially,
//!   whether an operation is retried depends only on what the *server* did
//!   (the injected fault schedule), never on the data — retried addresses
//!   are re-issued verbatim, so traces stay data-independent (the fault
//!   battery asserts this byte for byte).
//! * **Permanent** failures (corruption, rollback, exhausted retries) are
//!   returned as values. The pass stops at the first one: tampered data
//!   could otherwise flow into the algorithm's internal invariants and
//!   either trip an assertion or — worse — produce a silently wrong answer.
//!
//! Spans pass through as spans, so a pass's runs reach the span paths of
//! the layers below (the write-behind buffer, one positioned file read or
//! write, the batched keystream and MAC kernels):
//!
//! * A **span write** is forwarded from the caller's borrowed cells. When
//!   it fails transiently, the inner store's write counter tells how many
//!   of its blocks landed; the retry resumes at the failing block, so no
//!   landed block is sent again, and each block gets the policy's retries
//!   as on the per-block path. The re-issued block ops are the ones the
//!   per-block path would issue, in the same order.
//! * A **span load** is forwarded once. Its error carries no cells, so
//!   there is no landed prefix to keep: after a transient failure (one
//!   retry) the span is read again block by block from its first block,
//!   each block through the per-block retry loop. The blocks before the
//!   failing one are therefore read twice, and the trace shows those
//!   re-reads.
//!
//! Each `try_*` façade builds one `RetryingStore` over the caller's store,
//! runs its pass, and returns the pass's report with the retry counters.
//! After a failed pass the *contents* of the arrays touched by the
//! algorithm are unspecified (the pass stopped mid-routing); the store
//! itself remains usable and its I/O accounting reflects every operation
//! actually issued.

use crate::block::Block;
use crate::element::Cell;
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::store::{load_each, load_span_with, BlockStore};

/// How many times to retry a transient fault. Whether an operation is
/// retried depends on the server's answer only — never on the data being
/// stored — so retries cannot leak plaintext.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries per operation (0 = fail on first transient).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// Eight retries — enough to ride out fault rates well past anything a
    /// usable server would show.
    fn default() -> Self {
        RetryPolicy { max_retries: 8 }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first transient fault is fatal.
    pub fn no_retries() -> Self {
        RetryPolicy { max_retries: 0 }
    }
}

/// Counters describing what the retry layer had to do during a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operations re-issued after a transient fault.
    pub retries: u64,
}

/// Retries the transient faults of a fallible [`BlockStore`] per the
/// [`RetryPolicy`] and returns every other error as a value (see the module
/// docs).
#[derive(Debug)]
pub struct RetryingStore<'a, S: BlockStore> {
    inner: &'a mut S,
    policy: RetryPolicy,
    stats: RetryStats,
    /// The caller's block from the previous write, kept as the buffer the
    /// next write copies into, so steady-state writes allocate nothing.
    spare: Option<Block>,
}

impl<'a, S: BlockStore> RetryingStore<'a, S> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: &'a mut S, policy: RetryPolicy) -> Self {
        RetryingStore {
            inner,
            policy,
            stats: RetryStats::default(),
            spare: None,
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

    /// Each attempt writes a copy of `blk`, so a retry re-issues the same
    /// contents. The first attempt copies into the spare buffer; `blk`
    /// itself then becomes the spare for the next write.
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let mut spare = self.spare.take();
        let result = self.retry(|s| {
            let copy = match spare.take() {
                Some(mut buf) if buf.len() == blk.len() => {
                    buf.slots_mut().copy_from_slice(blk.slots());
                    buf
                }
                _ => blk.clone(),
            };
            s.try_store_block(h, i, copy)
        });
        self.spare = Some(blk);
        result
    }

    fn check_write(&self, h: &ArrayHandle, i: usize, cells: &[Cell]) -> Result<(), StoreError> {
        self.inner.check_write(h, i, cells)
    }

    /// Forwards the span; after a transient failure, re-reads it block by
    /// block from its first block (see the module docs).
    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        match self.inner.try_load_span(h, elem_lo, elem_hi) {
            Err(e) if e.is_transient() && self.policy.max_retries > 0 => {
                self.stats.retries += 1;
                load_span_with(self, h, elem_lo, elem_hi, load_each)
            }
            other => other,
        }
    }

    /// Forwards the span from the caller's cells; after a transient
    /// failure, resumes at the failing block (see the module docs).
    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let b = h.block_elems();
        let elem_hi = elem_lo.saturating_add(cells.len());
        let mut lo = elem_lo;
        let mut attempt = 0u32;
        loop {
            let before = self.inner.io_stats().writes;
            match self.inner.try_store_span(h, lo, &cells[lo - elem_lo..]) {
                Err(e) if e.is_transient() => {
                    let landed = (self.inner.io_stats().writes - before) as usize;
                    if landed > 0 {
                        lo = ((lo / b + landed) * b).min(elem_hi);
                        attempt = 0;
                    }
                    if attempt == self.policy.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Cell, Element};
    use crate::mem::ExtMem;
    use std::collections::VecDeque;

    /// A scripted flaky store: pops one error per fallible op from a queue;
    /// an empty queue means success. Its span ops are the per-block
    /// defaults, and it logs every block op attempted: `('r' | 'w', i)`.
    struct Scripted {
        mem: ExtMem,
        read_errs: VecDeque<Option<StoreError>>,
        write_errs: VecDeque<Option<StoreError>>,
        log: Vec<(char, usize)>,
    }

    impl Scripted {
        fn new(b: usize) -> Self {
            Scripted {
                mem: ExtMem::new(b),
                read_errs: VecDeque::new(),
                write_errs: VecDeque::new(),
                log: Vec::new(),
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
            self.log.push(('r', i));
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
            self.log.push(('w', i));
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
        let policy = RetryPolicy { max_retries: 3 };
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
    fn a_span_write_resumes_at_the_failing_block() {
        // Block 2 of a four-block span fails twice: the retries resume at
        // block 2, and blocks 0 and 1 are never sent again.
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 16);
        let transient = Some(StoreError::Transient { addr: 2 });
        s.write_errs.extend([None, None, transient, transient]);
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        rs.try_store_span(&h, 0, &cells(16)).unwrap();
        assert_eq!(rs.stats().retries, 2);
        let w = |i| ('w', i);
        assert_eq!(s.log, [w(0), w(1), w(2), w(2), w(2), w(3)]);
        assert_eq!(s.io_stats().writes, 4);
        assert_eq!(s.load_span(&h, 0, 16), cells(16));
    }

    #[test]
    fn a_failing_block_of_a_span_write_gets_the_policys_retries() {
        // As on the per-block path, each block has its own retries: block 1
        // fails three times under a policy of two retries, so the span stops
        // there with the transient error after block 0 landed.
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 12);
        let transient = Some(StoreError::Transient { addr: 1 });
        s.write_errs.extend([None, transient, transient, transient]);
        let policy = RetryPolicy { max_retries: 2 };
        let mut rs = RetryingStore::new(&mut s, policy);
        let err = rs.try_store_span(&h, 0, &cells(12)).unwrap_err();
        assert_eq!(err, StoreError::Transient { addr: 1 });
        assert_eq!(rs.stats().retries, 2);
        assert_eq!(s.log, [('w', 0), ('w', 1), ('w', 1), ('w', 1)]);
        assert_eq!(s.load_span(&h, 0, 12)[..4], cells(4)[..]);
    }

    #[test]
    fn a_span_load_rereads_from_its_first_block_after_a_transient() {
        // A span load keeps no landed prefix: after block 2 fails, the span
        // is read again block by block from block 0, so blocks 0 and 1 are
        // read twice, and the cells returned are the fault-free ones.
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 16);
        s.store_span(&h, 0, &cells(16));
        s.log.clear();
        s.read_errs
            .extend([None, None, Some(StoreError::Transient { addr: 2 })]);
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        assert_eq!(rs.try_load_span(&h, 1, 15).unwrap(), cells(16)[1..15]);
        assert_eq!(rs.stats().retries, 1);
        let r = |i| ('r', i);
        assert_eq!(s.log, [r(0), r(1), r(2), r(0), r(1), r(2), r(3)]);
    }

    #[test]
    fn a_fatal_error_stops_a_span_load_at_its_block() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 16);
        s.read_errs
            .extend([None, Some(StoreError::Corrupted { addr: 1 })]);
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        let err = rs.try_load_span(&h, 0, 16).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 1 });
        assert_eq!(rs.stats().retries, 0);
        assert_eq!(s.log, [('r', 0), ('r', 1)]);
    }

    #[test]
    fn consecutive_writes_each_land_their_own_contents() {
        // Each write copies into the previous write's block. The second
        // write's first attempt fails and is retried; the third write runs
        // on the recycled buffer. Every block must hold its own contents.
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 12);
        s.write_errs
            .extend([None, Some(StoreError::Transient { addr: 1 })]);
        let blocks: Vec<Vec<Cell>> = (0..3u64)
            .map(|b| (0..4).map(|k| Some(Element::new(10 * b + k, k))).collect())
            .collect();
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        for (i, cells) in blocks.iter().enumerate() {
            rs.try_store_block(&h, i, Block::from_cells(cells)).unwrap();
        }
        assert_eq!(rs.stats().retries, 1);
        assert_eq!(s.load_span(&h, 0, 12), blocks.concat());
        assert_eq!(s.io_stats().writes, 3, "the failed attempt is not charged");
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

//! Bounded retry with backoff over a fallible store, and the bridge that
//! lets the infallible algorithms run fallibly.
//!
//! The sort/compaction/selection passes are written against the infallible
//! [`BlockStore`] operations — their obliviousness proofs are about a fixed
//! sequence of block addresses, and threading `Result` through every
//! comparator exchange would buy nothing. [`RetryingStore`] adapts a fallible
//! server back to that infallible interface:
//!
//! * **Transient** failures are retried up to [`RetryPolicy::max_retries`]
//!   times with capped exponential backoff. In the I/O model "backoff" is
//!   bookkeeping, not wall-clock sleeping: the schedule is charged to
//!   [`RetryStats::backoff_units`]. Crucially, whether an operation is
//!   retried depends only on what the *server* did (the injected fault
//!   schedule), never on the data — retried addresses are re-issued
//!   verbatim, so traces stay data-independent (the fault battery asserts
//!   this byte for byte).
//! * **Permanent** failures (corruption, rollback, exhausted retries) abort
//!   the enclosing pass immediately by unwinding with a typed
//!   [`StoreAbort`] payload. [`run_fallible`] catches exactly that payload
//!   and returns it as `Err(StoreError)`; any other panic (a genuine logic
//!   error) is propagated unchanged. Aborting at the first fatal error is
//!   the only sound option: tampered data could otherwise flow into the
//!   algorithm's internal invariants and either trip an assertion or —
//!   worse — produce a silently wrong answer.
//!
//! After an aborted pass the *contents* of the arrays touched by the
//! algorithm are unspecified (the pass stopped mid-routing); the store
//! itself remains usable and its I/O accounting reflects every operation
//! actually issued.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::block::Block;
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::prefetch::{PrefetchRead, Prefetchable};
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
    /// Fatal errors swallowed because the thread was already unwinding
    /// (e.g. a cache flush racing an abort); always 0 on a clean run.
    pub suppressed_errors: u64,
}

/// The typed unwind payload [`RetryingStore`] aborts with on a fatal
/// [`StoreError`]. Only [`run_fallible`] should catch this; it is public so
/// the catch works across crate boundaries.
#[derive(Debug)]
pub struct StoreAbort(pub StoreError);

/// Adapts a fallible [`BlockStore`] back to the infallible interface the
/// oblivious algorithms are written against: transient faults are retried
/// per the [`RetryPolicy`], fatal faults abort the pass (see the module
/// docs). Use via [`run_fallible`].
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

    /// Handles a fatal error: aborts the pass by unwinding with
    /// [`StoreAbort`] — unless the thread is already unwinding (a write-back
    /// racing an abort), in which case the error is counted and swallowed to
    /// avoid a double panic.
    fn fatal(&mut self, err: StoreError) -> bool {
        if std::thread::panicking() {
            self.stats.suppressed_errors += 1;
            return false;
        }
        std::panic::panic_any(StoreAbort(err));
    }

    fn note_retry(&mut self, attempt: u32) {
        self.stats.retries += 1;
        self.stats.backoff_units += self.policy.backoff_for(attempt);
    }
}

impl<S: BlockStore> BlockStore for RetryingStore<'_, S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }

    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        let mut attempt = 0u32;
        loop {
            match self.inner.try_load_block(h, i) {
                Ok(blk) => return blk,
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.note_retry(attempt);
                }
                Err(e) => {
                    self.fatal(e);
                    // Unwinding-suppressed fatal read: serve dummies; the
                    // pass is already aborting, nothing consumes them.
                    return Block::empty(self.inner.block_elems());
                }
            }
        }
    }

    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        let mut attempt = 0u32;
        loop {
            match self.inner.try_store_block(h, i, blk.clone()) {
                Ok(()) => return,
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.note_retry(attempt);
                }
                Err(e) => {
                    self.fatal(e);
                    return;
                }
            }
        }
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
}

/// Reader over a retrying store: transient fetch failures are re-issued up
/// to the policy's retry cap, exactly like the foreground — the retry count
/// is a function of the (seeded) fault schedule only, never of the data, so
/// reader retries keep traces data-independent.
/// Reader retries are not counted in the foreground [`RetryStats`] (readers
/// share no state with the store); fatal errors are returned as values, not
/// unwound — the prefetch protocol parks them for the foreground to surface.
#[derive(Debug)]
pub struct RetryingReader<R: PrefetchRead> {
    inner: R,
    policy: RetryPolicy,
}

impl<R: PrefetchRead> RetryingReader<R> {
    fn retry(
        &mut self,
        addr: usize,
        first: Result<Block, StoreError>,
    ) -> Result<Block, StoreError> {
        let mut res = first;
        let mut attempt = 0u32;
        loop {
            match res {
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    res = self.inner.fetch(addr);
                }
                other => return other,
            }
        }
    }
}

impl<R: PrefetchRead> PrefetchRead for RetryingReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let first = self.inner.fetch(addr);
        self.retry(addr, first)
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        // One span fetch, then per-block retries of whatever came back
        // transient — the run shape stays data-independent because which
        // entries are transient is decided by the server, not the data.
        self.inner
            .fetch_run(start, count)
            .into_iter()
            .enumerate()
            .map(|(k, res)| self.retry(start + k, res))
            .collect()
    }
}

impl<S: BlockStore + Prefetchable> Prefetchable for RetryingStore<'_, S> {
    type Reader = RetryingReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        RetryingReader {
            inner: self.inner.reader(),
            policy: self.policy,
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }

    /// Retries the *whole run* on a transient failure — runs are re-issued
    /// verbatim (same addresses, same contents), so the retry schedule stays
    /// data-independent. Unlike the infallible foreground ops this returns
    /// fatal errors as values rather than unwinding: the span path is driven
    /// by the prefetch adapter's write-behind flush, which handles `Result`s.
    fn store_run(&mut self, start: usize, mut blks: Vec<Block>) -> Result<(), StoreError> {
        let mut attempt = 0u32;
        loop {
            let last = attempt >= self.policy.max_retries;
            let batch = if last {
                std::mem::take(&mut blks)
            } else {
                blks.clone()
            };
            match self.inner.store_run(start, batch) {
                Ok(()) => {
                    // The clones were consumed; recycle the originals kept
                    // around for potential retries.
                    for blk in blks {
                        self.inner.recycle(blk);
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && !last => {
                    attempt += 1;
                    self.note_retry(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Runs `f` — any algorithm written against the infallible [`BlockStore`]
/// interface — over a fallible store, retrying transients per `policy` and
/// converting the first fatal [`StoreError`] into an `Err` instead of a
/// panic.
///
/// On `Err`, the contents of the arrays the algorithm touched are
/// unspecified (the pass aborted mid-routing); the store itself remains
/// usable. Panics that are not store aborts (logic errors, bad arguments)
/// propagate unchanged.
pub fn run_fallible<S: BlockStore, R>(
    store: &mut S,
    policy: RetryPolicy,
    f: impl FnOnce(&mut RetryingStore<'_, S>) -> R,
) -> Result<(R, RetryStats), StoreError> {
    let mut retrying = RetryingStore::new(store, policy);
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut retrying)));
    let stats = retrying.stats();
    match outcome {
        Ok(r) => Ok((r, stats)),
        Err(payload) => match payload.downcast::<StoreAbort>() {
            Ok(abort) => Err(abort.0),
            Err(other) => resume_unwind(other),
        },
    }
}

/// Replaces the panic hook with one that stays silent for [`StoreAbort`]
/// unwinds (they are control flow, caught by [`run_fallible`]) and for
/// [`InjectedCrash`](crate::file::InjectedCrash) unwinds (deliberate
/// simulated power-cuts, caught by the crash-consistency tests), deferring
/// to the previous hook for everything else. Call once at binary start-up;
/// tests don't need it because the harness captures panic output.
pub fn install_quiet_abort_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if payload.downcast_ref::<StoreAbort>().is_none()
            && payload
                .downcast_ref::<crate::file::InjectedCrash>()
                .is_none()
        {
            previous(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Cell, Element};
    use crate::mem::ExtMem;
    use std::collections::{HashMap, VecDeque};
    use std::sync::{Arc, Mutex};

    /// A scripted flaky store: pops one error per fallible op from a queue;
    /// an empty queue means success.
    struct Scripted {
        mem: ExtMem,
        read_errs: VecDeque<Option<StoreError>>,
        write_errs: VecDeque<Option<StoreError>>,
        /// One scripted outcome per `store_run` attempt.
        run_errs: VecDeque<Option<StoreError>>,
        /// Blocks landed via `store_run`, visible to scripted readers.
        spans: Arc<Mutex<HashMap<usize, Block>>>,
        /// One scripted outcome per reader fetch.
        fetch_errs: Arc<Mutex<VecDeque<Option<StoreError>>>>,
    }

    impl Scripted {
        fn new(b: usize) -> Self {
            Scripted {
                mem: ExtMem::new(b),
                read_errs: VecDeque::new(),
                write_errs: VecDeque::new(),
                run_errs: VecDeque::new(),
                spans: Arc::new(Mutex::new(HashMap::new())),
                fetch_errs: Arc::new(Mutex::new(VecDeque::new())),
            }
        }
    }

    struct ScriptedReader {
        spans: Arc<Mutex<HashMap<usize, Block>>>,
        fetch_errs: Arc<Mutex<VecDeque<Option<StoreError>>>>,
        b: usize,
    }

    impl PrefetchRead for ScriptedReader {
        fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
            if let Some(e) = self.fetch_errs.lock().unwrap().pop_front().flatten() {
                return Err(e);
            }
            Ok(self
                .spans
                .lock()
                .unwrap()
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| Block::empty(self.b)))
        }
    }

    impl Prefetchable for Scripted {
        type Reader = ScriptedReader;
        fn reader(&self) -> ScriptedReader {
            ScriptedReader {
                spans: Arc::clone(&self.spans),
                fetch_errs: Arc::clone(&self.fetch_errs),
                b: self.mem.block_elems(),
            }
        }
        fn supports_store_runs(&self) -> bool {
            true
        }
        fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
            if let Some(e) = self.run_errs.pop_front().flatten() {
                return Err(e);
            }
            let mut spans = self.spans.lock().unwrap();
            for (k, blk) in blks.into_iter().enumerate() {
                spans.insert(start + k, blk);
            }
            Ok(())
        }
    }

    impl BlockStore for Scripted {
        fn block_elems(&self) -> usize {
            self.mem.block_elems()
        }
        fn alloc_array(&mut self, len: usize) -> ArrayHandle {
            self.mem.alloc_array(len)
        }
        fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
            self.mem.read_block(h, i)
        }
        fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
            self.mem.write_block(h, i, blk);
        }
        fn io_stats(&self) -> IoStats {
            self.mem.stats()
        }
        fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
            let blk = self.load_block(h, i);
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
                None => {
                    self.store_block(h, i, blk);
                    Ok(())
                }
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
        let (got, stats) =
            run_fallible(&mut s, RetryPolicy::default(), |rs| rs.load_span(&h, 0, 4)).unwrap();
        assert_eq!(got, cells(4));
        assert_eq!(stats.retries, 2);
        // Exponential backoff: 1 + 2 units.
        assert_eq!(stats.backoff_units, 3);
        assert_eq!(stats.suppressed_errors, 0);
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
        let err = run_fallible(&mut s, policy, |rs| rs.load_block(&h, 0)).unwrap_err();
        assert_eq!(err, StoreError::Transient { addr: 7 });
        // 1 initial attempt + 3 retries, all charged.
        assert_eq!(s.io_stats().reads, 4);
    }

    #[test]
    fn fatal_errors_abort_immediately_without_retries() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.read_errs
            .push_back(Some(StoreError::Corrupted { addr: 2 }));
        let err = run_fallible(&mut s, RetryPolicy::default(), |rs| {
            rs.load_block(&h, 0);
            unreachable!("the pass must abort at the corrupted read");
        })
        .unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 2 });
        assert_eq!(s.io_stats().reads, 1, "no retry of a fatal error");
    }

    #[test]
    fn write_retries_reissue_the_same_block() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.write_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        let ((), stats) = run_fallible(&mut s, RetryPolicy::default(), |rs| {
            rs.store_span(&h, 0, &cells(4));
        })
        .unwrap();
        assert_eq!(stats.retries, 1);
        assert_eq!(s.load_span(&h, 0, 4), cells(4));
    }

    #[test]
    #[should_panic(expected = "a genuine logic error")]
    fn non_abort_panics_propagate_unchanged() {
        let mut s = Scripted::new(4);
        let _ = run_fallible(&mut s, RetryPolicy::default(), |_| {
            panic!("a genuine logic error");
        });
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
    fn span_writes_are_retried_whole_and_reissued_verbatim() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 8);
        let start = h.global_block(0);
        // Two transient failures, then the run lands.
        s.run_errs
            .push_back(Some(StoreError::Transient { addr: start }));
        s.run_errs
            .push_back(Some(StoreError::Transient { addr: start }));
        let blks: Vec<Block> = cells(8).chunks(4).map(Block::from_cells).collect();
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        rs.store_run(start, blks.clone()).unwrap();
        assert_eq!(rs.stats().retries, 2);
        // The whole run was re-issued verbatim: every block landed intact.
        let mut reader = rs.reader();
        for (k, blk) in blks.iter().enumerate() {
            assert_eq!(&reader.fetch(start + k).unwrap(), blk);
        }
    }

    #[test]
    fn fatal_span_write_errors_are_typed_values_not_unwinds() {
        // Unlike the infallible foreground ops, the span path must hand the
        // error back to the write-behind flusher instead of panicking.
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        let start = h.global_block(0);
        s.run_errs
            .push_back(Some(StoreError::Corrupted { addr: start }));
        let blks: Vec<Block> = cells(4).chunks(4).map(Block::from_cells).collect();
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        let err = rs.store_run(start, blks).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: start });
        assert_eq!(rs.stats().retries, 0, "fatal errors are never retried");
    }

    #[test]
    fn reader_retries_transient_fetches_up_to_the_policy_cap() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        let start = h.global_block(0);
        let blks: Vec<Block> = cells(4).chunks(4).map(Block::from_cells).collect();
        let mut rs = RetryingStore::new(&mut s, RetryPolicy::default());
        rs.store_run(start, blks.clone()).unwrap();
        // Two transients, then the fetch succeeds.
        rs.inner.fetch_errs.lock().unwrap().extend([
            Some(StoreError::Transient { addr: start }),
            Some(StoreError::Transient { addr: start }),
        ]);
        let mut reader = rs.reader();
        assert_eq!(reader.fetch(start).unwrap(), blks[0]);
        // A no-retries policy surfaces the first transient instead.
        let strict = RetryingStore::new(rs.inner, RetryPolicy::no_retries());
        strict
            .inner
            .fetch_errs
            .lock()
            .unwrap()
            .push_back(Some(StoreError::Transient { addr: start }));
        let mut reader = strict.reader();
        assert!(reader.fetch(start).unwrap_err().is_transient());
    }

    #[test]
    fn no_retries_policy_fails_on_first_transient() {
        let mut s = Scripted::new(4);
        let h = BlockStore::alloc_array(&mut s, 4);
        s.read_errs
            .push_back(Some(StoreError::Transient { addr: 0 }));
        let err =
            run_fallible(&mut s, RetryPolicy::no_retries(), |rs| rs.load_block(&h, 0)).unwrap_err();
        assert!(err.is_transient());
    }
}

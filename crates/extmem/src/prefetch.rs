//! [`PrefetchingStore`]: shape-derived read-ahead over a file-backed store.
//!
//! The oblivious algorithms in this workspace have a property a normal
//! program does not: **every pass knows its entire block-read schedule
//! before it starts**, because the schedule is a function of the input
//! *shape* alone (that is the definition of data-obliviousness). A pass can
//! therefore announce its schedule up front via
//! [`BlockStore::hint_blocks`], and this adapter turns those hints into
//! coalesced reads on the caller's thread: the first load of a hinted block
//! reads the whole contiguous hinted run with one positioned span read
//! ([`PrefetchRead::fetch_run`]) and parks the tail until the algorithm asks
//! for it. A block read costs about a microsecond from a fast device or the
//! page cache, so one syscall per run instead of one per block is the
//! payoff; everything runs on the thread that calls the store.
//!
//! ## Why this is oblivious
//!
//! The server-visible read set is exactly the hinted schedule plus the
//! foreground's residual misses — all derived from shape, never from data.
//! Prefetching reorders *when* physical reads happen, but the logical trace
//! (what the algorithm asked for, in order) is recorded by this adapter
//! itself and is byte-identical to the trace the same run leaves over
//! [`ExtMem`](crate::mem::ExtMem); the trace-parity battery asserts this for
//! every primitive. For the one data-dependent schedule in the workspace —
//! the bucket sort's final multi-way merge — hints cover a fixed-depth
//! window of each run cursor's own upcoming blocks, so the physical reads
//! stay within the run set the cursor-advance schedule (already visible in
//! the trace) determines; only the lookahead depth differs from what the
//! merge itself does. The same argument covers write-behind: buffered
//! writes land at the same addresses a write-through run touches, merely
//! batched later into span writes.
//!
//! ## Consistency protocol
//!
//! Per global address the adapter tracks one slot: a hint marks it
//! `Queued`, and the read that serves it leaves `Ready | Failed`.
//!
//! * [`BlockStore::load_block`] takes `Ready` blocks for free ("hit") and
//!   surfaces a parked `Failed` read as its error. A `Queued` load is a
//!   *steal*: it reads the contiguous hinted run starting at the address
//!   with one span read, returns the first block and parks the rest as
//!   `Ready | Failed`. Any other load is a synchronous read ("miss").
//! * [`BlockStore::store_block`] invalidates any slot for the address, so a
//!   stale prefetch can never be served after a write. (The pass structure
//!   already guarantees every hinted block is consumed before the pass
//!   writes it back; this is the safety net.) Over a store with span-write
//!   support ([`Prefetchable::store_run`]) the write then parks in a
//!   bounded *write-behind buffer* — its slot marked `Buffered`, which
//!   hints and steals skip — and is flushed as one positioned span write
//!   per maximal contiguous run when the buffer fills, on
//!   [`PrefetchingStore::flush_writes`] / [`PrefetchingStore::inner_mut`],
//!   or on drop. Loads of a buffered address are served from the buffer
//!   (read-your-writes), never from the stale file copy.
//! * Steals respect `max_ready`: parked blocks never exceed it, bounding the
//!   adapter's memory at `(max_ready + write_buffer) · B` cells. This budget
//!   is accounted against the client's private memory `M` by the callers
//!   that size it.

use crate::block::Block;
use crate::error::StoreError;
use crate::mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, IoStats};
use crate::store::BlockStore;

/// A block reader detached from its store: the half of a store the adapter
/// steals hinted runs through. Positioned reads must be independent of the
/// store's own I/O (no shared seek cursor).
pub trait PrefetchRead: Send + 'static {
    /// Reads and decodes the block at global address `addr`.
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError>;

    /// Reads and decodes `count` consecutive blocks starting at `start`.
    /// The default loops [`fetch`](PrefetchRead::fetch); implementations
    /// with positioned I/O should override it with one span read so a
    /// sequential schedule costs one syscall per batch instead of one per
    /// block.
    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        (start..start + count).map(|a| self.fetch(a)).collect()
    }
}

/// A store that can hand out independent readers; implementing this is what
/// makes a store wrappable by [`PrefetchingStore`].
pub trait Prefetchable: BlockStore {
    /// The reader type steals go through.
    type Reader: PrefetchRead;

    /// Creates a reader sharing this store's file and buffer pool.
    fn reader(&self) -> Self::Reader;

    /// True when [`store_run`](Prefetchable::store_run) performs a real
    /// positioned span write. Gates the adapter's write-behind buffer: a
    /// store that leaves this `false` gets plain write-through.
    fn supports_store_runs(&self) -> bool {
        false
    }

    /// Writes `blks` to consecutive global addresses starting at `start`
    /// (one positioned write for the whole run), recycling the buffers.
    /// Only called when [`supports_store_runs`](Prefetchable::supports_store_runs)
    /// returns true.
    ///
    /// The default body is for stores that never advertise span-write
    /// support: a wrapper that calls it anyway (misreporting
    /// `supports_store_runs`) gets a typed [`StoreError::Corrupted`] for the
    /// run's first address — the write was *not* performed — rather than a
    /// process-killing panic. Debug builds additionally `debug_assert` so
    /// the misbehavior is loud under test.
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        debug_assert!(
            false,
            "store_run requires supports_store_runs() == true (run of {} at {start})",
            blks.len()
        );
        drop(blks);
        Err(StoreError::Corrupted { addr: start })
    }
}

/// Tuning knobs for the read-ahead adapter.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Maximum decoded blocks parked awaiting consumption.
    pub max_ready: usize,
    /// Write-behind buffer capacity in blocks (0 disables). Stores are
    /// accepted into the buffer and flushed as coalesced span writes — one
    /// positioned write per maximal contiguous run — once it fills, on
    /// [`PrefetchingStore::flush_writes`], or on drop. Only effective over
    /// stores whose [`Prefetchable::supports_store_runs`] is true.
    pub write_buffer: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            max_ready: 64,
            write_buffer: 64,
        }
    }
}

/// Counters describing how effective the read-ahead was.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Loads served from a block parked by an earlier steal.
    pub hits: u64,
    /// Loads with no matching hint: synchronous read.
    pub misses: u64,
    /// Loads that found their hint queued and read the contiguous hinted
    /// run from there with one span read.
    pub steals: u64,
    /// Always 0: every read runs on the caller's thread, so a load never
    /// waits for another one. Kept so stats consumers stay unchanged.
    pub waits: u64,
    /// Parked or queued blocks invalidated by a foreground write.
    pub invalidated: u64,
    /// Hints accepted (addresses newly marked queued).
    pub hinted: u64,
    /// Loads served by cloning a block still parked in the write-behind
    /// buffer (read-your-writes without touching the file).
    pub wb_hits: u64,
    /// Physical span writes issued by write-behind flushes (each covers one
    /// maximal contiguous run of buffered addresses).
    pub write_spans: u64,
}

#[derive(Debug)]
enum Slot {
    /// No hint outstanding for this address.
    Empty,
    /// Hinted and not read yet.
    Queued,
    Ready(Block),
    Failed(StoreError),
    /// The newest content for this address sits in the adapter's
    /// write-behind buffer; the file copy is stale until the next flush.
    /// Hints and steals skip this state.
    Buffered,
}

/// Most blocks one steal reads. Bounds the span read a single load can
/// trigger, so a deep hint schedule is consumed in runs of this length.
const MAX_STEAL_RUN: usize = 16;

/// The read-ahead adapter. Wraps any [`Prefetchable`] store and honors
/// [`BlockStore::hint_blocks`] schedules with coalesced span reads; see the
/// module docs for the protocol and obliviousness argument.
#[derive(Debug)]
pub struct PrefetchingStore<S: Prefetchable> {
    inner: S,
    /// Per-address slot state, indexed by global block address. The file's
    /// address space is dense and small, so a flat vector keeps the hot
    /// hit path at an indexed load instead of a hash lookup.
    slots: Vec<Slot>,
    /// Decoded blocks parked in `slots`; never exceeds `max_ready`.
    ready: usize,
    max_ready: usize,
    /// Reader for steals (span reads of hinted runs).
    fg_reader: S::Reader,
    /// Logical I/O counters: what the algorithm asked for, independent of
    /// which physical read served it.
    stats: IoStats,
    trace: Option<AccessTrace>,
    prefetch_stats: PrefetchStats,
    /// Write-behind buffer: `(global address, newest block)` pairs, flushed
    /// as coalesced span writes. Every entry has its slot set to
    /// [`Slot::Buffered`], which is what keeps hints and steals away.
    wb: Vec<(usize, Block)>,
    /// Capacity of `wb`; 0 when the inner store has no span-write support.
    wb_cap: usize,
}

impl<S: Prefetchable> PrefetchingStore<S> {
    /// Wraps `inner` with the default configuration.
    pub fn new(inner: S) -> Self {
        Self::with_config(inner, PrefetchConfig::default())
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: S, cfg: PrefetchConfig) -> Self {
        assert!(cfg.max_ready >= 1, "prefetching needs a ready budget");
        let fg_reader = inner.reader();
        let wb_cap = if inner.supports_store_runs() {
            cfg.write_buffer
        } else {
            0
        };
        PrefetchingStore {
            inner,
            slots: Vec::new(),
            ready: 0,
            max_ready: cfg.max_ready,
            fg_reader,
            stats: IoStats::default(),
            trace: None,
            prefetch_stats: PrefetchStats::default(),
            wb: Vec::with_capacity(wb_cap),
            wb_cap,
        }
    }

    /// The wrapped store. NOTE: does *not* flush the write-behind buffer —
    /// pending writes are not yet visible through the inner store. Use
    /// [`inner_mut`](PrefetchingStore::inner_mut) (which flushes) or
    /// [`flush_writes`](PrefetchingStore::flush_writes) before reading the
    /// inner store's contents directly.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store, after flushing the write-behind
    /// buffer so the inner store reflects every accepted write.
    pub fn inner_mut(&mut self) -> &mut S {
        self.flush_writes()
            .unwrap_or_else(|e| panic!("PrefetchingStore: write-behind flush failed: {e}"));
        &mut self.inner
    }

    /// Writes every buffered block back to the wrapped store, coalescing
    /// contiguous addresses into single span writes. A no-op when nothing
    /// is buffered; returns the first error a span (or its per-block retry)
    /// surfaces.
    pub fn flush_writes(&mut self) -> Result<(), StoreError> {
        if self.wb.is_empty() {
            return Ok(());
        }
        let mut wb = std::mem::take(&mut self.wb);
        wb.sort_by_key(|(a, _)| *a);
        for (a, _) in &wb {
            debug_assert!(matches!(self.slot(*a), Slot::Buffered));
            self.set(*a, Slot::Empty);
        }
        let mut first_err = None;
        let mut iter = wb.into_iter().peekable();
        while let Some((start, blk)) = iter.next() {
            let mut run = vec![blk];
            let mut next = start + 1;
            while iter.peek().is_some_and(|(a, _)| *a == next) {
                run.push(iter.next().expect("peeked").1);
                next += 1;
            }
            self.prefetch_stats.write_spans += 1;
            if let Err(e) = self.inner.store_run(start, run) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Accepts a write into the write-behind buffer (the newest content for
    /// `addr` now lives here; any prefetch state for it is invalidated) and
    /// flushes when the buffer fills.
    fn buffer_write(&mut self, addr: usize, blk: Block) -> Result<(), StoreError> {
        if matches!(self.slot(addr), Slot::Buffered) {
            let entry = self
                .wb
                .iter_mut()
                .find(|(a, _)| *a == addr)
                .expect("Buffered slot implies a buffer entry");
            let old = std::mem::replace(&mut entry.1, blk);
            self.inner.recycle(old);
            return Ok(());
        }
        self.invalidate(addr);
        self.set(addr, Slot::Buffered);
        self.wb.push((addr, blk));
        if self.wb.len() >= self.wb_cap {
            self.flush_writes()?;
        }
        Ok(())
    }

    /// Read-ahead effectiveness counters.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Starts recording the *logical* access trace — the algorithm's request
    /// order, byte-identical to the trace the same run leaves over a
    /// non-prefetching store.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the captured logical trace, if any.
    pub fn take_trace(&mut self) -> Option<AccessTrace> {
        self.trace.take()
    }

    fn record(&mut self, op: AccessOp, addr: usize) {
        match op {
            AccessOp::Read => self.stats.reads += 1,
            AccessOp::Write => self.stats.writes += 1,
        }
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { op, addr });
        }
    }

    /// The slot for `addr` (addresses past the vector are `Empty`).
    fn slot(&self, addr: usize) -> &Slot {
        self.slots.get(addr).unwrap_or(&Slot::Empty)
    }

    /// Sets the slot for `addr`, growing the vector on first touch.
    fn set(&mut self, addr: usize, s: Slot) {
        if self.slots.len() <= addr {
            self.slots.resize_with(addr + 1, || Slot::Empty);
        }
        self.slots[addr] = s;
    }

    /// Removes and returns the slot for `addr`, leaving it `Empty`.
    fn take_slot(&mut self, addr: usize) -> Slot {
        match self.slots.get_mut(addr) {
            Some(s) => std::mem::replace(s, Slot::Empty),
            None => Slot::Empty,
        }
    }

    fn take_prefetched(&mut self, addr: usize) -> Option<Result<Block, StoreError>> {
        match self.take_slot(addr) {
            Slot::Empty => {
                self.prefetch_stats.misses += 1;
                None
            }
            Slot::Queued => Some(self.steal(addr)),
            Slot::Ready(blk) => {
                self.ready -= 1;
                self.prefetch_stats.hits += 1;
                Some(Ok(blk))
            }
            Slot::Failed(e) => Some(Err(e)),
            Slot::Buffered => {
                // Read-your-writes: the newest content is still in the
                // write-behind buffer — serve a copy without touching the
                // file (the entry remains the durable source until flushed).
                self.set(addr, Slot::Buffered);
                self.prefetch_stats.wb_hits += 1;
                let blk = self
                    .wb
                    .iter()
                    .find(|(a, _)| *a == addr)
                    .expect("Buffered slot implies a buffer entry")
                    .1
                    .clone();
                Some(Ok(blk))
            }
        }
    }

    /// Reads the contiguous hinted run starting at `addr` (whose slot the
    /// caller already took) with one span read, returns its first block and
    /// parks the tail within the ready budget.
    fn steal(&mut self, addr: usize) -> Result<Block, StoreError> {
        let spare = self.max_ready - self.ready;
        let mut run = 1usize;
        while run < MAX_STEAL_RUN && run <= spare && matches!(self.slot(addr + run), Slot::Queued) {
            run += 1;
        }
        self.prefetch_stats.steals += 1;
        let mut results = self.fg_reader.fetch_run(addr, run).into_iter();
        let first = results
            .next()
            .expect("fetch_run returns one result per block");
        for (a, res) in (addr + 1..).zip(results) {
            let slot = match res {
                Ok(blk) => {
                    self.ready += 1;
                    Slot::Ready(blk)
                }
                Err(e) => Slot::Failed(e),
            };
            self.set(a, slot);
        }
        first
    }

    /// Drops any prefetch state for `addr` ahead of a write.
    fn invalidate(&mut self, addr: usize) {
        match self.take_slot(addr) {
            Slot::Empty => return,
            Slot::Ready(_) => self.ready -= 1,
            Slot::Queued | Slot::Failed(_) => {}
            Slot::Buffered => unreachable!("buffer_write handles buffered addresses first"),
        }
        self.prefetch_stats.invalidated += 1;
    }
}

impl<S: Prefetchable> Drop for PrefetchingStore<S> {
    fn drop(&mut self) {
        // Best-effort durability: a flush error cannot surface from Drop,
        // but callers that care read back through `inner_mut`/`flush_writes`
        // first, which do propagate it.
        let _ = self.flush_writes();
    }
}

impl<S: Prefetchable> BlockStore for PrefetchingStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        for &i in blocks {
            let addr = h.global_block(i);
            if matches!(self.slot(addr), Slot::Empty) {
                self.set(addr, Slot::Queued);
                self.prefetch_stats.hinted += 1;
            }
        }
    }

    fn recycle(&mut self, blk: Block) {
        self.inner.recycle(blk);
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        let blk = match self.take_prefetched(addr) {
            Some(res) => res?,
            None => self.inner.try_load_block(h, i)?,
        };
        self.record(AccessOp::Read, addr);
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_block(i)?;
        if self.wb_cap == 0 {
            self.invalidate(addr);
            self.inner.try_store_block(h, i, blk)?;
        } else {
            self.buffer_write(addr, blk)?;
        }
        self.record(AccessOp::Write, addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Cell, Element};
    use crate::file::FileStore;

    fn e(k: u64) -> Element {
        Element::new(k, k + 1000)
    }

    fn temp_prefetching(b: usize) -> PrefetchingStore<FileStore> {
        PrefetchingStore::new(FileStore::temp(b).expect("temp file"))
    }

    #[test]
    fn unhinted_loads_are_plain_misses() {
        let mut store = temp_prefetching(4);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>());
        for i in 0..4 {
            assert_eq!(store.load_block(&h, i).occupied()[0], e(i as u64 * 4));
        }
        let ps = store.prefetch_stats();
        assert_eq!(ps.misses, 4);
        assert_eq!(ps.hits, 0);
    }

    #[test]
    fn hinted_blocks_are_served_and_correct() {
        let mut store = temp_prefetching(4);
        let cells: Vec<Cell> = (0..64).map(|k| Some(e(k))).collect();
        let h = store.inner_mut().alloc_array_from_cells(&cells);
        let schedule: Vec<usize> = (0..h.n_blocks()).collect();
        store.hint_blocks(&h, &schedule);
        let mut out = Vec::new();
        for i in 0..h.n_blocks() {
            out.extend(store.load_block(&h, i).occupied());
        }
        assert_eq!(out, (0..64).map(e).collect::<Vec<_>>());
        let ps = store.prefetch_stats();
        assert_eq!(ps.hinted, 16);
        assert_eq!(
            ps.misses, 0,
            "every load was covered by the schedule, got {ps:?}"
        );
        assert_eq!(ps.hits + ps.steals, 16);
    }

    #[test]
    fn writes_invalidate_parked_prefetches() {
        let mut store = temp_prefetching(2);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        store.hint_blocks(&h, &[0, 1, 2, 3]);
        // Loading block 0 steals the whole hinted run and parks blocks 1..4.
        assert_eq!(store.load_block(&h, 0).get(0), Some(e(0)));
        assert_eq!(store.prefetch_stats().steals, 1);
        let mut blk = Block::empty(2);
        blk.set(0, Some(e(777)));
        store.store_block(&h, 1, blk);
        assert_eq!(store.prefetch_stats().invalidated, 1);
        assert_eq!(store.load_block(&h, 1).get(0), Some(e(777)));
    }

    #[test]
    fn logical_stats_count_requests_not_physical_reads() {
        let mut store = temp_prefetching(4);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
        store.hint_blocks(&h, &(0..8).collect::<Vec<_>>());
        for i in 0..8 {
            let blk = store.load_block(&h, i);
            store.recycle(blk);
        }
        assert_eq!(store.io_stats().reads, 8);
    }

    #[test]
    fn logical_trace_is_identical_to_an_unprefetched_run() {
        let run = |hint: bool| {
            let mut store = temp_prefetching(4);
            store.enable_trace();
            let h = store
                .inner_mut()
                .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
            if hint {
                store.hint_blocks(&h, &(0..8).collect::<Vec<_>>());
            }
            for i in 0..8 {
                let mut blk = store.load_block(&h, i);
                blk.set(0, Some(e(1)));
                store.store_block(&h, i, blk);
            }
            store.take_trace().unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    /// A store that implements [`Prefetchable`] but never advertises (or
    /// overrides) span writes — the shape of a minimal custom wrapper.
    struct NoRuns(crate::mem::ExtMem);

    struct NoRunsReader;

    impl PrefetchRead for NoRunsReader {
        fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
            Err(StoreError::Transient { addr })
        }
    }

    impl BlockStore for NoRuns {
        fn block_elems(&self) -> usize {
            self.0.block_elems()
        }
        fn alloc_array(&mut self, len: usize) -> ArrayHandle {
            self.0.alloc_array(len)
        }
        fn io_stats(&self) -> IoStats {
            self.0.stats()
        }
        fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
            self.0.try_load_block(h, i)
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

    impl Prefetchable for NoRuns {
        type Reader = NoRunsReader;
        fn reader(&self) -> NoRunsReader {
            NoRunsReader
        }
    }

    /// Regression: the default `store_run` body used to be `unreachable!`,
    /// so a wrapper that misreported `supports_store_runs` panicked instead
    /// of erroring. It must now surface a typed error (and only
    /// `debug_assert` in debug builds).
    #[test]
    fn default_store_run_is_a_typed_error_not_an_unconditional_panic() {
        let mut s = NoRuns(crate::mem::ExtMem::new(2));
        assert!(!s.supports_store_runs());
        #[cfg(debug_assertions)]
        {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.store_run(3, vec![Block::empty(2)])
            }));
            assert!(r.is_err(), "debug builds assert loudly");
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(
                s.store_run(3, vec![Block::empty(2)]),
                Err(StoreError::Corrupted { addr: 3 }),
                "release builds report a typed error for the run start"
            );
        }
    }

    #[test]
    fn stale_hints_left_behind_do_not_leak_on_drop() {
        let mut store = temp_prefetching(2);
        let h = store.inner_mut().alloc_array(64);
        store.hint_blocks(&h, &(0..32).collect::<Vec<_>>());
        // Never consume them; drop must release the queued slots cleanly.
        drop(store);
    }
}

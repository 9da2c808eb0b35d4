//! [`PrefetchingStore`]: shape-derived read-ahead and write-behind over any
//! store with a span path.
//!
//! The oblivious algorithms in this workspace have a property a normal
//! program does not: **every pass knows its entire block-read schedule
//! before it starts**, because the schedule is a function of the input
//! *shape* alone (that is the definition of data-obliviousness). A pass can
//! therefore announce its schedule up front via
//! [`BlockStore::hint_blocks`], and this adapter turns those hints into
//! coalesced reads on the caller's thread: the first load of a hinted block
//! reads the whole contiguous hinted run with one span read of the wrapped
//! store ([`BlockStore::try_load_span`]) and parks the tail until the
//! algorithm asks for it. A block read costs about a microsecond from a
//! fast device or the page cache, so one syscall per run instead of one per
//! block is the payoff; everything runs on the thread that calls the store.
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
//! `Queued`, the span read that serves it leaves it `Ready` with the block,
//! and an accepted write leaves it `Buffered` with the newest block.
//!
//! * [`BlockStore::try_load_block`] takes `Ready` blocks for free ("hit").
//!   A `Queued` load is a *steal*: it reads the contiguous hinted run
//!   starting at the address, inside its array, with one span read, returns
//!   the first block and parks the rest as `Ready`. A failed span read makes
//!   the steal a miss: the demanded block is read alone and the rest of the
//!   run goes back to `Empty`, so an error surfaces at the load of the block
//!   that caused it. Any other load is a single-block read ("miss").
//! * [`BlockStore::try_store_block`] invalidates any slot for the address,
//!   so a stale prefetch can never be served after a write. (The pass
//!   structure already guarantees every hinted block is consumed before the
//!   pass writes it back; this is the safety net.) The write then parks in
//!   its slot, marked `Buffered`, which hints and steals skip, and its
//!   address joins a bounded *write-behind buffer*; a later write of the
//!   same address replaces the block in the slot. The buffer is flushed as
//!   one span write per maximal run of consecutive blocks of one array when
//!   it fills, on [`PrefetchingStore::flush_writes`] /
//!   [`PrefetchingStore::inner_mut`], or on drop. Loads of a buffered
//!   address are served from its slot (read-your-writes), never from the
//!   stale server copy. A flush that fails leaves every block the wrapped
//!   store did not count as written buffered, so no accepted write is
//!   lost. A write that finds the buffer full (after a failed flush)
//!   flushes first and is refused with that flush's error if it fails
//!   again; the buffer never exceeds `write_buffer` blocks, and only
//!   accepted writes are recorded.
//! * Every write is checked with the wrapped store's
//!   [`BlockStore::check_write`] when it is accepted, so a block a lower
//!   layer would refuse (an over-wide payload under
//!   [`EncryptedStore`](crate::crypto::EncryptedStore)) is refused at once,
//!   never at a later flush.
//! * [`BlockStore::try_store_span`] buffers a span that covers fewer than
//!   `write_buffer` whole blocks block by block, exactly as that many
//!   block stores would be, so short spans coalesce with their neighbours
//!   at the next flush. A longer span writes through: the blocks it covers
//!   whole go straight to the wrapped store's span path, in runs of at
//!   most `write_buffer` blocks. A run first invalidates any parked or
//!   queued slot of its addresses, and once it lands, the buffered blocks
//!   it superseded leave the buffer unwritten. Only the blocks the wrapped
//!   store counted as written are recorded, so a run that fails part-way
//!   stops the logical counters where the per-block path would have
//!   stopped, and a buffered block whose replacement never landed stays
//!   buffered: it is still the newest write accepted for its address.
//! * [`BlockStore::try_load_span`] serves the blocks it covers whole that
//!   the adapter holds — parked (a hit) or buffered (a `wb_hit`) — from the
//!   adapter, steals from a hinted block as a block load would, and reads
//!   every other run of them with one span read of the wrapped store of at
//!   most `max_ready` blocks, straight into the result (one steal, plus one
//!   hit per further block). A failed span read falls back to single-block
//!   reads of its run, each a miss. Only a steal parks blocks, so a span
//!   load over unhinted blocks needs no ready budget.
//! * Span reads and writes move whole blocks only: an array's partial last
//!   block, and any block a span covers in part, goes through the
//!   single-block ops, so every layer below sees the same block counts
//!   whichever way a block travels. Both span ops record the same logical
//!   trace and I/O counters as the per-block defaults.
//! * Steals respect `max_ready`: parked blocks never exceed it. A steal cuts
//!   its span into spare block buffers — the ones write-behind flushes and
//!   [`BlockStore::recycle`] hands the adapter — from a free list that,
//!   together with the parked blocks, holds at most `max_ready` buffers.
//!   That bounds the adapter's memory at `(max_ready + write_buffer) · B`
//!   cells. This budget is accounted against the client's private memory
//!   `M` by the callers that size it.

use std::ops::Range;

use crate::block::Block;
use crate::element::Cell;
use crate::error::StoreError;
use crate::mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, IoStats};
use crate::store::{load_span_with, store_span_with, BlockStore};

/// A block reader detached from its store.
///
/// Nothing in this crate implements or calls this trait or [`Prefetchable`]:
/// [`PrefetchingStore`] steals and writes behind through the span ops of
/// [`BlockStore`]. The declarations remain for external wrappers that still
/// implement them.
pub trait PrefetchRead: Send + 'static {
    /// Reads and decodes the block at global address `addr`.
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError>;

    /// Reads and decodes `count` consecutive blocks starting at `start`;
    /// the default loops [`fetch`](PrefetchRead::fetch).
    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        (start..start + count).map(|a| self.fetch(a)).collect()
    }
}

/// A store that can hand out independent readers. Like [`PrefetchRead`],
/// nothing in this crate implements or calls it.
pub trait Prefetchable: BlockStore {
    /// The reader type.
    type Reader: PrefetchRead;

    /// Creates a reader sharing this store's file and buffer pool.
    fn reader(&self) -> Self::Reader;

    /// True when [`store_run`](Prefetchable::store_run) performs a real
    /// positioned span write.
    fn supports_store_runs(&self) -> bool {
        false
    }

    /// Writes `blks` to consecutive global addresses starting at `start`.
    /// The default refuses with [`StoreError::Corrupted`] for `start` (and
    /// asserts in debug builds): only a store whose
    /// [`supports_store_runs`](Prefetchable::supports_store_runs) is true
    /// may be asked.
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
    /// Write-behind buffer capacity in blocks (0 flushes every write at
    /// once). Block stores are accepted into the buffer and flushed as
    /// coalesced span writes — one span write per maximal run of
    /// consecutive blocks of one array — once it fills, on
    /// [`PrefetchingStore::flush_writes`], or on drop. A span store of fewer
    /// whole blocks is buffered block by block; a longer one writes through
    /// in runs of at most this many blocks (at least one).
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
    /// run from there with one span read. A steal whose span read failed
    /// counts as a miss.
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
    /// Physical span writes: one per write-behind flush run (a maximal
    /// contiguous run of buffered addresses) and one per run of a span
    /// write written through.
    pub write_spans: u64,
}

#[derive(Debug)]
enum Slot {
    /// No hint outstanding for this address.
    Empty,
    /// Hinted and not read yet.
    Queued,
    Ready(Block),
    /// The newest write of this address, accepted into the write-behind
    /// buffer; the server copy is stale until the next flush. Hints and
    /// steals skip this state.
    Buffered(Block),
}

/// Most blocks one steal reads. Bounds the span read a single load can
/// trigger, so a deep hint schedule is consumed in runs of this length.
const MAX_STEAL_RUN: usize = 16;

/// The read-ahead adapter. Wraps any [`BlockStore`] and honors
/// [`BlockStore::hint_blocks`] schedules with coalesced span reads; see the
/// module docs for the protocol and obliviousness argument.
#[derive(Debug)]
pub struct PrefetchingStore<S: BlockStore> {
    inner: S,
    /// Per-address slot state, indexed by global block address. The
    /// store's address space is dense and small, so a flat vector keeps the
    /// hot hit path at an indexed load instead of a hash lookup.
    slots: Vec<Slot>,
    /// Decoded blocks parked in `slots`; never exceeds `max_ready`.
    ready: usize,
    max_ready: usize,
    /// Logical I/O counters: what the algorithm asked for, independent of
    /// which physical read served it.
    stats: IoStats,
    trace: Option<AccessTrace>,
    prefetch_stats: PrefetchStats,
    /// Write-behind buffer: the `(array, local block)` address of every
    /// [`Slot::Buffered`] slot, flushed as coalesced span writes.
    wb: Vec<(ArrayHandle, usize)>,
    /// Capacity of `wb`.
    wb_cap: usize,
    /// The cells of the write-behind run being flushed, reused from span
    /// write to span write.
    flat: Vec<Cell>,
    /// Spare block buffers a steal cuts its span into; with the parked
    /// blocks, at most `max_ready`.
    free: Vec<Block>,
}

/// Blocks of `h` a span op can move: the ones wholly inside the array (all
/// but a partial last block).
fn whole_blocks(h: &ArrayHandle) -> usize {
    h.len() / h.block_elems()
}

impl<S: BlockStore> PrefetchingStore<S> {
    /// Wraps `inner` with the default configuration.
    pub fn new(inner: S) -> Self {
        Self::with_config(inner, PrefetchConfig::default())
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: S, cfg: PrefetchConfig) -> Self {
        assert!(cfg.max_ready >= 1, "prefetching needs a ready budget");
        PrefetchingStore {
            inner,
            slots: Vec::new(),
            ready: 0,
            max_ready: cfg.max_ready,
            stats: IoStats::default(),
            trace: None,
            prefetch_stats: PrefetchStats::default(),
            wb: Vec::with_capacity(cfg.write_buffer),
            wb_cap: cfg.write_buffer,
            flat: Vec::new(),
            free: Vec::new(),
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

    /// Writes every buffered block back to the wrapped store: each maximal
    /// run of consecutive whole blocks of one array as one span write, an
    /// array's partial last block as a single-block write. A no-op when
    /// nothing is buffered; returns the first error a write surfaces. The
    /// blocks the wrapped store counted as written leave the buffer; every
    /// other block stays buffered in its slot for the next flush, so a
    /// failed flush loses no accepted write.
    pub fn flush_writes(&mut self) -> Result<(), StoreError> {
        if self.wb.is_empty() {
            return Ok(());
        }
        let mut wb = std::mem::take(&mut self.wb);
        wb.sort_by_key(|(h, i)| h.global_block(*i));
        let mut first_err = None;
        let mut cells = std::mem::take(&mut self.flat);
        let runs = wb.chunk_by(|(h, i), (h2, i2)| h == h2 && *i2 == i + 1 && *i2 < whole_blocks(h));
        for run in runs {
            let (h, first) = run[0];
            cells.clear();
            for (h, i) in run {
                let Slot::Buffered(blk) = self.slot(h.global_block(*i)) else {
                    unreachable!("a write-behind address holds its block");
                };
                cells.extend_from_slice(blk.slots());
            }
            let before = self.inner.io_stats().writes;
            let res = if first < whole_blocks(&h) {
                self.prefetch_stats.write_spans += 1;
                self.inner
                    .try_store_span(&h, first * h.block_elems(), &cells)
            } else {
                let blk = self.block_of(&cells);
                self.inner.try_store_block(&h, first, blk)
            };
            let landed = match res {
                Ok(()) => run.len(),
                Err(e) => {
                    first_err.get_or_insert(e);
                    ((self.inner.io_stats().writes - before) as usize).min(run.len())
                }
            };
            for (h, i) in &run[..landed] {
                if let Slot::Buffered(blk) = self.take_slot(h.global_block(*i)) {
                    self.keep(blk);
                }
            }
        }
        // Both buffers keep their capacity for the next flush.
        self.wb = wb;
        self.flat = cells;
        self.retain_buffered();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drops from the write-behind buffer every address whose block has left
    /// its slot (written, or superseded by a write through).
    fn retain_buffered(&mut self) {
        let slots = &self.slots;
        self.wb
            .retain(|(h, i)| matches!(slots.get(h.global_block(*i)), Some(Slot::Buffered(_))));
    }

    /// Accepts a write into the write-behind buffer (the newest content for
    /// the block now lives in its slot; any prefetch state for it is
    /// invalidated) and flushes when the buffer fills. If that flush fails,
    /// the write stays accepted: what did not land stays buffered for the
    /// next flush to retry. The buffer never holds more than
    /// `write_buffer` blocks, so a write that finds it full (after a failed
    /// flush) first flushes, and is refused with that flush's error if it
    /// fails; with no buffer at all, a write whose own flush fails is
    /// refused and leaves the buffer.
    fn buffer_write(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.global_block(i);
        if let Some(Slot::Buffered(old)) = self.slots.get_mut(addr) {
            let old = std::mem::replace(old, blk);
            self.keep(old);
            return Ok(());
        }
        if self.wb.len() >= self.wb_cap {
            self.flush_writes()?;
        }
        self.invalidate(addr);
        self.set(addr, Slot::Buffered(blk));
        self.wb.push((*h, i));
        if self.wb.len() >= self.wb_cap {
            if let Err(e) = self.flush_writes() {
                if self.wb.len() > self.wb_cap {
                    self.wb.pop();
                    debug_assert!(self.wb.is_empty());
                    if let Slot::Buffered(blk) = self.take_slot(addr) {
                        self.keep(blk);
                    }
                    return Err(e);
                }
            }
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

    /// Serves a load of local block `i` of `h` (global address `addr`).
    fn load(&mut self, h: &ArrayHandle, i: usize, addr: usize) -> Result<Block, StoreError> {
        match self.take_slot(addr) {
            Slot::Empty => {
                self.prefetch_stats.misses += 1;
                self.inner.try_load_block(h, i)
            }
            Slot::Queued => self.steal(h, i, addr),
            Slot::Ready(blk) => {
                self.ready -= 1;
                self.prefetch_stats.hits += 1;
                Ok(blk)
            }
            Slot::Buffered(blk) => {
                // Read-your-writes: serve a copy of the newest write without
                // touching the server; the slot keeps the block until it is
                // flushed.
                self.prefetch_stats.wb_hits += 1;
                let copy = blk.clone();
                self.set(addr, Slot::Buffered(blk));
                Ok(copy)
            }
        }
    }

    /// Whether the adapter itself holds the content for `addr`: a block
    /// parked by a steal, or the newest write in the write-behind buffer.
    fn holds(&self, addr: usize) -> bool {
        matches!(self.slot(addr), Slot::Ready(_) | Slot::Buffered(_))
    }

    /// Reads the whole blocks `blocks` of `h` for a span load, recording
    /// each as one logical read in ascending order. A block the adapter
    /// holds is served from it: a parked block counts as a hit, a buffered
    /// one as a `wb_hit`. A run that starts at a hinted block is stolen
    /// from there, as a block load would steal it, so a span of one block
    /// over a hinted sweep reads ahead as that sweep's block loads do.
    /// Every other run of consecutive blocks is read
    /// with one span read of the wrapped store of at most `max_ready`
    /// blocks, straight into the result, and counts as one steal plus one
    /// hit per further block, as a hinted run read by a steal would. Any
    /// hint on those blocks is consumed. A failed span read falls back to
    /// single-block reads of its run (each a miss), so the error surfaces
    /// at the block that caused it, after the blocks before it were
    /// recorded, as on the per-block path.
    fn load_whole(
        &mut self,
        h: &ArrayHandle,
        blocks: Range<usize>,
    ) -> Result<Vec<Cell>, StoreError> {
        let b = h.block_elems();
        let mut out = Vec::new();
        let mut bi = blocks.start;
        while bi < blocks.end {
            let addr = h.global_block(bi);
            if self.holds(addr) || matches!(self.slot(addr), Slot::Queued) {
                let blk = self.load(h, bi, addr)?;
                out.extend_from_slice(blk.slots());
                self.keep(blk);
                self.record(AccessOp::Read, addr);
                bi += 1;
                continue;
            }
            let mut end = bi + 1;
            while end < blocks.end && end - bi < self.max_ready && !self.holds(addr + end - bi) {
                end += 1;
            }
            for a in addr..addr + end - bi {
                self.take_slot(a);
            }
            match self.inner.try_load_span(h, bi * b, end * b) {
                Ok(cells) => {
                    self.prefetch_stats.steals += 1;
                    self.prefetch_stats.hits += (end - bi - 1) as u64;
                    if out.is_empty() {
                        out = cells;
                    } else {
                        out.extend_from_slice(&cells);
                    }
                    for a in addr..addr + end - bi {
                        self.record(AccessOp::Read, a);
                    }
                }
                Err(_) => {
                    for i in bi..end {
                        self.prefetch_stats.misses += 1;
                        let blk = self.inner.try_load_block(h, i)?;
                        out.extend_from_slice(blk.slots());
                        self.keep(blk);
                        self.record(AccessOp::Read, h.global_block(i));
                    }
                }
            }
            bi = end;
        }
        Ok(out)
    }

    /// Writes the whole blocks starting at local block `first` of `h`:
    /// fewer than `write_buffer` of them into the write-behind buffer, one
    /// block at a time as [`BlockStore::try_store_block`] would; more
    /// straight through to the wrapped store's span path, in runs of at
    /// most `write_buffer` blocks (one [`PrefetchStats::write_spans`] each).
    /// Each run first invalidates the parked and queued slots of its
    /// addresses, then drops the buffered blocks it superseded. A run that
    /// fails records only the blocks the wrapped store counted as written
    /// (its I/O counters tell how far it got), as the per-block path stops
    /// at the first failure; a buffered block whose replacement never
    /// landed stays buffered, as the newest write accepted for its address.
    fn store_whole(
        &mut self,
        h: &ArrayHandle,
        first: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let b = h.block_elems();
        if cells.len() / b < self.wb_cap {
            for (k, chunk) in cells.chunks(b).enumerate() {
                self.inner.check_write(h, first + k, chunk)?;
                let blk = self.block_of(chunk);
                self.buffer_write(h, first + k, blk)?;
                self.record(AccessOp::Write, h.global_block(first + k));
            }
            return Ok(());
        }
        let per_run = self.wb_cap.max(1);
        for (k, run) in cells.chunks(per_run * b).enumerate() {
            let lo = first + k * per_run;
            let addrs = h.global_block(lo)..h.global_block(lo) + run.len() / b;
            for a in addrs.clone() {
                if !matches!(self.slot(a), Slot::Buffered(_)) {
                    self.invalidate(a);
                }
            }
            let before = self.inner.io_stats().writes;
            let res = self.inner.try_store_span(h, lo * b, run);
            self.prefetch_stats.write_spans += 1;
            let landed = match res {
                Ok(()) => addrs.len(),
                Err(_) => ((self.inner.io_stats().writes - before) as usize).min(addrs.len()),
            };
            self.unbuffer(addrs.start..addrs.start + landed);
            for a in addrs.start..addrs.start + landed {
                self.record(AccessOp::Write, a);
            }
            res?;
        }
        Ok(())
    }

    /// Drops the buffered blocks of `addrs` unwritten: a write through has
    /// landed newer content for each. Every other slot of `addrs` was
    /// invalidated before the write.
    fn unbuffer(&mut self, addrs: Range<usize>) {
        let mut buffered = false;
        for a in addrs {
            if let Slot::Buffered(blk) = self.take_slot(a) {
                self.keep(blk);
                buffered = true;
            }
        }
        if buffered {
            self.retain_buffered();
        }
    }

    /// Reads the contiguous hinted run of whole blocks of `h` starting at
    /// local block `i` (whose slot the caller already took) with one span
    /// read, returns its first block and parks the tail within the ready
    /// budget. A partial last block is read alone; a failed span is a miss.
    fn steal(&mut self, h: &ArrayHandle, i: usize, addr: usize) -> Result<Block, StoreError> {
        let whole = whole_blocks(h);
        if i >= whole {
            self.prefetch_stats.steals += 1;
            return self.inner.try_load_block(h, i);
        }
        let spare = self.max_ready - self.ready;
        let mut run = 1usize;
        while run < MAX_STEAL_RUN
            && run <= spare
            && i + run < whole
            && matches!(self.slot(addr + run), Slot::Queued)
        {
            run += 1;
        }
        let b = h.block_elems();
        let cells = match self.inner.try_load_span(h, i * b, (i + run) * b) {
            Ok(cells) => cells,
            Err(_) => {
                for a in addr + 1..addr + run {
                    self.set(a, Slot::Empty);
                }
                self.prefetch_stats.misses += 1;
                return self.inner.try_load_block(h, i);
            }
        };
        self.prefetch_stats.steals += 1;
        let mut chunks = cells.chunks(b);
        let first = self.block_of(chunks.next().expect("a steal reads at least one block"));
        for (a, chunk) in (addr + 1..).zip(chunks) {
            let blk = self.block_of(chunk);
            self.ready += 1;
            self.set(a, Slot::Ready(blk));
        }
        Ok(first)
    }

    /// A block holding `cells`, in a spare buffer when the free list has one.
    fn block_of(&mut self, cells: &[Cell]) -> Block {
        match self.free.pop() {
            Some(mut blk) => {
                blk.slots_mut().copy_from_slice(cells);
                blk
            }
            None => Block::from_cells(cells),
        }
    }

    /// Keeps a spent block buffer for the next steal while spare and parked
    /// buffers together stay under `max_ready` (and the buffer is
    /// block-sized), else hands it to the inner store.
    fn keep(&mut self, blk: Block) {
        if self.free.len() + self.ready < self.max_ready && blk.len() == self.inner.block_elems() {
            self.free.push(blk);
        } else {
            self.inner.recycle(blk);
        }
    }

    /// Drops any prefetch state for `addr` ahead of a write.
    fn invalidate(&mut self, addr: usize) {
        match self.take_slot(addr) {
            Slot::Empty => return,
            Slot::Ready(_) => self.ready -= 1,
            Slot::Queued => {}
            Slot::Buffered(_) => unreachable!("buffer_write handles buffered addresses first"),
        }
        self.prefetch_stats.invalidated += 1;
    }
}

impl<S: BlockStore> Drop for PrefetchingStore<S> {
    fn drop(&mut self) {
        // Best-effort durability: a flush error cannot surface from Drop,
        // but callers that care read back through `inner_mut`/`flush_writes`
        // first, which do propagate it.
        let _ = self.flush_writes();
    }
}

impl<S: BlockStore> BlockStore for PrefetchingStore<S> {
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
        self.keep(blk);
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        let blk = self.load(h, i, addr)?;
        self.record(AccessOp::Read, addr);
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_write(i, &blk)?;
        self.inner.check_write(h, i, blk.slots())?;
        self.buffer_write(h, i, blk)?;
        self.record(AccessOp::Write, addr);
        Ok(())
    }

    fn check_write(&self, h: &ArrayHandle, i: usize, cells: &[Cell]) -> Result<(), StoreError> {
        self.inner.check_write(h, i, cells)
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        load_span_with(self, h, elem_lo, elem_hi, PrefetchingStore::load_whole)
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        store_span_with(self, h, elem_lo, cells, PrefetchingStore::store_whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::EncryptedStore;
    use crate::element::{Cell, Element};
    use crate::fault::{FaultSpec, FaultyStore};
    use crate::file::FileStore;
    use crate::retry::{RetryPolicy, RetryingStore};

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
            .alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>())
            .unwrap();
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
        let h = store.inner_mut().alloc_array_from_cells(&cells).unwrap();
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
    fn steals_cut_spans_into_a_bounded_free_list_of_spent_buffers() {
        let cfg = PrefetchConfig {
            max_ready: 4,
            write_buffer: 8,
        };
        let mut store = PrefetchingStore::with_config(FileStore::temp(4).unwrap(), cfg);
        let h = store.alloc_array(64);
        // Eight buffered writes flush as one span; the free list keeps four
        // of their buffers (max_ready, nothing parked yet) and hands the rest
        // to the inner store.
        for i in 0..8 {
            let mut blk = Block::empty(4);
            blk.set(0, Some(e(i as u64)));
            store.store_block(&h, i, blk);
        }
        assert_eq!(store.free.len(), 4);
        store.recycle(Block::empty(4));
        store.recycle(Block::empty(2));
        assert_eq!(store.free.len(), 4, "never more than max_ready buffers");
        // A steal of five blocks fills four spare buffers, then allocates;
        // parked and spare buffers stay within max_ready as hits drain them.
        store.hint_blocks(&h, &(0..8).collect::<Vec<_>>());
        assert_eq!(store.load_block(&h, 0).get(0), Some(e(0)));
        assert_eq!(store.prefetch_stats().steals, 1);
        assert!(store.free.is_empty());
        for i in 1..5 {
            let blk = store.load_block(&h, i);
            assert_eq!(blk.slots()[..2], [Some(e(i as u64)), None]);
            store.recycle(blk);
            assert!(store.free.len() + store.ready <= 4);
        }
        assert_eq!(store.prefetch_stats().hits, 4);
        assert_eq!(store.free.len(), 4);
    }

    #[test]
    fn span_loads_serve_held_blocks_and_read_the_rest_in_runs() {
        let cfg = PrefetchConfig {
            max_ready: 3,
            write_buffer: 8,
        };
        let mut store = PrefetchingStore::with_config(FileStore::temp(2).unwrap(), cfg);
        let cells: Vec<Cell> = (0..24).map(|k| Some(e(k))).collect();
        let h = store.inner_mut().alloc_array_from_cells(&cells).unwrap();
        // Block 1 steals 1..3 and parks 2; block 6 is buffered.
        store.hint_blocks(&h, &[1, 2]);
        assert_eq!(store.load_block(&h, 1).get(0), cells[2]);
        let mut blk = Block::empty(2);
        blk.set(0, Some(e(600)));
        store.store_block(&h, 6, blk);
        let (ps, inner) = (store.prefetch_stats(), store.inner().stats());
        let mut want = cells.clone();
        want[12] = Some(e(600));
        want[13] = None;
        // Whole blocks 1..12 of a span from cell 1: block 2 is a hit, block
        // 6 a wb_hit, and blocks 1, 3..6 and 7..12 are read in runs of at
        // most max_ready = 3 blocks (1; 3..6; 7..10; 10..12), each one steal
        // plus a hit per further block. Block 0 is a boundary block: a miss.
        assert_eq!(store.try_load_span(&h, 1, 24).unwrap(), want[1..]);
        let after = store.prefetch_stats();
        assert_eq!(after.misses - ps.misses, 1);
        assert_eq!(after.steals - ps.steals, 4);
        assert_eq!(after.hits - ps.hits, 1 + 2 + 2 + 1);
        assert_eq!(after.wb_hits - ps.wb_hits, 1);
        assert_eq!(store.inner().stats().reads - inner.reads, 10);
        assert_eq!(store.io_stats().reads, 1 + 12);
        assert_eq!(store.ready, 0);
    }

    #[test]
    fn a_failed_span_load_fails_at_the_block_that_caused_it() {
        use std::os::unix::fs::FileExt;
        let mut store = temp_prefetching(2);
        let cells: Vec<Cell> = (0..16).map(|k| Some(e(k))).collect();
        let h = store.inner_mut().alloc_array_from_cells(&cells).unwrap();
        // Garble block 5's first occupancy word behind the store's back.
        let file = std::fs::File::options()
            .write(true)
            .open(store.inner().path())
            .unwrap();
        file.write_all_at(
            &9u64.to_le_bytes(),
            (5 * 2 * crate::file::CELL_BYTES) as u64,
        )
        .unwrap();
        let err = store.try_load_span(&h, 0, 16).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 5 });
        // Blocks 0..5 were read and recorded, as on the per-block path.
        assert_eq!(store.io_stats().reads, 5);
    }

    #[test]
    fn short_span_writes_are_buffered_and_coalesce_at_the_flush() {
        // Two spans of three blocks each, shorter than the buffer, land in
        // it block by block and leave the file untouched; the flush then
        // writes the six adjacent blocks with one span write.
        let cfg = PrefetchConfig {
            max_ready: 4,
            write_buffer: 8,
        };
        let mut store = PrefetchingStore::with_config(FileStore::temp(2).unwrap(), cfg);
        let h = store.alloc_array(20);
        let cells: Vec<Cell> = (0..12).map(|k| Some(e(k))).collect();
        store.try_store_span(&h, 6, &cells[6..]).unwrap();
        store.try_store_span(&h, 0, &cells[..6]).unwrap();
        assert_eq!(store.wb.len(), 6);
        assert_eq!(store.inner().stats().writes, 0);
        assert_eq!(store.io_stats().writes, 6);
        assert_eq!(store.try_load_span(&h, 0, 12).unwrap(), cells);
        assert_eq!(
            store.prefetch_stats().wb_hits,
            6,
            "read back from the buffer"
        );
        store.flush_writes().unwrap();
        assert_eq!(store.prefetch_stats().write_spans, 1);
        assert_eq!(store.inner().snapshot_cells(&h)[..12], cells[..]);
    }

    #[test]
    fn span_writes_go_through_in_runs_of_the_write_buffer() {
        let cfg = PrefetchConfig {
            max_ready: 4,
            write_buffer: 4,
        };
        let mut store = PrefetchingStore::with_config(FileStore::temp(2).unwrap(), cfg);
        let h = store.alloc_array(20);
        // An older write of block 3 sits in the buffer, block 8 is parked.
        store.store_block(&h, 3, Block::empty(2));
        store.hint_blocks(&h, &[7, 8]);
        let _ = store.load_block(&h, 7);
        let cells: Vec<Cell> = (0..20).map(|k| Some(e(k))).collect();
        store.try_store_span(&h, 0, &cells).unwrap();
        // Ten blocks in runs of 4, 4 and 2, written at once; nothing is
        // left buffered or parked.
        let ps = store.prefetch_stats();
        assert_eq!(ps.write_spans, 3);
        assert_eq!(ps.invalidated, 1);
        assert_eq!(store.inner().stats().writes, 10);
        assert!(store.wb.is_empty());
        assert_eq!(store.ready, 0);
        assert_eq!(store.io_stats().writes, 1 + 10);
        assert_eq!(store.inner().snapshot_cells(&h), cells);
    }

    #[test]
    fn a_failed_flush_keeps_every_unwritten_block_buffered() {
        // Blocks 1 and 2 are one run; the server fails every write while
        // they are flushed. Neither lands, and both stay buffered.
        let faulty = FaultyStore::new(EncryptedStore::new(4, 0xE4C), 0xF1, FaultSpec::none());
        let mut store = PrefetchingStore::new(faulty);
        let h = store.alloc_array(16);
        let mut first = Block::empty(4);
        first.set(0, Some(e(1)));
        store.try_store_block(&h, 1, first.clone()).unwrap();
        let mut good = Block::empty(4);
        good.set(2, Some(e(2)));
        good.set(3, Some(e(3)));
        store.try_store_block(&h, 2, good.clone()).unwrap();
        store.inner.set_spec(FaultSpec {
            transient_write_ppm: 1_000_000,
            ..FaultSpec::none()
        });
        assert_eq!(store.flush_writes(), Err(StoreError::Transient { addr: 1 }));
        assert_eq!(store.wb.len(), 2);
        assert_eq!(store.try_load_block(&h, 2).unwrap(), good);
        assert_eq!(store.prefetch_stats().wb_hits, 1, "served from the buffer");
        // Once the server recovers, the next flush lands both.
        store.inner.set_spec(FaultSpec::none());
        store.flush_writes().unwrap();
        assert!(store.wb.is_empty());
        let landed = store.inner().inner().snapshot_cells(&h);
        assert_eq!(landed[4..8], *first.slots());
        assert_eq!(landed[8..12], *good.slots());
    }

    #[test]
    fn an_over_wide_write_is_refused_when_it_is_accepted() {
        // The encryption layer refuses a payload of 2^63 or more. The
        // write-behind buffer asks it before accepting a block store or a
        // short span, so the refusal comes at once, nothing is buffered or
        // recorded for the refused block, and a later flush writes the
        // accepted blocks only.
        let mut store = PrefetchingStore::new(EncryptedStore::new(4, 0xE4C));
        let h = store.alloc_array(16);
        let wide = StoreError::PayloadTooWide {
            addr: 1,
            payload: 1 << 63,
        };
        let mut bad = Block::empty(4);
        bad.set(0, Some(Element::new(1, 1 << 63)));
        assert_eq!(store.try_store_block(&h, 1, bad.clone()), Err(wide));
        let mut cells: Vec<Cell> = (0..8).map(|k| Some(e(k))).collect();
        cells[4] = bad.get(0);
        assert_eq!(store.try_store_span(&h, 0, &cells), Err(wide));
        assert_eq!(store.wb.len(), 1, "only block 0 was accepted");
        assert_eq!(store.io_stats().writes, 1);
        store.flush_writes().unwrap();
        let landed = store.inner().snapshot_cells(&h);
        assert_eq!(landed[..4], cells[..4]);
        assert_eq!(landed[4..], vec![None; 12][..]);
    }

    #[test]
    fn transient_flush_failures_lose_no_accepted_write() {
        // Transient write faults below the write-behind buffer, retries
        // above it: every write the retrying store accepts must read back,
        // before and after the final flush, and the buffer never exceeds
        // its capacity.
        let (b, n, cap) = (4usize, 48usize, 8usize);
        let faulty = FaultyStore::new(EncryptedStore::new(b, 0xE4C), 0x5EED, FaultSpec::none());
        let cfg = PrefetchConfig {
            max_ready: 8,
            write_buffer: cap,
        };
        let mut store = PrefetchingStore::with_config(faulty, cfg);
        let h = store.alloc_array(n * b);
        store.inner_mut().set_spec(FaultSpec {
            transient_write_ppm: 250_000,
            ..FaultSpec::none()
        });
        let mut want: Vec<Cell> = vec![None; n * b];
        let (mut accepted, mut refused) = (0, 0);
        for round in 0..8u64 {
            for k in 0..n {
                // Even rounds write in address order (flushes of one
                // run), odd rounds scattered (runs of single blocks).
                let stride = if round % 2 == 0 { 1 } else { 7 };
                let i = (k * stride + round as usize) % n;
                let mut blk = Block::empty(b);
                blk.set(i % b, Some(e(round * 1000 + i as u64)));
                // Every other write gets no retry, so some are refused.
                let policy = RetryPolicy {
                    max_retries: (k % 2) as u32,
                };
                match RetryingStore::new(&mut store, policy).try_store_block(&h, i, blk.clone()) {
                    Ok(()) => {
                        want[i * b..(i + 1) * b].copy_from_slice(blk.slots());
                        accepted += 1;
                    }
                    Err(err) => {
                        assert!(err.is_transient(), "{err:?}");
                        refused += 1;
                    }
                }
                assert!(store.wb.len() <= cap);
            }
        }
        assert!(store.inner().fault_stats().transient_writes > 0);
        assert!(refused > 0, "some writes exhausted their retry");
        assert_eq!(
            store.io_stats().writes,
            accepted,
            "only accepted writes are recorded"
        );
        let read_back = |store: &mut PrefetchingStore<_>| -> Vec<Cell> {
            (0..n)
                .flat_map(|i| store.try_load_block(&h, i).unwrap().slots().to_vec())
                .collect()
        };
        assert_eq!(read_back(&mut store), want);
        while store.flush_writes().is_err() {}
        assert!(store.wb.is_empty());
        assert_eq!(store.inner().inner().snapshot_cells(&h), want);
        assert_eq!(read_back(&mut store), want);
    }

    #[test]
    fn writes_invalidate_parked_prefetches() {
        let mut store = temp_prefetching(2);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>())
            .unwrap();
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
            .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>())
            .unwrap();
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
                .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>())
                .unwrap();
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

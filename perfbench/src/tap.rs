//! A timing and counting wrapper placed at each boundary of the store stack.
//!
//! [`Tapped<S>`] forwards every method of `BlockStore`, `BackingStore`,
//! `Prefetchable` and (through [`TappedReader`]) `PrefetchRead` to the store
//! it wraps — the defaulted span, pair, hint, recycle and
//! `supports_store_runs` methods included — so a stack with taps runs the
//! same code paths as one without. Around each forwarded call it records
//! the wall time spent inside (when the tap's clock is on) and how many
//! blocks crossed the boundary. Nothing it records reaches the store.
//!
//! Time is split by thread: calls made on the client thread (the one that
//! called [`mark_client_thread`]) count as foreground time, calls made on
//! prefetch worker threads as reader time. A layer's self time is the time
//! inside its tap minus the time inside the tap of the store it wraps.
//!
//! [`check_forwarding`] proves the forwarding at run time: it calls every
//! method through a tap around a store that logs which of its methods ran.

use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use extmem::{
    AccessTrace, ArrayHandle, BackingStore, Block, BlockStore, Cell, ExtMem, IoStats, PrefetchRead,
    Prefetchable, StoreError,
};

thread_local! {
    static CLIENT: StdCell<bool> = const { StdCell::new(false) };
}

/// Marks the calling thread as the benchmark's single client thread.
pub fn mark_client_thread() {
    CLIENT.with(|c| c.set(true));
}

fn on_client_thread() -> bool {
    CLIENT.with(|c| c.get())
}

/// Counters one tap accumulates. Atomic because prefetch workers update the
/// reader half concurrently with the client thread.
#[derive(Debug, Default)]
pub struct LayerCounters {
    fg_ns: AtomicU64,
    reader_ns: AtomicU64,
    calls: AtomicU64,
    span_calls: AtomicU64,
    blocks: AtomicU64,
    write_calls: AtomicU64,
    write_blocks: AtomicU64,
}

/// A point-in-time copy of [`LayerCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSnapshot {
    /// Nanoseconds inside the tap on the client thread.
    pub fg_ns: u64,
    /// Nanoseconds inside the tap on prefetch worker threads.
    pub reader_ns: u64,
    /// Data-moving calls (block, pair, span, fetch and run calls).
    pub calls: u64,
    /// Calls that moved more than one block in one request (spans, pairs,
    /// fetch runs and store runs).
    pub span_calls: u64,
    /// Block transfers through the boundary (reads plus writes).
    pub blocks: u64,
    /// Calls that wrote blocks. Only the client thread writes, so unlike
    /// the read side these do not depend on how prefetch workers race.
    pub write_calls: u64,
    /// Blocks written.
    pub write_blocks: u64,
}

impl LayerCounters {
    /// Reads every counter.
    pub fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot {
            fg_ns: self.fg_ns.load(Relaxed),
            reader_ns: self.reader_ns.load(Relaxed),
            calls: self.calls.load(Relaxed),
            span_calls: self.span_calls.load(Relaxed),
            blocks: self.blocks.load(Relaxed),
            write_calls: self.write_calls.load(Relaxed),
            write_blocks: self.write_blocks.load(Relaxed),
        }
    }
}

/// What a tap records about one call.
#[derive(Clone, Copy)]
struct Io {
    blocks: u64,
    span: bool,
    /// Blocks of `blocks` that were written.
    writes: u64,
}

const NO_IO: Option<Io> = None;
const READ_ONE: Option<Io> = Some(Io {
    blocks: 1,
    span: false,
    writes: 0,
});
const WRITE_ONE: Option<Io> = Some(Io {
    blocks: 1,
    span: false,
    writes: 1,
});
/// A pair call reads two blocks and writes them back.
const PAIR: Option<Io> = Some(Io {
    blocks: 4,
    span: true,
    writes: 2,
});

fn read_multi(blocks: usize) -> Option<Io> {
    Some(Io {
        blocks: blocks as u64,
        span: true,
        writes: 0,
    })
}

fn write_multi(blocks: usize) -> Option<Io> {
    Some(Io {
        blocks: blocks as u64,
        span: true,
        writes: blocks as u64,
    })
}

/// Shared recording logic of the store and reader halves of a tap.
#[derive(Clone, Debug)]
struct Probe {
    counters: Arc<LayerCounters>,
    clock: bool,
}

impl Probe {
    #[inline]
    fn run<T>(&self, io: Option<Io>, f: impl FnOnce() -> T) -> T {
        let start = self.clock.then(Instant::now);
        let out = f();
        if let Some(t0) = start {
            let ns = t0.elapsed().as_nanos() as u64;
            if on_client_thread() {
                self.counters.fg_ns.fetch_add(ns, Relaxed);
            } else {
                self.counters.reader_ns.fetch_add(ns, Relaxed);
            }
        }
        if let Some(io) = io {
            self.counters.calls.fetch_add(1, Relaxed);
            self.counters.blocks.fetch_add(io.blocks, Relaxed);
            if io.span {
                self.counters.span_calls.fetch_add(1, Relaxed);
            }
            if io.writes > 0 {
                self.counters.write_calls.fetch_add(1, Relaxed);
                self.counters.write_blocks.fetch_add(io.writes, Relaxed);
            }
        }
        out
    }
}

/// Number of blocks the element span `[lo, hi)` touches.
fn span_blocks(b: usize, lo: usize, hi: usize) -> usize {
    if hi <= lo {
        0
    } else {
        (hi - 1) / b - lo / b + 1
    }
}

/// A store wrapped by a tap. See the module docs.
#[derive(Debug)]
pub struct Tapped<S> {
    inner: S,
    probe: Probe,
}

impl<S> Tapped<S> {
    /// Wraps `inner`. With `clock` off the tap only counts blocks and calls
    /// and never reads the clock.
    pub fn new(inner: S, clock: bool) -> Self {
        Tapped {
            inner,
            probe: Probe {
                counters: Arc::new(LayerCounters::default()),
                clock,
            },
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped store, mutably (calls through it are not recorded).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// This tap's counters so far.
    pub fn snapshot(&self) -> LayerSnapshot {
        self.probe.counters.snapshot()
    }
}

impl<S: BlockStore> BlockStore for Tapped<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let inner = &mut self.inner;
        self.probe.run(NO_IO, || inner.alloc_array(len_elements))
    }

    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        let inner = &mut self.inner;
        self.probe.run(READ_ONE, || inner.load_block(h, i))
    }

    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        let inner = &mut self.inner;
        self.probe.run(WRITE_ONE, || inner.store_block(h, i, blk))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        let inner = &mut self.inner;
        self.probe.run(NO_IO, || inner.hint_blocks(h, blocks))
    }

    fn recycle(&mut self, blk: Block) {
        let inner = &mut self.inner;
        self.probe.run(NO_IO, || inner.recycle(blk))
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let inner = &mut self.inner;
        self.probe.run(READ_ONE, || inner.try_load_block(h, i))
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.probe
            .run(WRITE_ONE, || inner.try_store_block(h, i, blk))
    }

    fn try_modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.probe.run(PAIR, || inner.try_modify_pair(h, i, j, f))
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        let io = read_multi(span_blocks(self.inner.block_elems(), elem_lo, elem_hi));
        let inner = &mut self.inner;
        self.probe
            .run(io, || inner.try_load_span(h, elem_lo, elem_hi))
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let b = self.inner.block_elems();
        let io = write_multi(span_blocks(b, elem_lo, elem_lo + cells.len()));
        let inner = &mut self.inner;
        self.probe
            .run(io, || inner.try_store_span(h, elem_lo, cells))
    }

    fn modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) {
        let inner = &mut self.inner;
        self.probe.run(PAIR, || inner.modify_pair(h, i, j, f))
    }

    fn load_span(&mut self, h: &ArrayHandle, elem_lo: usize, elem_hi: usize) -> Vec<Cell> {
        let io = read_multi(span_blocks(self.inner.block_elems(), elem_lo, elem_hi));
        let inner = &mut self.inner;
        self.probe.run(io, || inner.load_span(h, elem_lo, elem_hi))
    }

    fn store_span(&mut self, h: &ArrayHandle, elem_lo: usize, cells: &[Cell]) {
        let b = self.inner.block_elems();
        let io = write_multi(span_blocks(b, elem_lo, elem_lo + cells.len()));
        let inner = &mut self.inner;
        self.probe.run(io, || inner.store_span(h, elem_lo, cells))
    }
}

impl<S: BackingStore> BackingStore for Tapped<S> {
    fn enable_trace(&mut self) {
        self.inner.enable_trace()
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        self.inner.take_trace()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn allocated_blocks(&self) -> usize {
        self.inner.allocated_blocks()
    }

    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        self.inner.snapshot_cells(h)
    }
}

impl<S: Prefetchable> Prefetchable for Tapped<S> {
    type Reader = TappedReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        TappedReader {
            inner: self.inner.reader(),
            probe: self.probe.clone(),
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }

    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        let io = write_multi(blks.len());
        let inner = &mut self.inner;
        self.probe.run(io, || inner.store_run(start, blks))
    }
}

/// The background-reader half of a tap, handed to prefetch workers.
#[derive(Debug)]
pub struct TappedReader<R> {
    inner: R,
    probe: Probe,
}

impl<R: PrefetchRead> PrefetchRead for TappedReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let inner = &mut self.inner;
        self.probe.run(READ_ONE, || inner.fetch(addr))
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        let inner = &mut self.inner;
        self.probe
            .run(read_multi(count), || inner.fetch_run(start, count))
    }
}

// ---- forwarding check -----------------------------------------------------

type Log = Arc<Mutex<Vec<&'static str>>>;

fn note(log: &Log, method: &'static str) {
    log.lock().expect("log lock").push(method);
}

/// A store that logs each of its methods that runs. Arrays come from an
/// inner `ExtMem`; data calls move nothing and return dummy blocks.
struct Recorder {
    mem: ExtMem,
    log: Log,
}

impl BlockStore for Recorder {
    fn block_elems(&self) -> usize {
        note(&self.log, "block_elems");
        self.mem.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        note(&self.log, "alloc_array");
        self.mem.alloc_array(len_elements)
    }
    fn load_block(&mut self, _: &ArrayHandle, _: usize) -> Block {
        note(&self.log, "load_block");
        Block::empty(self.mem.block_elems())
    }
    fn store_block(&mut self, _: &ArrayHandle, _: usize, _: Block) {
        note(&self.log, "store_block");
    }
    fn io_stats(&self) -> IoStats {
        note(&self.log, "io_stats");
        IoStats::default()
    }
    fn hint_blocks(&mut self, _: &ArrayHandle, _: &[usize]) {
        note(&self.log, "hint_blocks");
    }
    fn recycle(&mut self, _: Block) {
        note(&self.log, "recycle");
    }
    fn try_load_block(&mut self, _: &ArrayHandle, _: usize) -> Result<Block, StoreError> {
        note(&self.log, "try_load_block");
        Ok(Block::empty(self.mem.block_elems()))
    }
    fn try_store_block(&mut self, _: &ArrayHandle, _: usize, _: Block) -> Result<(), StoreError> {
        note(&self.log, "try_store_block");
        Ok(())
    }
    fn try_modify_pair(
        &mut self,
        _: &ArrayHandle,
        _: usize,
        _: usize,
        _: impl FnOnce(&mut Block, &mut Block),
    ) -> Result<(), StoreError> {
        note(&self.log, "try_modify_pair");
        Ok(())
    }
    fn try_load_span(
        &mut self,
        _: &ArrayHandle,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        note(&self.log, "try_load_span");
        Ok(vec![None; hi - lo])
    }
    fn try_store_span(&mut self, _: &ArrayHandle, _: usize, _: &[Cell]) -> Result<(), StoreError> {
        note(&self.log, "try_store_span");
        Ok(())
    }
    fn modify_pair(
        &mut self,
        _: &ArrayHandle,
        _: usize,
        _: usize,
        _: impl FnOnce(&mut Block, &mut Block),
    ) {
        note(&self.log, "modify_pair");
    }
    fn load_span(&mut self, _: &ArrayHandle, lo: usize, hi: usize) -> Vec<Cell> {
        note(&self.log, "load_span");
        vec![None; hi - lo]
    }
    fn store_span(&mut self, _: &ArrayHandle, _: usize, _: &[Cell]) {
        note(&self.log, "store_span");
    }
}

impl BackingStore for Recorder {
    fn enable_trace(&mut self) {
        note(&self.log, "enable_trace");
    }
    fn take_trace(&mut self) -> Option<AccessTrace> {
        note(&self.log, "take_trace");
        None
    }
    fn reset_stats(&mut self) {
        note(&self.log, "reset_stats");
    }
    fn allocated_blocks(&self) -> usize {
        note(&self.log, "allocated_blocks");
        0
    }
    fn snapshot_cells(&self, _: &ArrayHandle) -> Vec<Cell> {
        note(&self.log, "snapshot_cells");
        Vec::new()
    }
}

impl Prefetchable for Recorder {
    type Reader = RecorderReader;

    fn reader(&self) -> RecorderReader {
        note(&self.log, "reader");
        RecorderReader(Arc::clone(&self.log))
    }
    fn supports_store_runs(&self) -> bool {
        note(&self.log, "supports_store_runs");
        true
    }
    fn store_run(&mut self, _: usize, _: Vec<Block>) -> Result<(), StoreError> {
        note(&self.log, "store_run");
        Ok(())
    }
}

struct RecorderReader(Log);

impl PrefetchRead for RecorderReader {
    fn fetch(&mut self, _: usize) -> Result<Block, StoreError> {
        note(&self.0, "fetch");
        Ok(Block::empty(1))
    }
    fn fetch_run(&mut self, _: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        note(&self.0, "fetch_run");
        (0..count).map(|_| Ok(Block::empty(1))).collect()
    }
}

/// Calls every `BlockStore`, `BackingStore`, `Prefetchable` and
/// `PrefetchRead` method through a tap and checks that the same method of
/// the wrapped store ran. A tap that left a method to its trait default
/// (say `fetch_run` falling back to per-block `fetch`, or
/// `supports_store_runs` answering `false`) would run a different code path
/// below it; each such method is reported.
pub fn check_forwarding() -> Vec<String> {
    let log: Log = Arc::default();
    let recorder = Recorder {
        mem: ExtMem::new(4),
        log: Arc::clone(&log),
    };
    let mut t = Tapped::new(recorder, true);
    let mut errors = Vec::new();
    let mut ran = |method: &'static str| {
        let calls = std::mem::take(&mut *log.lock().expect("log lock"));
        if !calls.contains(&method) {
            errors.push(format!("the tap does not forward {method} (ran {calls:?})"));
        }
    };
    let blk = || Block::empty(4);
    let swap = |a: &mut Block, b: &mut Block| std::mem::swap(a, b);

    let h = t.alloc_array(16);
    ran("alloc_array");
    t.block_elems();
    ran("block_elems");
    t.load_block(&h, 0);
    ran("load_block");
    t.store_block(&h, 0, blk());
    ran("store_block");
    t.io_stats();
    ran("io_stats");
    t.hint_blocks(&h, &[0, 1]);
    ran("hint_blocks");
    t.recycle(blk());
    ran("recycle");
    let _ = t.try_load_block(&h, 0);
    ran("try_load_block");
    let _ = t.try_store_block(&h, 0, blk());
    ran("try_store_block");
    let _ = t.try_modify_pair(&h, 0, 1, swap);
    ran("try_modify_pair");
    let _ = t.try_load_span(&h, 0, 16);
    ran("try_load_span");
    let _ = t.try_store_span(&h, 0, &[None; 16]);
    ran("try_store_span");
    t.modify_pair(&h, 0, 1, swap);
    ran("modify_pair");
    t.load_span(&h, 0, 16);
    ran("load_span");
    t.store_span(&h, 0, &[None; 16]);
    ran("store_span");
    t.enable_trace();
    ran("enable_trace");
    t.take_trace();
    ran("take_trace");
    t.reset_stats();
    ran("reset_stats");
    BackingStore::allocated_blocks(&t);
    ran("allocated_blocks");
    t.snapshot_cells(&h);
    ran("snapshot_cells");
    t.supports_store_runs();
    ran("supports_store_runs");
    let _ = t.store_run(0, vec![blk(), blk()]);
    ran("store_run");
    let mut reader = t.reader();
    ran("reader");
    let _ = reader.fetch(0);
    ran("fetch");
    let _ = reader.fetch_run(0, 2);
    ran("fetch_run");
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::Element;

    #[test]
    fn span_block_counts() {
        assert_eq!(span_blocks(4, 0, 0), 0);
        assert_eq!(span_blocks(4, 0, 4), 1);
        assert_eq!(span_blocks(4, 3, 5), 2);
        assert_eq!(span_blocks(4, 0, 12), 3);
    }

    #[test]
    fn a_tap_changes_neither_results_nor_trace() {
        fn exercise<S: BlockStore>(store: &mut S) -> Vec<Cell> {
            let cells: Vec<Cell> = (0..12).map(|k| Some(Element::new(k, k))).collect();
            let h = store.alloc_array(12);
            store.store_span(&h, 1, &cells[1..11]);
            store.modify_pair(&h, 0, 2, std::mem::swap);
            store.try_load_span(&h, 0, 12).unwrap()
        }
        let mut plain = ExtMem::with_trace(4);
        let mut tapped = Tapped::new(ExtMem::with_trace(4), true);
        assert_eq!(exercise(&mut plain), exercise(&mut tapped));
        assert_eq!(plain.take_trace(), tapped.take_trace());
        let snap = tapped.snapshot();
        assert_eq!((snap.calls, snap.span_calls), (3, 3));
        assert_eq!(snap.blocks, 3 + 4 + 3);
        assert_eq!((snap.write_calls, snap.write_blocks), (2, 3 + 2));
    }

    #[test]
    fn every_method_is_forwarded() {
        assert_eq!(check_forwarding(), Vec::<String>::new());
    }
}

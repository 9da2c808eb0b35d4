//! The external block store: Bob's disk, with I/O accounting and the
//! adversary's view.
//!
//! [`ExtMem`] is an arena of blocks out of which algorithms allocate named
//! arrays ([`ArrayHandle`]). Each block read or write costs exactly one I/O
//! and (optionally) appends an [`AccessEvent`] to the [`AccessTrace`], which
//! is precisely what the honest-but-curious server observes: the *operation*
//! and the *global block address*, never the contents.
//!
//! Data-obliviousness of an algorithm is checked by running it on different
//! inputs of the same shape (and, for randomized algorithms, the same
//! random-number-generator seed) and asserting that the captured traces are
//! identical — see the [`crate::trace`] module.

use std::sync::Arc;

use crate::arena::BlockArena;
use crate::block::Block;
use crate::element::{Cell, Element};
use crate::error::StoreError;
use crate::store::{BackingStore, BlockStore};

/// The kind of a block access, as visible to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

/// One entry of the adversary's view: an operation on a global block address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessEvent {
    /// Whether the block was read or written.
    pub op: AccessOp,
    /// The global block address.
    pub addr: usize,
}

/// The full adversary view: the ordered sequence of block accesses.
pub type AccessTrace = Vec<AccessEvent>;

/// Cumulative I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of block reads performed.
    pub reads: u64,
    /// Number of block writes performed.
    pub writes: u64,
}

impl IoStats {
    /// Total I/Os (reads + writes).
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::Sub for IoStats {
    type Output = IoStats;
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
        }
    }
}

/// A handle to an array allocated inside an [`ExtMem`] arena.
///
/// The handle records where the array starts (global block index), how many
/// element slots it spans and the block size, so algorithms can address its
/// blocks by a local index `0..handle.n_blocks()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayHandle {
    start_block: usize,
    len_elements: usize,
    block_elems: usize,
}

impl ArrayHandle {
    /// Number of element slots the array spans.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_elements
    }

    /// Whether the array has zero element slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_elements == 0
    }

    /// Block size `B` of the arena this handle belongs to.
    #[inline]
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Number of blocks the array spans (`⌈len/B⌉`).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.len_elements.div_ceil(self.block_elems).max(1)
    }

    /// Global block address of local block `i`.
    #[inline]
    pub fn global_block(&self, i: usize) -> usize {
        debug_assert!(i < self.n_blocks(), "block index out of range");
        self.start_block + i
    }

    /// Global block address of local block `i`, or the typed refusal every
    /// store's fallible block op returns, before it does any I/O or indexes
    /// any per-block table, for an index past the array (which would
    /// otherwise address the next array's blocks).
    pub(crate) fn checked_block(&self, i: usize) -> Result<usize, StoreError> {
        // `i < n_blocks()` without its division: block 0 always exists, and
        // block `i` does exactly when it starts before the array's end.
        if i == 0
            || i.checked_mul(self.block_elems)
                .is_some_and(|lo| lo < self.len_elements)
        {
            Ok(self.start_block + i)
        } else {
            Err(StoreError::InvalidArgument {
                reason: "block index out of range",
            })
        }
    }

    /// Crate-internal constructor used by the other [`crate::store::BlockStore`]
    /// implementations ([`crate::file::FileStore`]); handles must address
    /// blocks identically across backends so traces stay comparable.
    pub(crate) fn new_raw(start_block: usize, len_elements: usize, block_elems: usize) -> Self {
        ArrayHandle {
            start_block,
            len_elements,
            block_elems,
        }
    }
}

/// Bob's block store, with per-operation I/O accounting and trace capture.
#[derive(Debug)]
pub struct ExtMem {
    block_elems: usize,
    blocks: Vec<Block>,
    stats: IoStats,
    trace: Option<AccessTrace>,
    /// Recycles the `Vec<Cell>` of every block this store clones out or
    /// replaces, so the block path stops churning the allocator.
    arena: Arc<BlockArena>,
}

impl ExtMem {
    /// Creates an empty arena with block size `block_elems`.
    pub fn new(block_elems: usize) -> Self {
        assert!(block_elems >= 1, "block size must be at least 1");
        ExtMem {
            block_elems,
            blocks: Vec::new(),
            stats: IoStats::default(),
            trace: None,
            arena: BlockArena::new(),
        }
    }

    /// The buffer pool this store draws block buffers from.
    pub fn arena(&self) -> &Arc<BlockArena> {
        &self.arena
    }

    /// Creates an arena and enables trace capture from the start.
    pub fn with_trace(block_elems: usize) -> Self {
        let mut m = Self::new(block_elems);
        m.enable_trace();
        m
    }

    /// Block size `B`.
    #[inline]
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Total number of blocks currently allocated in the arena.
    #[inline]
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Cumulative I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the I/O counters (does not clear the trace).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Starts recording the access trace (clearing any previous recording).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the captured trace, if any.
    pub fn take_trace(&mut self) -> Option<AccessTrace> {
        self.trace.take()
    }

    /// Read-only view of the trace captured so far.
    pub fn trace(&self) -> Option<&AccessTrace> {
        self.trace.as_ref()
    }

    /// Allocates a new array of `len_elements` slots, all initially dummies.
    pub fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let start_block = self.blocks.len();
        let nb = len_elements.div_ceil(self.block_elems).max(1);
        self.blocks
            .extend((0..nb).map(|_| Block::empty(self.block_elems)));
        ArrayHandle {
            start_block,
            len_elements,
            block_elems: self.block_elems,
        }
    }

    /// Allocates an array and fills it from a slice of cells.
    ///
    /// The initial population is *not* charged as I/Os (it models the data
    /// already residing on the server before the algorithm starts), matching
    /// how the paper counts only the algorithm's own accesses.
    pub fn alloc_array_from_cells(&mut self, cells: &[Cell]) -> ArrayHandle {
        let h = self.alloc_array(cells.len().max(1));
        for (i, chunk) in cells.chunks(self.block_elems).enumerate() {
            let mut blk = Block::empty(self.block_elems);
            for (j, c) in chunk.iter().enumerate() {
                blk.set(j, *c);
            }
            self.blocks[h.start_block + i] = blk;
        }
        h
    }

    /// Allocates an array and fills it from a slice of elements (all occupied).
    pub fn alloc_array_from_elements(&mut self, items: &[Element]) -> ArrayHandle {
        let cells: Vec<Cell> = items.iter().map(|e| Some(*e)).collect();
        self.alloc_array_from_cells(&cells)
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

    /// Non-oblivious convenience used by tests and oracles: loads the whole
    /// array as a flat vector of cells **without** charging I/Os or touching
    /// the trace. Never use this inside an algorithm under test.
    pub fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        let mut out = Vec::with_capacity(h.len());
        for i in 0..h.n_blocks() {
            let blk = &self.blocks[h.global_block(i)];
            for j in 0..self.block_elems {
                if out.len() < h.len() {
                    out.push(blk.get(j));
                }
            }
        }
        out
    }

    /// Non-oblivious convenience used by tests and oracles: the occupied
    /// elements of the array in slot order, free of charge.
    pub fn snapshot_elements(&self, h: &ArrayHandle) -> Vec<Element> {
        self.snapshot_cells(h).into_iter().flatten().collect()
    }
}

impl BlockStore for ExtMem {
    fn block_elems(&self) -> usize {
        self.block_elems
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        ExtMem::alloc_array(self, len_elements)
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn recycle(&mut self, blk: Block) {
        self.arena.put(blk.into_buffer());
    }

    /// Copies local block `i` of array `h` out (one I/O) into a buffer from
    /// the shared [`BlockArena`], not a fresh allocation.
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        self.record(AccessOp::Read, addr);
        let mut buf = self.arena.take(self.block_elems);
        buf.copy_from_slice(self.blocks[addr].slots());
        Ok(Block::from_buffer(buf))
    }

    /// Replaces local block `i` of array `h` (one I/O), recycling the old
    /// block's buffer through the [`BlockArena`].
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        assert_eq!(blk.len(), self.block_elems, "block size mismatch");
        let addr = h.checked_block(i)?;
        self.record(AccessOp::Write, addr);
        let old = std::mem::replace(&mut self.blocks[addr], blk);
        self.arena.put(old.into_buffer());
        Ok(())
    }
}

impl BackingStore for ExtMem {
    fn enable_trace(&mut self) {
        ExtMem::enable_trace(self)
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        ExtMem::take_trace(self)
    }

    fn reset_stats(&mut self) {
        ExtMem::reset_stats(self)
    }

    fn allocated_blocks(&self) -> usize {
        ExtMem::allocated_blocks(self)
    }

    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        ExtMem::snapshot_cells(self, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    #[test]
    fn alloc_array_rounds_up_to_blocks() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(10);
        assert_eq!(h.len(), 10);
        assert_eq!(h.n_blocks(), 3);
        assert_eq!(mem.allocated_blocks(), 3);
    }

    #[test]
    fn initial_population_is_free_but_accesses_are_charged() {
        let mut mem = ExtMem::new(4);
        let items: Vec<Element> = (0..10).map(e).collect();
        let h = mem.alloc_array_from_elements(&items);
        assert_eq!(mem.stats().total(), 0);
        let b0 = mem.try_load_block(&h, 0).unwrap();
        assert_eq!(b0.occupied(), items[..4].to_vec());
        assert_eq!(mem.stats().reads, 1);
        mem.try_store_block(&h, 0, Block::empty(4)).unwrap();
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn cell_level_access_charges_block_ios() {
        // A one-cell span costs its containing block: one read to load it,
        // a read-modify-write to store it.
        let mut mem = ExtMem::new(4);
        let items: Vec<Element> = (0..8).map(e).collect();
        let h = mem.alloc_array_from_elements(&items);
        assert_eq!(mem.try_load_span(&h, 5, 6).unwrap(), vec![Some(e(5))]);
        assert_eq!(mem.stats().reads, 1);
        mem.try_store_span(&h, 5, &[Some(e(99))]).unwrap();
        assert_eq!(
            mem.stats(),
            IoStats {
                reads: 2,
                writes: 1
            }
        );
        assert_eq!(mem.try_load_span(&h, 5, 6).unwrap(), vec![Some(e(99))]);
    }

    #[test]
    fn trace_records_global_addresses_in_order() {
        let mut mem = ExtMem::with_trace(2);
        let a = mem.alloc_array(4); // blocks 0..2
        let b = mem.alloc_array(4); // blocks 2..4
        let _ = mem.try_load_block(&a, 1).unwrap();
        mem.try_store_block(&b, 0, Block::empty(2)).unwrap();
        let t = mem.take_trace().unwrap();
        assert_eq!(
            t,
            vec![
                AccessEvent {
                    op: AccessOp::Read,
                    addr: 1
                },
                AccessEvent {
                    op: AccessOp::Write,
                    addr: 2
                },
            ]
        );
    }

    #[test]
    fn snapshot_matches_contents_and_is_free() {
        let mut mem = ExtMem::new(4);
        let items: Vec<Element> = (0..6).map(e).collect();
        let h = mem.alloc_array_from_elements(&items);
        assert_eq!(mem.snapshot_elements(&h), items);
        assert_eq!(mem.stats().total(), 0);
    }

    #[test]
    fn stats_subtraction_gives_deltas() {
        let a = IoStats {
            reads: 10,
            writes: 4,
        };
        let b = IoStats {
            reads: 3,
            writes: 1,
        };
        assert_eq!(
            a - b,
            IoStats {
                reads: 7,
                writes: 3
            }
        );
    }

    #[test]
    fn out_of_range_block_index_is_a_typed_error() {
        // Local block 1 of a one-block array would be block 0 of the next
        // array; both directions refuse it before any I/O, in release too.
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(4);
        let next = mem.alloc_array_from_elements(&(0..4).map(e).collect::<Vec<_>>());
        let refused = StoreError::InvalidArgument {
            reason: "block index out of range",
        };
        assert_eq!(mem.try_load_block(&h, 1).unwrap_err(), refused);
        assert_eq!(
            mem.try_store_block(&h, 1, Block::empty(4)).unwrap_err(),
            refused
        );
        assert_eq!(mem.stats().total(), 0);
        assert_eq!(
            mem.snapshot_elements(&next),
            (0..4).map(e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn modify_block_pair_costs_two_reads_and_two_writes() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>());
        mem.try_modify_pair(&h, 0, 2, |a, b| {
            for i in 0..4 {
                let (x, y) = (a.get(i), b.get(i));
                a.set(i, y);
                b.set(i, x);
            }
        })
        .unwrap();
        assert_eq!(
            mem.stats(),
            IoStats {
                reads: 2,
                writes: 2
            }
        );
        let cells = mem.snapshot_cells(&h);
        assert_eq!(cells[0], Some(e(8)));
        assert_eq!(cells[8], Some(e(0)));
    }

    #[test]
    fn modify_block_pair_writes_back_unconditionally() {
        // Even an identity modification costs the full 4 I/Os — the access
        // pattern must never depend on whether the data changed.
        let mut mem = ExtMem::with_trace(4);
        let h = mem.alloc_array(8);
        mem.try_modify_pair(&h, 0, 1, |_, _| {}).unwrap();
        assert_eq!(
            mem.stats(),
            IoStats {
                reads: 2,
                writes: 2
            }
        );
        let t = mem.take_trace().unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn read_span_charges_one_read_per_spanned_block() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>());
        let cells = mem.try_load_span(&h, 2, 11).unwrap();
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0], Some(e(2)));
        assert_eq!(cells[8], Some(e(10)));
        assert_eq!(mem.stats().reads, 3); // blocks 0, 1, 2
    }

    #[test]
    fn write_span_full_blocks_are_pure_writes() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(16);
        let cells: Vec<Cell> = (0..8).map(|k| Some(e(k))).collect();
        mem.try_store_span(&h, 4, &cells).unwrap(); // blocks 1 and 2, fully covered
        assert_eq!(
            mem.stats(),
            IoStats {
                reads: 0,
                writes: 2
            }
        );
        assert_eq!(mem.snapshot_cells(&h)[4], Some(e(0)));
        assert_eq!(mem.snapshot_cells(&h)[11], Some(e(7)));
    }

    #[test]
    fn write_span_preserves_cells_outside_partial_blocks() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        mem.try_store_span(&h, 3, &[Some(e(100)), Some(e(101))])
            .unwrap();
        let cells = mem.snapshot_cells(&h);
        assert_eq!(cells[2], Some(e(2)));
        assert_eq!(cells[3], Some(e(100)));
        assert_eq!(cells[4], Some(e(101)));
        assert_eq!(cells[5], Some(e(5)));
        // Both touched blocks are partial: RMW each.
        assert_eq!(
            mem.stats(),
            IoStats {
                reads: 2,
                writes: 2
            }
        );
    }

    #[test]
    fn span_roundtrip() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..12).map(e).collect::<Vec<_>>());
        let mut cells = mem.try_load_span(&h, 0, 12).unwrap();
        cells.reverse();
        mem.try_store_span(&h, 0, &cells).unwrap();
        let got = mem.snapshot_elements(&h);
        let expected: Vec<Element> = (0..12).rev().map(e).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn multiple_arrays_do_not_overlap() {
        let mut mem = ExtMem::new(4);
        let a = mem.alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        let b = mem.alloc_array_from_elements(&(100..108).map(e).collect::<Vec<_>>());
        mem.try_store_span(&a, 0, &[Some(e(55))]).unwrap();
        assert_eq!(mem.snapshot_elements(&b)[0], e(100));
    }
}

//! A tiny write-back block cache used by the scanning algorithms.
//!
//! Many of the paper's algorithms are phrased as one or more synchronized
//! sequential scans ("read the next block of A, keep a block in Alice's
//! memory, write a block to A'"). [`BlockCache`] gives those algorithms an
//! ergonomic way to work at element granularity while still being charged
//! block I/Os exactly as the model prescribes: it holds at most `capacity`
//! blocks of one array in the client's private memory, loads a block on first
//! touch, and writes a block back when it is evicted (only if dirty) or when
//! the cache is flushed. Every block I/O goes through the fallible half of
//! [`BlockStore`], so a failed read or write comes back as a [`StoreError`]
//! at the call that issued it. Nothing is written on drop: the pass calls
//! [`BlockCache::flush`] itself, and a pass that stopped at an error leaves
//! the resident blocks unwritten.
//!
//! The eviction policy is least-recently-used. Because every algorithm in
//! this workspace touches elements through monotone cursors (or through
//! explicitly data-independent index sequences), which blocks get loaded and
//! evicted — i.e. the access pattern the server sees — remains a function of
//! the input *shape* only, never of data values; the obliviousness tests
//! verify this end to end.

use crate::block::Block;
use crate::element::Cell;
use crate::error::StoreError;
use crate::mem::{ArrayHandle, ExtMem};
use crate::store::BlockStore;

/// A small write-back cache of blocks from a single array.
///
/// Generic over the [`BlockStore`] backend, so the same scanning algorithms
/// run over a plaintext [`ExtMem`] arena or an encrypting store; `S` defaults
/// to [`ExtMem`], the common case.
pub struct BlockCache<'a, S: BlockStore = ExtMem> {
    mem: &'a mut S,
    handle: ArrayHandle,
    capacity: usize,
    /// (block index, block contents, dirty, last-use tick)
    resident: Vec<(usize, Block, bool, u64)>,
    tick: u64,
}

impl<'a, S: BlockStore> BlockCache<'a, S> {
    /// Creates a cache over `handle` holding at most `capacity_blocks` blocks
    /// of private memory.
    pub fn new(mem: &'a mut S, handle: ArrayHandle, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks >= 1, "cache must hold at least one block");
        BlockCache {
            mem,
            handle,
            capacity: capacity_blocks,
            resident: Vec::new(),
            tick: 0,
        }
    }

    /// The array handle this cache serves.
    pub fn handle(&self) -> ArrayHandle {
        self.handle
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.resident[slot].3 = self.tick;
    }

    fn load(&mut self, block_idx: usize) -> Result<usize, StoreError> {
        if let Some(pos) = self.resident.iter().position(|(b, ..)| *b == block_idx) {
            self.touch(pos);
            return Ok(pos);
        }
        if self.resident.len() == self.capacity {
            // Evict the least recently used block.
            let victim = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, _, t))| *t)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            let (bi, blk, dirty, _) = self.resident.swap_remove(victim);
            self.write_back(bi, blk, dirty)?;
        }
        let blk = self.mem.try_load_block(&self.handle, block_idx)?;
        self.resident.push((block_idx, blk, false, 0));
        let pos = self.resident.len() - 1;
        self.touch(pos);
        Ok(pos)
    }

    /// Writes a dirty block back; a clean one skips the write and returns
    /// its buffer to the store's arena.
    fn write_back(&mut self, bi: usize, blk: Block, dirty: bool) -> Result<(), StoreError> {
        if dirty {
            self.mem.try_store_block(&self.handle, bi, blk)
        } else {
            self.mem.recycle(blk);
            Ok(())
        }
    }

    /// Reads the cell at element index `idx`.
    pub fn read(&mut self, idx: usize) -> Result<Cell, StoreError> {
        assert!(idx < self.handle.len(), "element index out of range");
        let b = self.handle.block_elems();
        let pos = self.load(idx / b)?;
        Ok(self.resident[pos].1.get(idx % b))
    }

    /// Writes the cell at element index `idx`.
    pub fn write(&mut self, idx: usize, cell: Cell) -> Result<(), StoreError> {
        assert!(idx < self.handle.len(), "element index out of range");
        let b = self.handle.block_elems();
        let pos = self.load(idx / b)?;
        self.resident[pos].1.set(idx % b, cell);
        self.resident[pos].2 = true;
        Ok(())
    }

    /// Writes every dirty resident block back and empties the cache,
    /// stopping at the first failed write.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        for (bi, blk, dirty, _) in std::mem::take(&mut self.resident) {
            self.write_back(bi, blk, dirty)?;
        }
        Ok(())
    }

    /// Number of blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    #[test]
    fn read_write_through_cache_roundtrips() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>());
        {
            let mut cache = BlockCache::new(&mut mem, h, 2);
            assert_eq!(cache.read(5).unwrap(), Some(e(5)));
            cache.write(5, Some(e(99))).unwrap();
            assert_eq!(cache.read(5).unwrap(), Some(e(99)));
            cache.flush().unwrap();
        }
        assert_eq!(mem.snapshot_cells(&h)[5], Some(e(99)));
    }

    #[test]
    fn sequential_scan_costs_one_read_per_block() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
        {
            let mut cache = BlockCache::new(&mut mem, h, 1);
            for i in 0..32 {
                cache.read(i).unwrap();
            }
        }
        // 8 blocks, read once each, nothing dirty.
        assert_eq!(mem.stats().reads, 8);
        assert_eq!(mem.stats().writes, 0);
    }

    #[test]
    fn two_monotone_cursors_fit_in_two_blocks() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
        {
            let mut cache = BlockCache::new(&mut mem, h, 2);
            // Compare-exchange style pass: pairs (i, i + 16).
            for i in 0..16 {
                let a = cache.read(i).unwrap();
                let b = cache.read(i + 16).unwrap();
                cache.write(i, b).unwrap();
                cache.write(i + 16, a).unwrap();
            }
            cache.flush().unwrap();
        }
        // Each of the 8 blocks is loaded once and written once.
        assert_eq!(mem.stats().reads, 8);
        assert_eq!(mem.stats().writes, 8);
        let cells = mem.snapshot_cells(&h);
        assert_eq!(cells[0], Some(e(16)));
        assert_eq!(cells[16], Some(e(0)));
    }

    #[test]
    fn clean_blocks_are_not_written_back() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        {
            let mut cache = BlockCache::new(&mut mem, h, 1);
            cache.read(0).unwrap();
            cache.read(4).unwrap(); // evicts block 0 (clean)
            cache.flush().unwrap();
        }
        assert_eq!(mem.stats().writes, 0);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_victim() {
        let mut mem = ExtMem::new(2);
        let h = mem.alloc_array(8);
        {
            let mut cache = BlockCache::new(&mut mem, h, 2);
            cache.write(0, Some(e(1))).unwrap(); // block 0 dirty
            cache.write(2, Some(e(2))).unwrap(); // block 1 dirty
            cache.write(4, Some(e(3))).unwrap(); // evicts block 0 -> write-back
            cache.flush().unwrap();
        }
        let cells = mem.snapshot_cells(&h);
        assert_eq!(cells[0], Some(e(1)));
        assert_eq!(cells[2], Some(e(2)));
        assert_eq!(cells[4], Some(e(3)));
    }

    #[test]
    fn resident_count_never_exceeds_capacity() {
        let mut mem = ExtMem::new(2);
        let h = mem.alloc_array(20);
        let mut cache = BlockCache::new(&mut mem, h, 3);
        for i in 0..20 {
            cache.write(i, Some(e(i as u64))).unwrap();
            assert!(cache.resident_blocks() <= 3);
        }
    }

    #[test]
    fn dropping_the_cache_writes_nothing_back() {
        // Only an explicit flush writes: a pass that stopped at an error
        // must not issue I/O after it.
        let mut mem = ExtMem::new(2);
        let h = mem.alloc_array(8);
        {
            let mut cache = BlockCache::new(&mut mem, h, 2);
            cache.write(0, Some(e(1))).unwrap();
        }
        assert_eq!(mem.stats().writes, 0);
        assert_eq!(mem.snapshot_cells(&h)[0], None);
    }
}

//! A pool of block buffers: allocate once, recycle forever.
//!
//! Every block that moves between the client and the server is `B` cells
//! wide, so the allocation pattern of the whole workspace is millions of
//! identically-sized `Vec<Cell>`s that live for one block round-trip and are
//! dropped. [`BlockArena`] keeps those buffers alive instead: a store takes a
//! buffer when it materialises a block ([`BlockArena::take`]) and returns the
//! buffer of every block it replaces or discards ([`BlockArena::put`]), so
//! steady-state operation performs no heap allocation at all on the block
//! path. This is the safe-Rust analogue of LevelDB's bump-pointer `Arena`:
//! the crate is `#![forbid(unsafe_code)]`, so instead of handing out raw
//! pointers into slabs we recycle whole owned buffers through a free list,
//! which keeps the same "allocation cost amortises to a pointer bump"
//! property without any lifetime hazards.
//!
//! The arena is plain owned state: [`ExtMem`](crate::mem::ExtMem) and
//! [`FileStore`](crate::file::FileStore) each own one. The store stack is
//! single-threaded, so the pool sits in a [`RefCell`] and every method takes
//! `&self` (a store's non-mutating snapshot path recycles too).
//!
//! # Lifetime rules
//!
//! * A buffer obtained from [`BlockArena::take`] is empty, with capacity for
//!   the cells asked for, and exclusively owned by the caller; the arena
//!   keeps no reference to it. A recycled buffer is emptied before it is
//!   handed out again, so no cell of an earlier block can be read from it.
//! * Returning a buffer via [`BlockArena::put`] is always optional — dropping
//!   a block normally is safe, it merely forfeits the reuse.
//! * The pool holds at most `max_pooled` buffers; beyond that, returned
//!   buffers are dropped (bounding the arena's memory at
//!   `max_pooled · B · sizeof(Cell)`).

use std::cell::RefCell;

use crate::element::Cell;

/// Default cap on pooled buffers.
const DEFAULT_MAX_POOLED: usize = 1024;

/// Cumulative counters describing how well the pool is doing its job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out that had to be freshly allocated (pool was empty
    /// or held only buffers of insufficient capacity).
    pub allocated: u64,
    /// Buffers handed out from the pool without touching the allocator.
    pub reused: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Buffers returned while the pool was full and therefore dropped.
    pub dropped: u64,
}

impl ArenaStats {
    /// Fraction of `take` calls served without allocating, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.allocated + self.reused;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Pool {
    buffers: Vec<Vec<Cell>>,
    stats: ArenaStats,
}

/// A pool of `Vec<Cell>` block buffers. See the module docs for the
/// lifetime rules.
#[derive(Debug)]
pub struct BlockArena {
    pool: RefCell<Pool>,
    max_pooled: usize,
}

impl Default for BlockArena {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MAX_POOLED)
    }
}

impl BlockArena {
    /// Creates an arena that pools at most `DEFAULT_MAX_POOLED` buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena with an explicit pool cap.
    pub fn with_capacity(max_pooled: usize) -> Self {
        BlockArena {
            pool: RefCell::new(Pool::default()),
            max_pooled,
        }
    }

    /// Takes an empty buffer with capacity for at least `n` cells, reusing
    /// a pooled buffer when one is large enough. The caller fills it, so
    /// each cell is written once.
    pub fn take(&self, n: usize) -> Vec<Cell> {
        let mut pool = self.pool.borrow_mut();
        while let Some(mut buf) = pool.buffers.pop() {
            if buf.capacity() >= n {
                pool.stats.reused += 1;
                buf.clear();
                return buf;
            }
            // Undersized stragglers (from a store with a smaller B) are
            // dropped rather than pooled forever.
            pool.stats.dropped += 1;
        }
        pool.stats.allocated += 1;
        Vec::with_capacity(n)
    }

    /// Returns a buffer to the pool (dropping it if the pool is full).
    pub fn put(&self, buf: Vec<Cell>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.pool.borrow_mut();
        if pool.buffers.len() < self.max_pooled {
            pool.stats.recycled += 1;
            pool.buffers.push(buf);
        } else {
            pool.stats.dropped += 1;
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.borrow().buffers.len()
    }

    /// Snapshot of the reuse counters.
    pub fn stats(&self) -> ArenaStats {
        self.pool.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_buffers_of_the_requested_size() {
        let arena = BlockArena::with_capacity(4);
        let mut buf = arena.take(8);
        assert!(buf.is_empty() && buf.capacity() >= 8);
        buf.resize(8, None);
        buf[3] = Some(crate::element::Element::new(1, 2));
        arena.put(buf);
        let again = arena.take(8);
        assert!(again.capacity() >= 8);
        assert!(again.is_empty(), "recycled buffers are emptied");
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let arena = BlockArena::with_capacity(4);
        let buf = arena.take(16);
        arena.put(buf);
        let _ = arena.take(16);
        let stats = arena.stats();
        assert_eq!(stats.allocated, 1);
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.recycled, 1);
        assert!(stats.reuse_rate() > 0.49);
    }

    #[test]
    fn pool_cap_bounds_memory() {
        let arena = BlockArena::with_capacity(2);
        for _ in 0..5 {
            arena.put(vec![None; 8]);
        }
        assert_eq!(arena.pooled(), 2);
        assert_eq!(arena.stats().dropped, 3);
    }

    #[test]
    fn undersized_pooled_buffers_are_not_served() {
        let arena = BlockArena::with_capacity(4);
        arena.put(vec![None; 2]);
        let buf = arena.take(64);
        assert!(buf.is_empty() && buf.capacity() >= 64);
        assert_eq!(arena.stats().allocated, 1);
    }

    #[test]
    fn arena_is_usable_from_many_threads() {
        // The arena is owned, not shared: it moves with its store from
        // thread to thread and keeps its pool and counters on the way.
        let mut arena = BlockArena::new();
        for _ in 0..4 {
            arena = std::thread::spawn(move || {
                for _ in 0..200 {
                    let buf = arena.take(32);
                    assert!(buf.is_empty() && buf.capacity() >= 32);
                    arena.put(buf);
                }
                arena
            })
            .join()
            .unwrap();
        }
        let stats = arena.stats();
        assert_eq!(stats.allocated + stats.reused, 800);
        assert_eq!(stats.allocated, 1, "one buffer served every take");
    }
}

//! Blocks: the unit of transfer between the client cache and the server.
//!
//! In the external-memory model (Aggarwal–Vitter), data moves between the
//! private cache and external storage in contiguous blocks of `B` words. Each
//! [`Block`] here holds `B` element slots ([`Cell`]s); a slot may be empty
//! (dummy). Block-level helpers used by the algorithms — counting occupied
//! slots, listing them in order — live here so the algorithm crates can
//! stay at the level the paper describes.

use crate::element::{Cell, Element};

/// A block of `B` element slots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    slots: Vec<Cell>,
}

impl Block {
    /// Creates an empty block with `b` slots (all dummies).
    pub fn empty(b: usize) -> Self {
        Block {
            slots: vec![None; b],
        }
    }

    /// Creates a block from a slice of cells (its length becomes `B`).
    pub fn from_cells(cells: &[Cell]) -> Self {
        Block {
            slots: cells.to_vec(),
        }
    }

    /// Wraps an owned buffer (typically recycled from a
    /// [`BlockArena`](crate::arena::BlockArena)) as a block without copying.
    pub fn from_buffer(slots: Vec<Cell>) -> Self {
        Block { slots }
    }

    /// Unwraps the block into its owned buffer so it can be returned to a
    /// [`BlockArena`](crate::arena::BlockArena) instead of dropped.
    pub fn into_buffer(self) -> Vec<Cell> {
        self.slots
    }

    /// The block size `B` (number of slots).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the block has zero slots (never the case for allocated blocks).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read-only view of the slots.
    #[inline]
    pub fn slots(&self) -> &[Cell] {
        &self.slots
    }

    /// Mutable view of the slots.
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [Cell] {
        &mut self.slots
    }

    /// Gets slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Cell {
        self.slots[i]
    }

    /// Sets slot `i`.
    #[inline]
    pub fn set(&mut self, i: usize, cell: Cell) {
        self.slots[i] = cell;
    }

    /// Number of occupied (non-dummy) slots.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every slot is a dummy.
    pub fn is_all_dummy(&self) -> bool {
        self.slots.iter().all(|c| c.is_none())
    }

    /// Returns the occupied elements in slot order (relative order preserved).
    pub fn occupied(&self) -> Vec<Element> {
        self.slots.iter().filter_map(|c| *c).collect()
    }

    /// Clears every slot to a dummy.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    #[test]
    fn empty_block_has_zero_occupancy() {
        let b = Block::empty(8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.occupancy(), 0);
        assert!(b.is_all_dummy());
    }

    #[test]
    fn occupancy_counts_non_dummy_slots() {
        let mut b = Block::empty(4);
        b.set(1, Some(e(10)));
        b.set(3, Some(e(20)));
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.occupied(), vec![e(10), e(20)]);
    }

    #[test]
    fn clear_resets_all_slots() {
        let cells: Vec<Cell> = (0..4).map(|k| Some(e(k))).collect();
        let mut b = Block::from_cells(&cells);
        b.clear();
        assert!(b.is_all_dummy());
    }
}

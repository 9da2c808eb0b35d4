//! The [`BlockStore`] abstraction: anything that serves block reads and
//! writes with I/O accounting.
//!
//! The first algorithms were written directly against
//! [`ExtMem`](crate::mem::ExtMem). The paper, however, is explicit that the
//! algorithms never depend on *how* blocks are stored — only on the block
//! interface and the fact that the adversary sees addresses, not contents.
//! [`BlockStore`] captures exactly that interface, and is implemented by both
//! the plaintext arena ([`ExtMem`](crate::mem::ExtMem)) and the re-encrypting
//! masking layer ([`EncryptedStore`](crate::crypto::EncryptedStore)).
//! An algorithm written against the trait — like `odo-core`'s external
//! butterfly compaction — therefore runs unchanged over an encrypted
//! outsourced store, with an identical address trace and identical I/O count
//! (the encryption layer adds zero I/Os; the bench harness verifies this).
//!
//! The required block ops are the fallible [`BlockStore::try_load_block`] /
//! [`BlockStore::try_store_block`]. The provided combinators
//! ([`BlockStore::try_modify_pair`], [`BlockStore::try_load_span`],
//! [`BlockStore::try_store_span`]) are expressed purely in terms of them, so
//! every implementor gets them — and their fixed access order — for free.
//! The passes call only this fallible surface; the provided `load_block`,
//! `store_block`, `modify_pair`, `load_span` and `store_span` are one-line
//! wrappers that panic with the error's message.

use crate::block::Block;
use crate::element::Cell;
use crate::error::StoreError;
use crate::mem::{AccessTrace, ArrayHandle, IoStats};

/// The typed refusal of a fallible span op whose span is not inside its
/// array.
const SPAN_OUT_OF_RANGE: StoreError = StoreError::InvalidArgument {
    reason: "span out of range",
};

/// A server that stores arrays of blocks and charges one I/O per block read
/// or write. The access *order* of the provided methods is fixed and
/// documented, which is what the obliviousness arguments rely on.
pub trait BlockStore {
    /// Block size `B` in element slots.
    fn block_elems(&self) -> usize;

    /// Allocates a new array of `len_elements` slots, all initially dummies.
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle;

    /// Cumulative I/O counters of the underlying server.
    fn io_stats(&self) -> IoStats;

    /// Announces that the local blocks `blocks` of array `h` are about to be
    /// read, in order. Purely advisory: the default is a no-op, and a store
    /// that honors hints (like
    /// [`PrefetchingStore`](crate::prefetch::PrefetchingStore)) must neither
    /// charge I/Os for them nor change the visible access trace — the hint
    /// schedule is derived from the input *shape* alone (the pass structure
    /// of the oblivious algorithms), so issuing it early leaks nothing the
    /// trace itself would not.
    fn hint_blocks(&mut self, _h: &ArrayHandle, _blocks: &[usize]) {}

    /// Offers a no-longer-needed block's buffer back to the store's pool
    /// ([`BlockArena`](crate::arena::BlockArena)). Advisory; the default
    /// drops the block.
    fn recycle(&mut self, _blk: Block) {}

    /// Reads local block `i` of array `h` (one I/O). A local index past the
    /// array is refused with [`StoreError::InvalidArgument`] before any I/O;
    /// untrusted or unreliable stores
    /// ([`FaultyStore`](crate::fault::FaultyStore),
    /// [`AuthenticatedStore`](crate::auth::AuthenticatedStore)) surface
    /// their failures as other [`StoreError`]s instead of wrong data.
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError>;

    /// Writes local block `i` of array `h` (one I/O). A local index past the
    /// array is refused with [`StoreError::InvalidArgument`] before any I/O.
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError>;

    /// [`BlockStore::try_load_block`], panicking where it fails.
    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        self.try_load_block(h, i).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BlockStore::try_store_block`], panicking where it fails.
    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        self.try_store_block(h, i, blk)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fused read-modify-write of the distinct block pair `(i, j)` in the
    /// fixed order: read `i`, read `j`, write `i`, write `j` (4 I/Os). Writes
    /// are unconditional, so the trace never depends on whether the data
    /// changed. Stops at the first failing I/O. `i == j` is refused with
    /// [`StoreError::InvalidArgument`] before any I/O.
    fn try_modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) -> Result<(), StoreError> {
        if i == j {
            return Err(StoreError::InvalidArgument {
                reason: "block pair must be two distinct blocks",
            });
        }
        let mut a = self.try_load_block(h, i)?;
        let mut b = self.try_load_block(h, j)?;
        f(&mut a, &mut b);
        self.try_store_block(h, i, a)?;
        self.try_store_block(h, j, b)
    }

    /// Reads the element span `[elem_lo, elem_hi)` into a flat cell vector,
    /// one read I/O per spanned block, blocks in ascending order; stops at
    /// the first failing read. A span outside the array is refused with
    /// [`StoreError::InvalidArgument`] before any I/O.
    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        if elem_lo > elem_hi || elem_hi > h.len() {
            return Err(SPAN_OUT_OF_RANGE);
        }
        if elem_lo == elem_hi {
            return Ok(Vec::new());
        }
        let b = self.block_elems();
        let blk_lo = elem_lo / b;
        let blk_hi = (elem_hi - 1) / b;
        if blk_hi > blk_lo {
            let schedule: Vec<usize> = (blk_lo..=blk_hi).collect();
            self.hint_blocks(h, &schedule);
        }
        let mut out = Vec::with_capacity(elem_hi - elem_lo);
        for bi in blk_lo..=blk_hi {
            let blk = self.try_load_block(h, bi)?;
            let lo = elem_lo.max(bi * b) - bi * b;
            let hi = elem_hi.min((bi + 1) * b) - bi * b;
            out.extend_from_slice(&blk.slots()[lo..hi]);
            self.recycle(blk);
        }
        Ok(out)
    }

    /// Writes `cells` back to the element span starting at `elem_lo`, one
    /// write I/O per spanned block (plus one read I/O for each boundary block
    /// the span only partially covers), blocks in ascending order; stops at
    /// the first failing I/O. A span outside the array is refused with
    /// [`StoreError::InvalidArgument`] before any I/O.
    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let elem_hi = match elem_lo.checked_add(cells.len()) {
            Some(hi) if hi <= h.len() => hi,
            _ => return Err(SPAN_OUT_OF_RANGE),
        };
        if cells.is_empty() {
            return Ok(());
        }
        let b = self.block_elems();
        let blk_lo = elem_lo / b;
        let blk_hi = (elem_hi - 1) / b;
        for bi in blk_lo..=blk_hi {
            let lo = elem_lo.max(bi * b);
            let hi = elem_hi.min((bi + 1) * b);
            let full = lo == bi * b && hi == (bi + 1) * b;
            let mut blk = if full {
                Block::empty(b)
            } else {
                self.try_load_block(h, bi)?
            };
            for (slot, cell) in (lo - bi * b..hi - bi * b).zip(&cells[lo - elem_lo..hi - elem_lo]) {
                blk.set(slot, *cell);
            }
            self.try_store_block(h, bi, blk)?;
        }
        Ok(())
    }

    /// [`BlockStore::try_modify_pair`], panicking where it fails.
    fn modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) {
        self.try_modify_pair(h, i, j, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BlockStore::try_load_span`], panicking where it fails.
    fn load_span(&mut self, h: &ArrayHandle, elem_lo: usize, elem_hi: usize) -> Vec<Cell> {
        self.try_load_span(h, elem_lo, elem_hi)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BlockStore::try_store_span`], panicking where it fails.
    fn store_span(&mut self, h: &ArrayHandle, elem_lo: usize, cells: &[Cell]) {
        self.try_store_span(h, elem_lo, cells)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The extra surface a *bottom-level* server backend exposes beyond
/// [`BlockStore`]: trace capture, stats reset, global allocation state and a
/// free (unmetered) snapshot. The wrappers that need a concrete backend
/// underneath them — [`EncryptedStore`](crate::crypto::EncryptedStore) in
/// particular — are generic over this trait, so the same masking layer runs
/// over the in-memory arena ([`ExtMem`](crate::mem::ExtMem)) or the on-disk
/// [`FileStore`](crate::file::FileStore) without caring which.
pub trait BackingStore: BlockStore {
    /// Starts recording the access trace (clearing any previous recording).
    fn enable_trace(&mut self);

    /// Stops recording and returns the captured trace, if any.
    fn take_trace(&mut self) -> Option<AccessTrace>;

    /// Resets the I/O counters (does not clear the trace).
    fn reset_stats(&mut self);

    /// Total number of blocks currently allocated in the backend.
    fn allocated_blocks(&self) -> usize;

    /// Non-oblivious convenience used by tests and oracles: the whole array
    /// as a flat vector of cells, **without** charging I/Os or touching the
    /// trace. Never use this inside an algorithm under test.
    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::mem::ExtMem;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    // Exercise the provided combinators through the trait so every
    // implementor inherits tested behavior.
    fn store_roundtrip<S: BlockStore>(store: &mut S) {
        let h = store.alloc_array(12);
        let cells: Vec<Cell> = (0..12).map(|k| Some(e(k))).collect();
        store.try_store_span(&h, 0, &cells).unwrap();
        assert_eq!(store.try_load_span(&h, 0, 12).unwrap(), cells);
        store
            .try_modify_pair(&h, 0, 2, |a, b| {
                let (x, y) = (a.get(0), b.get(0));
                a.set(0, y);
                b.set(0, x);
            })
            .unwrap();
        let after = store.try_load_span(&h, 0, 12).unwrap();
        assert_eq!(after[0], Some(e(8)));
        assert_eq!(after[8], Some(e(0)));
    }

    #[test]
    fn extmem_implements_the_trait_combinators() {
        let mut mem = ExtMem::new(4);
        store_roundtrip(&mut mem);
    }

    /// Runs `op` against a populated 12-slot array and asserts it is refused
    /// with a typed `InvalidArgument` before the store is touched.
    fn assert_refused<S: BlockStore>(
        store: &mut S,
        op: impl Fn(&mut S, &ArrayHandle, &[Cell]) -> Result<(), StoreError>,
    ) {
        let h = store.alloc_array(12);
        let cells: Vec<Cell> = (0..12).map(|k| Some(e(k))).collect();
        store.try_store_span(&h, 0, &cells).unwrap();
        let before = store.io_stats();
        match op(store, &h, &cells) {
            Err(StoreError::InvalidArgument { .. }) => {}
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        assert_eq!(store.io_stats(), before, "a refused op must not do I/O");
        assert_eq!(store.try_load_span(&h, 0, 12).unwrap(), cells);
    }

    /// The authenticated, encrypted stack the refusals are also checked on.
    fn secure_stack() -> crate::AuthenticatedStore<crate::EncryptedStore> {
        crate::AuthenticatedStore::new(crate::EncryptedStore::new(4, 0x51), 0x4D)
    }

    #[test]
    fn try_modify_pair_refuses_a_repeated_block() {
        assert_refused(&mut ExtMem::new(4), |s, h, _| {
            s.try_modify_pair(h, 1, 1, |_, _| {})
        });
        assert_refused(&mut secure_stack(), |s, h, _| {
            s.try_modify_pair(h, 1, 1, |_, _| {})
        });
    }

    #[test]
    fn try_load_span_refuses_a_span_outside_the_array() {
        for (lo, hi) in [(0, 13), (5, 4)] {
            assert_refused(&mut ExtMem::new(4), |s, h, _| {
                s.try_load_span(h, lo, hi).map(drop)
            });
            assert_refused(&mut secure_stack(), |s, h, _| {
                s.try_load_span(h, lo, hi).map(drop)
            });
        }
    }

    #[test]
    fn try_store_span_refuses_a_span_outside_the_array() {
        for lo in [8, usize::MAX] {
            assert_refused(&mut ExtMem::new(4), |s, h, c| {
                s.try_store_span(h, lo, &c[..5])
            });
            assert_refused(&mut secure_stack(), |s, h, c| {
                s.try_store_span(h, lo, &c[..5])
            });
        }
    }

    /// The trace `op` leaves on a fresh two-block `ExtMem` array.
    fn pair_trace(op: impl FnOnce(&mut ExtMem, &ArrayHandle)) -> AccessTrace {
        let mut mem = ExtMem::with_trace(4);
        let h = BlockStore::alloc_array(&mut mem, 8);
        op(&mut mem, &h);
        mem.take_trace().unwrap()
    }

    #[test]
    fn try_pair_trace_matches_infallible_pair_trace() {
        // The fallible pair op must leave the identical server-visible trace
        // as its panicking wrapper: read i, read j, write i, write j.
        let t1 = pair_trace(|m, h| m.try_modify_pair(h, 0, 1, |_, _| {}).unwrap());
        let t2 = pair_trace(|m, h| m.modify_pair(h, 0, 1, |_, _| {}));
        assert_eq!(t1, t2);
    }

    #[test]
    fn trait_pair_order_matches_inherent_fast_path() {
        // The provided pair op issues exactly the four block ops the
        // hand-written fast path of the external sort issued: read i,
        // read j, write i, write j.
        let t1 = pair_trace(|m, h| m.try_modify_pair(h, 0, 1, |_, _| {}).unwrap());
        let t2 = pair_trace(|m, h| {
            let a = m.try_load_block(h, 0).unwrap();
            let b = m.try_load_block(h, 1).unwrap();
            m.try_store_block(h, 0, a).unwrap();
            m.try_store_block(h, 1, b).unwrap();
        });
        assert_eq!(t1, t2);
    }

    #[test]
    fn an_out_of_range_block_index_is_refused_by_every_layer() {
        // Local block `n_blocks()` of `a` is global block 0 of `next`. Every
        // layer refuses it with a typed error, in release builds too, and
        // the neighbouring array keeps its contents.
        fn check<S: BlockStore>(store: &mut S) {
            let a = store.alloc_array(8);
            let next = store.alloc_array(8);
            let cells: Vec<Cell> = (0..8).map(|k| Some(e(k))).collect();
            store.try_store_span(&next, 0, &cells).unwrap();
            let refused = StoreError::InvalidArgument {
                reason: "block index out of range",
            };
            let before = store.io_stats();
            assert_eq!(store.try_load_block(&a, a.n_blocks()).unwrap_err(), refused);
            let blk = Block::from_cells(&cells[..4]);
            assert_eq!(
                store.try_store_block(&a, a.n_blocks(), blk).unwrap_err(),
                refused
            );
            assert_eq!(store.io_stats(), before, "a refused op must not do I/O");
            assert_eq!(store.try_load_span(&next, 0, 8).unwrap(), cells);
        }
        check(&mut ExtMem::new(4));
        let file = crate::FileStore::temp(4).unwrap();
        let enc = crate::EncryptedStore::with_backing(file, 0x51);
        let auth = crate::AuthenticatedStore::new(enc, 0x4D);
        check(&mut crate::PrefetchingStore::new(auth));
    }
}

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
//!
//! The span ops are the one way a run of blocks moves in one request. A
//! store with a cheaper batch path (one slice copy, one positioned read or
//! write, a batched keystream or MAC kernel) overrides them through `load_span_with` and
//! `store_span_with`: the blocks a span covers whole go through the
//! store's batch, and a partly covered boundary block — including an
//! array's partial last block — goes through its single-block op, in the
//! ascending block order of the per-block defaults. An override therefore
//! returns the same cells, charges the same I/Os and leaves the same trace
//! as the default for every span that succeeds. A span that fails can
//! differ in two places:
//!
//! * [`AuthenticatedStore`](crate::auth::AuthenticatedStore) reads every
//!   whole block of a span from the store below before it checks any of
//!   them, so a block that fails its check has cost the reads of the blocks
//!   after it, where the default stops at that block (and a fault the read
//!   meets after it surfaces instead of the check's error);
//! * [`RetryingStore`](crate::retry::RetryingStore) reads a span load that
//!   failed transiently again block by block from its first block, so the
//!   blocks before the failing one are read twice.

use std::ops::Range;

use crate::block::Block;
use crate::element::Cell;
use crate::error::StoreError;
use crate::mem::{AccessTrace, ArrayHandle, IoStats};

/// The typed refusal of a fallible span op whose span is not inside its
/// array.
const SPAN_OUT_OF_RANGE: StoreError = StoreError::InvalidArgument {
    reason: "span out of range",
};

/// Reads the element span `[elem_lo, elem_hi)` of `h`: the blocks it covers
/// whole as one call of `load_whole` (which returns their cells), each
/// boundary block through `try_load_block`, in ascending block order. Stops
/// at the first error; a span outside the array is refused before any I/O.
pub(crate) fn load_span_with<S: BlockStore + ?Sized>(
    store: &mut S,
    h: &ArrayHandle,
    elem_lo: usize,
    elem_hi: usize,
    mut load_whole: impl FnMut(&mut S, &ArrayHandle, Range<usize>) -> Result<Vec<Cell>, StoreError>,
) -> Result<Vec<Cell>, StoreError> {
    if elem_lo > elem_hi || elem_hi > h.len() {
        return Err(SPAN_OUT_OF_RANGE);
    }
    if elem_lo == elem_hi {
        return Ok(Vec::new());
    }
    let b = h.block_elems();
    let whole = elem_lo.div_ceil(b)..elem_hi / b;
    let mut out = Vec::new();
    let mut bi = elem_lo / b;
    while bi * b < elem_hi {
        if bi == whole.start && !whole.is_empty() {
            let cells = load_whole(store, h, whole.clone())?;
            if out.is_empty() {
                out = cells;
            } else {
                out.extend_from_slice(&cells);
            }
            bi = whole.end;
        } else {
            let blk = store.try_load_block(h, bi)?;
            let lo = elem_lo.max(bi * b) - bi * b;
            let hi = elem_hi.min((bi + 1) * b) - bi * b;
            out.extend_from_slice(&blk.slots()[lo..hi]);
            store.recycle(blk);
            bi += 1;
        }
    }
    Ok(out)
}

/// Reads the whole blocks `blocks` of `h` one [`BlockStore::try_load_block`]
/// at a time, in ascending order: the per-block form of a span's batch.
pub(crate) fn load_each<S: BlockStore + ?Sized>(
    store: &mut S,
    h: &ArrayHandle,
    blocks: Range<usize>,
) -> Result<Vec<Cell>, StoreError> {
    let mut out = Vec::with_capacity(blocks.len() * h.block_elems());
    for bi in blocks {
        let blk = store.try_load_block(h, bi)?;
        out.extend_from_slice(blk.slots());
        store.recycle(blk);
    }
    Ok(out)
}

/// Writes `cells` to the element span of `h` starting at `elem_lo`: the
/// blocks it covers whole as one call of `store_whole` (given the first
/// block and their cells), each boundary block as a read-modify-write
/// through the single-block ops, in ascending block order. Stops at the
/// first error; a span outside the array is refused before any I/O.
pub(crate) fn store_span_with<S: BlockStore + ?Sized>(
    store: &mut S,
    h: &ArrayHandle,
    elem_lo: usize,
    cells: &[Cell],
    mut store_whole: impl FnMut(&mut S, &ArrayHandle, usize, &[Cell]) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let elem_hi = match elem_lo.checked_add(cells.len()) {
        Some(hi) if hi <= h.len() => hi,
        _ => return Err(SPAN_OUT_OF_RANGE),
    };
    if cells.is_empty() {
        return Ok(());
    }
    let b = h.block_elems();
    let whole = elem_lo.div_ceil(b)..elem_hi / b;
    let mut bi = elem_lo / b;
    while bi * b < elem_hi {
        if bi == whole.start && !whole.is_empty() {
            store_whole(
                store,
                h,
                bi,
                &cells[bi * b - elem_lo..whole.end * b - elem_lo],
            )?;
            bi = whole.end;
        } else {
            let lo = elem_lo.max(bi * b);
            let hi = elem_hi.min((bi + 1) * b);
            let mut blk = store.try_load_block(h, bi)?;
            blk.slots_mut()[lo - bi * b..hi - bi * b]
                .copy_from_slice(&cells[lo - elem_lo..hi - elem_lo]);
            store.try_store_block(h, bi, blk)?;
            bi += 1;
        }
    }
    Ok(())
}

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

    /// Refuses, without any I/O, the cells `cells` of local block `i` of
    /// `h` if this store would refuse to write them: under
    /// [`EncryptedStore`](crate::crypto::EncryptedStore), a payload wider
    /// than 63 bits ([`StoreError::PayloadTooWide`]). A layer that accepts
    /// a write before the layers below see it — the write-behind buffer of
    /// [`PrefetchingStore`](crate::prefetch::PrefetchingStore) — asks here
    /// first, so the refusal comes when the write is accepted. The default
    /// accepts every write; the library's wrappers forward to the store
    /// they wrap.
    fn check_write(&self, _h: &ArrayHandle, _i: usize, _cells: &[Cell]) -> Result<(), StoreError> {
        Ok(())
    }

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
    /// [`StoreError::InvalidArgument`] before any I/O. A span of several
    /// blocks is announced through [`BlockStore::hint_blocks`] first.
    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        let b = h.block_elems();
        if elem_lo < elem_hi && elem_hi <= h.len() && (elem_hi - 1) / b > elem_lo / b {
            let schedule: Vec<usize> = (elem_lo / b..=(elem_hi - 1) / b).collect();
            self.hint_blocks(h, &schedule);
        }
        load_span_with(self, h, elem_lo, elem_hi, load_each)
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
        store_span_with(self, h, elem_lo, cells, |s, h, first, cells| {
            for (k, chunk) in cells.chunks(h.block_elems()).enumerate() {
                s.try_store_block(h, first + k, Block::from_cells(chunk))?;
            }
            Ok(())
        })
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

    #[test]
    fn a_wrong_size_block_is_refused_by_every_layer() {
        // A block that is not `B` cells wide is a typed error before any
        // I/O, nonce change or tag change: the block still reads back
        // (decrypts and verifies) as it was, in release builds too.
        fn check<S: BlockStore>(store: &mut S) {
            let h = store.alloc_array(8);
            let cells: Vec<Cell> = (0..8).map(|k| Some(e(k))).collect();
            store.try_store_span(&h, 0, &cells).unwrap();
            let refused = StoreError::InvalidArgument {
                reason: "block size mismatch",
            };
            let before = store.io_stats();
            for len in [3, 5, 0] {
                let blk = Block::from_cells(&vec![Some(e(99)); len]);
                assert_eq!(store.try_store_block(&h, 1, blk).unwrap_err(), refused);
            }
            assert_eq!(store.io_stats(), before, "a refused op must not do I/O");
            assert_eq!(store.try_load_span(&h, 0, 8).unwrap(), cells);
        }
        let file = || crate::FileStore::temp(4).unwrap();
        let enc = || crate::EncryptedStore::with_backing(file(), 0x51);
        let auth = || crate::AuthenticatedStore::new(enc(), 0x4D);
        check(&mut ExtMem::new(4));
        check(&mut file());
        check(&mut enc());
        check(&mut auth());
        let mut ps = crate::PrefetchingStore::new(auth());
        check(&mut ps);
        ps.flush_writes().unwrap();
    }
}

//! Simulated semantically secure block encryption.
//!
//! The paper assumes block contents are encrypted "using a semantically
//! secure encryption scheme such that re-encryption of the same value is
//! indistinguishable from an encryption of a different value" (Section 1).
//! The obliviousness arguments never rely on *how* encryption works — only on
//! the fact that the server learns nothing from ciphertexts and therefore the
//! only signal is the address trace.
//!
//! [`EncryptedStore`] exists so the examples and integration tests exercise
//! the full read–decrypt–modify–re-encrypt–write path a real outsourced-store
//! client would use, and so we can *demonstrate* the semantic-security
//! modelling: every write uses a fresh nonce, so writing the same plaintext
//! block twice produces different ciphertexts.
//!
//! The cipher is a keyed `splitmix64` keystream (a toy stream cipher). It is
//! **not** cryptographically strong and is clearly documented as a
//! simulation substitute — the substitution table in `DESIGN.md` at the
//! workspace root maps every toy primitive to its real counterpart;
//! swapping in a real AEAD would not change any access pattern or I/O
//! count. Note that
//! encryption alone provides **no integrity or freshness**: wrap the store
//! in [`AuthenticatedStore`](crate::auth::AuthenticatedStore) when the
//! server may tamper or roll back.
//!
//! # Encoding
//!
//! Each cell is serialised to two 64-bit plaintext words: the key, and a word
//! whose top bit is the occupancy flag and whose low 63 bits are the payload.
//! Consequently payloads stored through the encrypted path are limited to 63
//! bits: every write ([`BlockStore::try_store_block`] and the span path)
//! rejects wider ones with [`StoreError::PayloadTooWide`] before any I/O.
//! Keys keep the full 64 bits.
//!
//! # The fused keystream kernel
//!
//! The scalar reference derives each keystream word independently as
//! `hash64(addr ⊕ rot(slot) ⊕ rot(lane), key ⊕ nonce·φ)` — two `splitmix64`
//! applications per word, four per cell. The kernel computes the identical
//! words with two per cell and one per block: the inner
//! `splitmix64(key ⊕ nonce·φ)` depends only on `(key, nonce)`, so
//! `Keystream::new` mixes it once per block, and each cell then derives
//! its two words inline as `splitmix64(x)` and `splitmix64(x ⊕ LANE1)`,
//! where `x` is the hoisted base XOR the rotated slot. There is no
//! keystream buffer: each cell's words are XORed into it as they are made,
//! so consecutive cells are independent mixing chains the compiler can
//! overlap. The kernel is **bit-identical to the scalar path by
//! construction** (the same ops per word, only hoisted); a test checks it
//! word for word.
//!
//! No per-cell loop branches on occupancy: a cell is read through a
//! pointer select (`cell.as_ref().unwrap_or(&ZERO)`, an empty cell as the
//! zero element) with `cell.is_some()` as its occupancy bit. That is the
//! ciphertext side of both directions; a decrypted cell is still written
//! as `Some`/`None` by a branch on its occupancy bit.
//!
//! **The fused width check.** Sealing a block also ORs its payloads, so the
//! 63-bit check costs no second pass over the plaintext: a block whose OR
//! has bit 63 set is refused with [`StoreError::PayloadTooWide`] (naming
//! its first over-wide payload) and its ciphertext is dropped unwritten.
//! A span write stops sealing at that block and writes the blocks before
//! it, exactly as block-at-a-time writes would.
//!
//! **Scratch lifetime.** The store owns one reusable `Vec<Cell>` scratch
//! that every write seals into, straight from the caller's plaintext
//! cells. A span write hands it to the backend as the span's ciphertext; a
//! block write copies it into the block's own buffer once the width check
//! passed, so a refused block leaves its plaintext untouched for the
//! error. The scratch only ever holds ciphertext — what the server
//! receives anyway — so it needs no zeroizing; it keeps its capacity (the
//! longest span written) for the next span. Every read decrypts the
//! block's own buffer in place.
//!
//! # The span path
//!
//! [`BlockStore::try_load_span`] and [`BlockStore::try_store_span`] move the
//! blocks a span covers whole as one span of the backend, en/decrypting
//! them block after block with the kernel. Nonces are assigned per block in
//! ascending address order, exactly as block-at-a-time writes assign them,
//! so the ciphertext is bit-identical to theirs.

use std::ops::Range;

use crate::block::Block;
use crate::element::{Cell, Element, ZERO};
use crate::error::StoreError;
use crate::mem::{ArrayHandle, ExtMem, IoStats};
use crate::store::{load_span_with, store_span_with, BackingStore, BlockStore};
use crate::util::splitmix64;

const PAYLOAD_MASK: u64 = (1 << 63) - 1;
const OCC_BIT: u64 = 1 << 63;

/// The golden-ratio multiplier mixed into the per-write nonce (the same
/// constant `splitmix64` increments by).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lane-1 (payload word) tweak: `1u64.rotate_left(40)` of the scalar path.
const LANE1: u64 = 1u64 << 40;

/// The keystream of one block under one nonce: [`Keystream::words`] masks
/// one slot's key word and payload word. Bit-identical to the scalar
/// per-word derivation (the module docs' formula, tested word for word).
#[derive(Clone, Copy)]
struct Keystream {
    /// `addr ⊕ splitmix64(key ⊕ nonce·φ)`: the part every word of the
    /// block shares.
    base: u64,
}

impl Keystream {
    #[inline]
    fn new(key: u64, addr: usize, nonce: u64) -> Self {
        // hash64(x, salt) = splitmix64(x ^ splitmix64(salt)): the inner
        // application depends only on (key, nonce), so it runs once per block.
        Keystream {
            base: (addr as u64) ^ splitmix64(key ^ nonce.wrapping_mul(GOLDEN)),
        }
    }

    /// The key-word and payload-word masks of slot `slot`.
    #[inline]
    fn words(self, slot: usize) -> (u64, u64) {
        let x = self.base ^ (slot as u64).rotate_left(20);
        (splitmix64(x), splitmix64(x ^ LANE1))
    }

    /// The ciphertext of plaintext `cell` in slot `slot`. The cell is read
    /// branch-free: an empty cell as the zero element with occupancy 0.
    /// Only [`seal_into`] calls this, and it reports an over-wide payload
    /// so that its ciphertext is never written.
    #[inline]
    fn seal(self, slot: usize, cell: &Cell) -> Cell {
        let (k0, k1) = self.words(slot);
        let e = cell.as_ref().unwrap_or(&ZERO);
        let occ = (cell.is_some() as u64) << 63;
        Some(Element::new(e.key ^ k0, (occ | e.payload) ^ k1))
    }

    /// The plaintext of ciphertext `cell` in slot `slot`. The ciphertext is
    /// read branch-free: a missing slot decrypts as zero words, and the
    /// occupancy bit then reads as a dummy.
    #[inline]
    fn open(self, slot: usize, cell: &Cell) -> Cell {
        let (k0, k1) = self.words(slot);
        let ct = cell.as_ref().unwrap_or(&ZERO);
        let (w0, w1) = (ct.key ^ k0, ct.payload ^ k1);
        (w1 & OCC_BIT != 0).then(|| Element::new(w0, w1 & PAYLOAD_MASK))
    }
}

/// Appends the ciphertext of one block's plaintext `cells` to `out` and
/// returns whether any payload is wider than 63 bits. The width check rides
/// the same pass: the payloads are ORed as the cells are sealed. When it
/// returns `true`, the block's ciphertext must not be written.
fn seal_into(ks: Keystream, cells: &[Cell], out: &mut Vec<Cell>) -> bool {
    let mut payloads = 0;
    out.extend(cells.iter().enumerate().map(|(i, cell)| {
        payloads |= cell.as_ref().unwrap_or(&ZERO).payload;
        ks.seal(i, cell)
    }));
    payloads > PAYLOAD_MASK
}

/// Decrypts one block's ciphertext cells in place; `nonce == u64::MAX`
/// (never written) decrypts to dummies.
fn decrypt_cells(key: u64, addr: usize, nonce: u64, cells: &mut [Cell]) {
    if nonce == u64::MAX {
        cells.fill(None);
        return;
    }
    let ks = Keystream::new(key, addr, nonce);
    for (i, cell) in cells.iter_mut().enumerate() {
        *cell = ks.open(i, cell);
    }
}

/// The refusal of block `addr`, whose plaintext `cells` [`seal_into`]
/// found to hold an over-wide payload: it names the first one.
fn too_wide(addr: usize, cells: &[Cell]) -> StoreError {
    let payload = cells
        .iter()
        .flatten()
        .map(|e| e.payload)
        .find(|&p| p > PAYLOAD_MASK)
        .expect("seal_into found an over-wide payload");
    StoreError::PayloadTooWide { addr, payload }
}

/// An encrypted view over an [`ExtMem`] arena.
///
/// Plaintext blocks are encrypted on write and decrypted on read; the
/// underlying arena only ever holds ciphertext words. The per-write nonce is
/// a monotone counter mixed into the keystream, so identical plaintexts
/// encrypt to different ciphertexts on every write (the semantic-security
/// property the paper requires).
#[derive(Debug)]
pub struct EncryptedStore<S: BackingStore = ExtMem> {
    mem: S,
    key: u64,
    write_counter: u64,
    /// Nonce of the latest write for each global block; `u64::MAX` means the
    /// block was never written and decrypts to the all-dummy block.
    nonces: Vec<u64>,
    /// Reusable ciphertext scratch of span writes (see module docs).
    ct: Vec<Cell>,
}

impl EncryptedStore {
    /// Creates an encrypted store over a fresh in-memory [`ExtMem`] arena
    /// with the given secret key.
    pub fn new(block_elems: usize, key: u64) -> Self {
        Self::with_backing(ExtMem::new(block_elems), key)
    }
}

impl<S: BackingStore> EncryptedStore<S> {
    /// Wraps an arbitrary backend — in-memory [`ExtMem`] or the on-disk
    /// [`FileStore`](crate::file::FileStore) — with the re-encrypting
    /// masking layer. The backend must be empty (nothing allocated yet):
    /// ciphertext written through this layer is only decryptable through it.
    /// Panics on a non-empty backend; see
    /// [`try_with_backing`](Self::try_with_backing) for the fallible form.
    pub fn with_backing(mem: S, key: u64) -> Self {
        Self::try_with_backing(mem, key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::with_backing`]: wrapping a backend that already has
    /// blocks allocated is refused with a typed
    /// [`StoreError::InvalidArgument`] instead of a panic (the ciphertext
    /// this layer writes is only decryptable through it, so adopting
    /// pre-existing foreign blocks could never round-trip).
    pub fn try_with_backing(mem: S, key: u64) -> Result<Self, StoreError> {
        if mem.allocated_blocks() != 0 {
            return Err(StoreError::InvalidArgument {
                reason: "EncryptedStore must own its backend from the start",
            });
        }
        Ok(EncryptedStore {
            mem,
            key,
            write_counter: 0,
            nonces: Vec::new(),
            ct: Vec::new(),
        })
    }

    /// The wrapped backend.
    pub fn backing(&self) -> &S {
        &self.mem
    }

    /// Enables trace capture on the underlying backend.
    pub fn enable_trace(&mut self) {
        BackingStore::enable_trace(&mut self.mem);
    }

    /// Returns and clears the captured access trace.
    pub fn take_trace(&mut self) -> Option<crate::mem::AccessTrace> {
        BackingStore::take_trace(&mut self.mem)
    }

    /// Cumulative I/O statistics of the underlying backend.
    pub fn stats(&self) -> IoStats {
        self.mem.io_stats()
    }

    /// Block size `B`.
    pub fn block_elems(&self) -> usize {
        BlockStore::block_elems(&self.mem)
    }

    /// The latest-write nonce of global block `addr` (`u64::MAX` = never
    /// written).
    fn nonce_of(&self, addr: usize) -> u64 {
        self.nonces.get(addr).copied().unwrap_or(u64::MAX)
    }

    fn ensure_nonces(&mut self) {
        let top = BackingStore::allocated_blocks(&self.mem);
        if self.nonces.len() < top {
            self.nonces.resize(top, u64::MAX);
        }
    }

    /// Allocates an array of `len_elements` slots (initially all dummies).
    pub fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let h = BlockStore::alloc_array(&mut self.mem, len_elements);
        self.ensure_nonces();
        h
    }

    /// Allocates an array and encrypts the given cells into it. The initial
    /// population is not charged as I/Os, mirroring
    /// [`ExtMem::alloc_array_from_cells`].
    ///
    /// Returns the first failed block write: a payload wider than 63 bits
    /// as [`StoreError::PayloadTooWide`], or a backing-store error.
    pub fn alloc_array_from_cells(&mut self, cells: &[Cell]) -> Result<ArrayHandle, StoreError> {
        let h = self.alloc_array(cells.len().max(1));
        let b = self.block_elems();
        for (i, chunk) in cells.chunks(b).enumerate() {
            let mut blk = Block::empty(b);
            for (j, c) in chunk.iter().enumerate() {
                blk.set(j, *c);
            }
            self.try_store_block(&h, i, blk)?;
        }
        BackingStore::reset_stats(&mut self.mem);
        Ok(h)
    }

    /// The raw ciphertext currently stored for local block `i` (free of
    /// charge; used by tests to demonstrate ciphertext freshness).
    pub fn raw_ciphertext(&self, h: &ArrayHandle, i: usize) -> Block {
        let cells = BackingStore::snapshot_cells(&self.mem, h);
        let b = self.block_elems();
        let start = i * b;
        Block::from_cells(&cells[start..(start + b).min(cells.len())])
    }

    /// Non-oblivious convenience used by tests and oracles: decrypts the
    /// whole array into a flat vector of plaintext cells **without** charging
    /// I/Os or touching the trace. Never use this inside an algorithm under
    /// test.
    pub fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        let mut cells = BackingStore::snapshot_cells(&self.mem, h);
        for (i, ct) in cells.chunks_mut(self.block_elems()).enumerate() {
            let addr = h.global_block(i);
            decrypt_cells(self.key, addr, self.nonce_of(addr), ct);
        }
        cells
    }
}

impl<S: BackingStore> BlockStore for EncryptedStore<S> {
    fn block_elems(&self) -> usize {
        EncryptedStore::block_elems(self)
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        EncryptedStore::alloc_array(self, len_elements)
    }

    fn io_stats(&self) -> IoStats {
        self.stats()
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.mem.hint_blocks(h, blocks);
    }

    fn recycle(&mut self, blk: Block) {
        self.mem.recycle(blk);
    }

    /// Refuses a payload wider than 63 bits, naming the first one, as a
    /// write of `cells` would.
    fn check_write(&self, h: &ArrayHandle, i: usize, cells: &[Cell]) -> Result<(), StoreError> {
        let addr = h.checked_block(i)?;
        if cells.iter().flatten().any(|e| e.payload > PAYLOAD_MASK) {
            Err(too_wide(addr, cells))
        } else {
            Ok(())
        }
    }

    /// Reads and decrypts local block `i` of array `h` (one I/O).
    /// Backing-store failures (disk errors, injected faults) propagate as
    /// typed [`StoreError`]s.
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        let mut blk = self.mem.try_load_block(h, i)?;
        decrypt_cells(self.key, addr, self.nonce_of(addr), blk.slots_mut());
        Ok(blk)
    }

    /// Encrypts and writes local block `i` of array `h` (one I/O) under a
    /// fresh nonce, so rewriting identical plaintext produces a different
    /// ciphertext. Over-wide payloads are refused with a typed
    /// [`StoreError::PayloadTooWide`] before any I/O; backing-store failures
    /// propagate unchanged. The nonce table and write counter advance only
    /// after the backing store acknowledges the write, so a failed (and
    /// later retried) write never leaves the nonce map pointing at a
    /// ciphertext that was never persisted.
    fn try_store_block(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        mut blk: Block,
    ) -> Result<(), StoreError> {
        let addr = h.checked_write(i, &blk)?;
        self.ensure_nonces();
        let nonce = self.write_counter + 1;
        self.ct.clear();
        if seal_into(
            Keystream::new(self.key, addr, nonce),
            blk.slots(),
            &mut self.ct,
        ) {
            return Err(too_wide(addr, blk.slots()));
        }
        blk.slots_mut().copy_from_slice(&self.ct);
        self.mem.try_store_block(h, i, blk)?;
        self.write_counter = nonce;
        self.nonces[addr] = nonce;
        Ok(())
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        load_span_with(self, h, elem_lo, elem_hi, EncryptedStore::load_whole)
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        store_span_with(self, h, elem_lo, cells, EncryptedStore::store_whole)
    }
}

impl<S: BackingStore> EncryptedStore<S> {
    /// Reads whole blocks `blocks` of `h` as one span of the backend and
    /// decrypts them block after block.
    fn load_whole(
        &mut self,
        h: &ArrayHandle,
        blocks: Range<usize>,
    ) -> Result<Vec<Cell>, StoreError> {
        let b = h.block_elems();
        let mut cells = self
            .mem
            .try_load_span(h, blocks.start * b, blocks.end * b)?;
        for (bi, ct) in blocks.zip(cells.chunks_mut(b)) {
            let addr = h.global_block(bi);
            decrypt_cells(self.key, addr, self.nonce_of(addr), ct);
        }
        Ok(cells)
    }

    /// Encrypts the whole blocks starting at local block `first` of `h`
    /// under consecutive nonces, straight from `cells` into the ciphertext
    /// scratch, and writes them as one span of the backend.
    /// As on the per-block path, a block with an over-wide payload is
    /// refused with [`StoreError::PayloadTooWide`] after the blocks before
    /// it are written: sealing stops at that block, found by the width check
    /// fused into the seal. A nonce is committed only for a block the
    /// backend counted as written (its I/O counters tell how far a failed
    /// span got), so a torn span leaves every other nonce as it was.
    fn store_whole(
        &mut self,
        h: &ArrayHandle,
        first: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let b = h.block_elems();
        self.ensure_nonces();
        let base = self.write_counter;
        self.ct.clear();
        let mut wide = None;
        for (k, blk) in cells.chunks(b).enumerate() {
            let ks = Keystream::new(self.key, h.global_block(first + k), base + 1 + k as u64);
            if seal_into(ks, blk, &mut self.ct) {
                self.ct.truncate(k * b);
                wide = Some(too_wide(h.global_block(first + k), blk));
                break;
            }
        }
        let n = self.ct.len() / b;
        if n > 0 {
            let before = self.mem.io_stats().writes;
            let res = self.mem.try_store_span(h, first * b, &self.ct);
            let landed = ((self.mem.io_stats().writes - before) as usize).min(n);
            for k in 0..landed {
                self.nonces[h.global_block(first + k)] = base + 1 + k as u64;
            }
            self.write_counter = base + landed as u64;
            res?;
        }
        wide.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileStore;

    fn e(k: u64) -> Element {
        Element::new(k, k * 10)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut store = EncryptedStore::new(4, 0xDEAD_BEEF);
        let h = store.alloc_array(8);
        let mut blk = Block::empty(4);
        blk.set(0, Some(e(1)));
        blk.set(2, Some(e(2)));
        store.try_store_block(&h, 0, blk.clone()).unwrap();
        let back = store.try_load_block(&h, 0).unwrap();
        assert_eq!(back, blk);
    }

    #[test]
    fn unwritten_blocks_decrypt_to_dummies() {
        let mut store = EncryptedStore::new(4, 7);
        let h = store.alloc_array(8);
        let blk = store.try_load_block(&h, 1).unwrap();
        assert!(blk.is_all_dummy());
    }

    #[test]
    fn rewriting_same_plaintext_changes_ciphertext() {
        let mut store = EncryptedStore::new(4, 42);
        let h = store.alloc_array(4);
        let mut blk = Block::empty(4);
        blk.set(1, Some(e(5)));
        store.try_store_block(&h, 0, blk.clone()).unwrap();
        let ct1 = store.raw_ciphertext(&h, 0);
        store.try_store_block(&h, 0, blk.clone()).unwrap();
        let ct2 = store.raw_ciphertext(&h, 0);
        assert_ne!(ct1, ct2, "re-encryption must produce a fresh ciphertext");
        assert_eq!(store.try_load_block(&h, 0).unwrap(), blk);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut store = EncryptedStore::new(2, 9);
        let h = store.alloc_array(2);
        let mut blk = Block::empty(2);
        blk.set(0, Some(e(1)));
        store.try_store_block(&h, 0, blk).unwrap();
        let ct = store.raw_ciphertext(&h, 0);
        assert_ne!(ct.get(0), Some(e(1)));
    }

    #[test]
    fn dummy_and_occupied_slots_are_indistinguishable_in_ciphertext() {
        // Every ciphertext slot is Some(..) regardless of plaintext occupancy,
        // so the server cannot count occupied slots.
        let mut store = EncryptedStore::new(4, 11);
        let h = store.alloc_array(4);
        let mut blk = Block::empty(4);
        blk.set(0, Some(e(1)));
        store.try_store_block(&h, 0, blk).unwrap();
        let ct = store.raw_ciphertext(&h, 0);
        assert!(ct.slots().iter().all(|s| s.is_some()));
    }

    #[test]
    fn io_is_charged_per_block() {
        let mut store = EncryptedStore::new(4, 1);
        let h = store.alloc_array(8);
        let blk = Block::empty(4);
        store.try_store_block(&h, 0, blk).unwrap();
        let _ = store.try_load_block(&h, 0).unwrap();
        assert_eq!(store.stats().reads, 1);
        assert_eq!(store.stats().writes, 1);
    }

    #[test]
    fn populated_construction_is_free_and_roundtrips() {
        let mut store = EncryptedStore::new(4, 3);
        let cells: Vec<Cell> = (0..10).map(|i| Some(e(i))).collect();
        let h = store.alloc_array_from_cells(&cells).unwrap();
        assert_eq!(store.stats().total(), 0);
        let mut out = Vec::new();
        for i in 0..h.n_blocks() {
            out.extend(store.try_load_block(&h, i).unwrap().occupied());
        }
        assert_eq!(out, (0..10).map(e).collect::<Vec<_>>());
    }

    #[test]
    fn block_store_trait_roundtrips_through_encryption() {
        let mut store = EncryptedStore::new(4, 0xFACE);
        let h = BlockStore::alloc_array(&mut store, 10);
        let cells: Vec<Cell> = (0..10).map(|i| Some(e(i))).collect();
        store.store_span(&h, 0, &cells);
        assert_eq!(store.load_span(&h, 0, 10), cells);
        // The free snapshot decrypts to the same plaintext.
        assert_eq!(store.snapshot_cells(&h), cells);
        // ...and the underlying arena holds only ciphertext.
        assert_ne!(store.raw_ciphertext(&h, 0).get(0), cells[0]);
    }

    #[test]
    #[should_panic(expected = "63-bit limit")]
    fn oversized_payload_is_rejected() {
        let mut store = EncryptedStore::new(2, 1);
        let h = store.alloc_array(2);
        let mut blk = Block::empty(2);
        blk.set(0, Some(Element::new(1, u64::MAX)));
        store.store_block(&h, 0, blk);
    }

    #[test]
    fn oversized_payload_is_a_typed_error_on_the_fallible_path() {
        let mut store = EncryptedStore::new(2, 1);
        let h = store.alloc_array(4);
        let mut blk = Block::empty(2);
        blk.set(0, Some(Element::new(1, u64::MAX)));
        let err = store.try_store_block(&h, 1, blk).unwrap_err();
        assert_eq!(
            err,
            StoreError::PayloadTooWide {
                addr: h.global_block(1),
                payload: u64::MAX
            }
        );
        // Nothing was written and no I/O was charged for the rejected call.
        assert_eq!(store.stats().writes, 0);
        // Valid payloads still go through the fallible path.
        let mut ok = Block::empty(2);
        ok.set(0, Some(Element::new(1, (1 << 63) - 1)));
        store.try_store_block(&h, 1, ok.clone()).unwrap();
        assert_eq!(store.try_load_block(&h, 1).unwrap(), ok);
    }

    #[test]
    fn populating_with_an_oversized_payload_is_a_typed_error() {
        let mut store = EncryptedStore::new(4, 1);
        let mut cells: Vec<Cell> = (0..8).map(|i| Some(e(i))).collect();
        cells[5] = Some(Element::new(1, 1 << 63));
        let err = store.alloc_array_from_cells(&cells).unwrap_err();
        assert!(
            matches!(err, StoreError::PayloadTooWide { payload, .. } if payload == 1 << 63),
            "{err:?}"
        );
    }

    // --- the fused kernel and the span path ---

    use crate::element::kernel_blocks;
    use crate::util::hash64;

    /// Scalar reference keystream word for `(addr, nonce, slot, lane)` — the
    /// oracle the fused kernel is tested against, and the exact function the
    /// original per-word path computed.
    #[inline]
    fn keystream_word(key: u64, addr: usize, nonce: u64, slot: usize, lane: u64) -> u64 {
        hash64(
            (addr as u64) ^ (slot as u64).rotate_left(20) ^ lane.rotate_left(40),
            key ^ nonce.wrapping_mul(GOLDEN),
        )
    }

    #[test]
    fn batched_keystream_is_bit_identical_to_the_scalar_oracle() {
        // Encrypting an all-dummy block XORs zero words, so its ciphertext
        // is the raw keystream: key word = lane 0, payload word = lane 1.
        // Every block size from 1 through several multiples of 8, across
        // addresses, nonces and keys including the extremes.
        for b in [1usize, 2, 3, 7, 8, 9, 16, 17, 64] {
            for &addr in &[0usize, 1, 5, 1 << 20, usize::MAX >> 1] {
                for &nonce in &[0u64, 1, 2, 0xFFFF_FFFF, u64::MAX - 1] {
                    for &key in &[0u64, 0xA11CE, u64::MAX] {
                        let mut ct = Vec::new();
                        let ks = Keystream::new(key, addr, nonce);
                        assert!(!seal_into(ks, &vec![None; b], &mut ct));
                        for (slot, word) in ct.iter().enumerate() {
                            let word = word.expect("ciphertext slots are never empty");
                            assert_eq!(
                                word.key,
                                keystream_word(key, addr, nonce, slot, 0),
                                "lane0 b={b} addr={addr} nonce={nonce} slot={slot}"
                            );
                            assert_eq!(
                                word.payload,
                                keystream_word(key, addr, nonce, slot, 1),
                                "lane1 b={b} addr={addr} nonce={nonce} slot={slot}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ciphertext_equals_the_keystream_oracle_on_both_write_paths() {
        // Random, packed, all-dummy and all-occupied blocks, written once
        // block by block and once as one span: block k gets nonce k + 1 on
        // either path, and every ciphertext word is the plaintext word XOR
        // the scalar keystream word.
        let key = 0x5EA1;
        for b in [1usize, 3, 8, 64] {
            let blocks = kernel_blocks(b);
            let cells = blocks.concat();
            let mut one = EncryptedStore::new(b, key);
            let h1 = one.alloc_array(cells.len());
            for (k, blk) in blocks.iter().enumerate() {
                one.try_store_block(&h1, k, Block::from_cells(blk)).unwrap();
            }
            let mut run = EncryptedStore::new(b, key);
            let h2 = run.alloc_array(cells.len());
            run.try_store_span(&h2, 0, &cells).unwrap();
            for (store, h) in [(&one, h1), (&run, h2)] {
                for (k, blk) in blocks.iter().enumerate() {
                    let addr = h.global_block(k);
                    let nonce = store.nonce_of(addr);
                    assert_eq!(nonce, k as u64 + 1);
                    let ct = store.raw_ciphertext(&h, k);
                    for (slot, (ct, pt)) in ct.slots().iter().zip(blk).enumerate() {
                        let ct = ct.expect("ciphertext slots are never empty");
                        let (w0, w1) = pt.map_or((0, 0), |e| (e.key, OCC_BIT | e.payload));
                        let at = format!("b={b} block={k} slot={slot}");
                        assert_eq!(
                            ct.key,
                            w0 ^ keystream_word(key, addr, nonce, slot, 0),
                            "{at}"
                        );
                        assert_eq!(
                            ct.payload,
                            w1 ^ keystream_word(key, addr, nonce, slot, 1),
                            "{at}"
                        );
                    }
                }
                assert_eq!(store.snapshot_cells(&h), cells);
            }
        }
    }

    #[test]
    fn an_over_wide_payload_fails_a_span_exactly_as_block_writes_fail() {
        // An over-wide payload at the first, middle and last slot of the
        // first, middle and last block of a five-block span, with another
        // one after it: the span must return the block path's error, after
        // writing the same blocks under the same nonces.
        let (b, n) = (4usize, 5usize);
        let valid: Vec<Cell> = (0..(n * b) as u64).map(|i| Some(e(i))).collect();
        for at_block in [0, n / 2, n - 1] {
            for at_slot in [0, b / 2, b - 1] {
                let mut cells: Vec<Cell> =
                    (100..100 + (n * b) as u64).map(|i| Some(e(i))).collect();
                let wide = (1 << 63) | (at_block * b + at_slot) as u64;
                cells[n * b - 1] = Some(Element::new(9, u64::MAX));
                cells[at_block * b + at_slot] = Some(Element::new(9, wide));
                let fresh = || {
                    let mut store = EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 7);
                    let h = BlockStore::alloc_array(&mut store, n * b);
                    store.try_store_span(&h, 0, &valid).unwrap();
                    (store, h)
                };
                let (mut one, h1) = fresh();
                let one_err = cells
                    .chunks(b)
                    .enumerate()
                    .find_map(|(k, c)| one.try_store_block(&h1, k, Block::from_cells(c)).err());
                let (mut run, h2) = fresh();
                let run_err = run.try_store_span(&h2, 0, &cells).err();
                let at = format!("block {at_block} slot {at_slot}");
                assert_eq!(
                    one_err,
                    Some(StoreError::PayloadTooWide {
                        addr: h1.global_block(at_block),
                        payload: wide
                    }),
                    "{at}"
                );
                assert_eq!(run_err, one_err, "{at}");
                assert_eq!(run.stats(), one.stats(), "{at}: the same blocks written");
                assert_eq!(run.nonces, one.nonces, "{at}: the same nonces");
                assert_eq!(run.write_counter, one.write_counter, "{at}");
                for k in 0..n {
                    assert_eq!(
                        run.raw_ciphertext(&h2, k),
                        one.raw_ciphertext(&h1, k),
                        "{at}"
                    );
                }
                let mut want = cells[..at_block * b].to_vec();
                want.extend_from_slice(&valid[at_block * b..]);
                assert_eq!(run.snapshot_cells(&h2), want, "{at}");
            }
        }
    }

    #[test]
    fn store_run_produces_byte_identical_ciphertext_to_block_writes() {
        // Same key, same plaintexts, same nonce sequence: the span path must
        // leave the exact bytes on the backend that N block writes would.
        assert_run_matches_block_writes(4, 64);
    }

    #[test]
    fn long_runs_take_the_parallel_encrypt_path_and_stay_identical() {
        // A run longer than a full 64-block write-behind flush, of odd
        // length. Runs this long once took a separate scoped-thread encrypt
        // path; every run is now encrypted serially, and must still match.
        assert_run_matches_block_writes(8, 71);
    }

    /// Writes `n_blocks` blocks of `b` cells once block by block and once as
    /// one span, under the same key, and asserts the backend holds the same
    /// ciphertext for every block.
    fn assert_run_matches_block_writes(b: usize, n_blocks: usize) {
        let cells: Vec<Cell> = (0..(n_blocks * b) as u64).map(|i| Some(e(i))).collect();

        let mut one = EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 0x50F7);
        let h1 = BlockStore::alloc_array(&mut one, cells.len());
        for (i, chunk) in cells.chunks(b).enumerate() {
            one.try_store_block(&h1, i, Block::from_cells(chunk))
                .unwrap();
        }

        let mut run = EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 0x50F7);
        let h2 = BlockStore::alloc_array(&mut run, cells.len());
        run.try_store_span(&h2, 0, &cells).unwrap();
        assert_eq!(run.stats(), one.stats(), "one write I/O per block");

        for i in 0..n_blocks {
            assert_eq!(
                one.raw_ciphertext(&h1, i),
                run.raw_ciphertext(&h2, i),
                "{n_blocks}-block run: ciphertext of block {i} diverged between the span and \
                 block paths"
            );
        }
        assert_eq!(run.snapshot_cells(&h2), cells);
    }

    #[test]
    fn store_run_rejects_oversized_payloads_before_writing_anything() {
        // An over-wide payload in the first block of a span: refused before
        // any I/O, as the per-block path refuses that block's write.
        let mut store = EncryptedStore::with_backing(FileStore::temp(2).unwrap(), 1);
        let h = BlockStore::alloc_array(&mut store, 8);
        let mut cells = vec![None; 4];
        cells[1] = Some(Element::new(1, u64::MAX));
        let err = store.try_store_span(&h, 0, &cells).unwrap_err();
        assert_eq!(
            err,
            StoreError::PayloadTooWide {
                addr: h.global_block(0),
                payload: u64::MAX
            }
        );
        assert_eq!(store.stats().writes, 0, "the span was refused up front");
        // Nonces untouched: every block still decrypts as never-written.
        assert!(store.try_load_block(&h, 0).unwrap().is_all_dummy());
    }

    #[test]
    fn reader_decrypts_what_the_foreground_wrote() {
        // The span read (the path prefetch steals take) decrypts exactly
        // what block writes wrote, one read I/O per block.
        let mut store = EncryptedStore::with_backing(FileStore::temp(4).unwrap(), 0xD0_0D);
        let cells: Vec<Cell> = (0..32).map(|i| Some(e(i))).collect();
        let h = store.alloc_array_from_cells(&cells).unwrap();
        let mut by_block = Vec::new();
        for i in 0..h.n_blocks() {
            by_block.extend_from_slice(store.try_load_block(&h, i).unwrap().slots());
        }
        assert_eq!(by_block, cells);
        assert_eq!(store.try_load_span(&h, 0, 32).unwrap(), cells);
        assert_eq!(store.try_load_span(&h, 3, 29).unwrap(), cells[3..29]);
        assert_eq!(store.stats().reads, 8 + 8 + 8);
    }

    #[test]
    fn reader_sees_unwritten_blocks_as_dummies() {
        let mut store = EncryptedStore::with_backing(FileStore::temp(4).unwrap(), 3);
        let h = store.alloc_array(16);
        assert!(store
            .try_load_span(&h, 0, 16)
            .unwrap()
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn try_with_backing_refuses_a_non_empty_backend_with_a_typed_error() {
        let mut fs = FileStore::temp(4).unwrap();
        let _ = BlockStore::alloc_array(&mut fs, 8);
        let err = EncryptedStore::try_with_backing(fs, 1).unwrap_err();
        assert_eq!(
            err,
            StoreError::InvalidArgument {
                reason: "EncryptedStore must own its backend from the start"
            }
        );
    }

    #[test]
    #[should_panic(expected = "must own its backend")]
    fn with_backing_still_panics_on_a_non_empty_backend() {
        let mut fs = FileStore::temp(4).unwrap();
        let _ = BlockStore::alloc_array(&mut fs, 8);
        let _ = EncryptedStore::with_backing(fs, 1);
    }
}

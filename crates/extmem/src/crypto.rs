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
//! # The batched keystream kernel
//!
//! The scalar reference path derives each keystream word independently as
//! `hash64(addr ⊕ rot(slot) ⊕ rot(lane), key ⊕ nonce·φ)` — two `splitmix64`
//! applications per word, four per cell. `fill_keystream` produces the
//! identical words for a whole block at once: the inner `splitmix64(salt)`
//! depends only on `(key, nonce)`, so it is hoisted out of the loop, and the
//! remaining per-word finalizer runs over 8-wide unrolled lanes so the
//! compiler can keep eight independent mixing chains in flight. The kernel
//! is **bit-identical to the scalar path by construction** (same ops per
//! word, only hoisted and reordered across independent words); the property
//! battery asserts equality word for word.
//!
//! **Scratch-buffer lifetime.** The kernel writes into a caller-owned
//! `Vec<u64>` that is resized (never shrunk) to `2B` words. The store and
//! every [`EncryptedReader`] own exactly one such scratch each, reused
//! across calls, so steady-state en/decryption performs no allocation. The
//! scratch holds *keystream*, not plaintext, and is overwritten in full by
//! the next call — nothing needs zeroizing between blocks.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::block::Block;
use crate::element::{Cell, Element};
use crate::error::StoreError;
use crate::mem::{ArrayHandle, ExtMem, IoStats};
use crate::prefetch::{PrefetchRead, Prefetchable};
use crate::store::{BackingStore, BlockStore};
use crate::util::{hash64, splitmix64};

const PAYLOAD_MASK: u64 = (1 << 63) - 1;
const OCC_BIT: u64 = 1 << 63;

/// The golden-ratio multiplier mixed into the per-write nonce (the same
/// constant `splitmix64` increments by).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lane-1 (payload word) tweak: `1u64.rotate_left(40)` of the scalar path.
const LANE1: u64 = 1u64 << 40;

/// Unroll width of the batched keystream kernel.
const KS_LANES: usize = 8;

/// Scalar reference keystream word for `(addr, nonce, slot, lane)` — the
/// oracle the batched kernel is tested against, and the exact function the
/// original per-word path computed.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
fn keystream_word(key: u64, addr: usize, nonce: u64, slot: usize, lane: u64) -> u64 {
    hash64(
        (addr as u64) ^ (slot as u64).rotate_left(20) ^ lane.rotate_left(40),
        key ^ nonce.wrapping_mul(GOLDEN),
    )
}

/// Fills `out` with the `2·b` keystream words of block `addr` under `nonce`:
/// `out[2i]` masks the key word of slot `i`, `out[2i+1]` the payload word.
/// Bit-identical to [`keystream_word`] per word; see the module docs for the
/// hoisting/unrolling argument and the scratch-buffer lifetime rules.
fn fill_keystream(key: u64, addr: usize, nonce: u64, b: usize, out: &mut Vec<u64>) {
    out.resize(2 * b, 0);
    // hash64(x, salt) = splitmix64(x ^ splitmix64(salt)): the inner
    // application depends only on (key, nonce) — hoist it.
    let salt_mix = splitmix64(key ^ nonce.wrapping_mul(GOLDEN));
    let base = (addr as u64) ^ salt_mix;
    let mut i = 0;
    while i + KS_LANES <= b {
        let mut x0 = [0u64; KS_LANES];
        let mut x1 = [0u64; KS_LANES];
        for l in 0..KS_LANES {
            let x = base ^ ((i + l) as u64).rotate_left(20);
            x0[l] = x;
            x1[l] = x ^ LANE1;
        }
        for x in &mut x0 {
            *x = splitmix64(*x);
        }
        for x in &mut x1 {
            *x = splitmix64(*x);
        }
        for l in 0..KS_LANES {
            out[2 * (i + l)] = x0[l];
            out[2 * (i + l) + 1] = x1[l];
        }
        i += KS_LANES;
    }
    while i < b {
        let x = base ^ (i as u64).rotate_left(20);
        out[2 * i] = splitmix64(x);
        out[2 * i + 1] = splitmix64(x ^ LANE1);
        i += 1;
    }
}

/// Encrypts `blk` into a fresh ciphertext block using the batched kernel.
/// Panics on payloads wider than 63 bits (every write path rejects them
/// with a typed error before reaching this point).
fn encrypt_block_with(key: u64, addr: usize, nonce: u64, blk: &Block, ks: &mut Vec<u64>) -> Block {
    fill_keystream(key, addr, nonce, blk.len(), ks);
    let mut out = Block::empty(blk.len());
    for (i, cell) in blk.slots().iter().enumerate() {
        let (w0, w1) = match cell {
            Some(e) => {
                assert!(
                    e.payload <= PAYLOAD_MASK,
                    "EncryptedStore payloads are limited to 63 bits \
                     (got {:#x} > PAYLOAD_MASK = 2^63 - 1)",
                    e.payload
                );
                (e.key, OCC_BIT | e.payload)
            }
            None => (0, 0),
        };
        out.set(i, Some(Element::new(w0 ^ ks[2 * i], w1 ^ ks[2 * i + 1])));
    }
    out
}

/// Decrypts a ciphertext block using the batched kernel. A missing
/// ciphertext slot decrypts as zero words; the occupancy bit then reads as
/// a dummy.
fn decrypt_block_with(key: u64, addr: usize, nonce: u64, blk: &Block, ks: &mut Vec<u64>) -> Block {
    fill_keystream(key, addr, nonce, blk.len(), ks);
    let mut out = Block::empty(blk.len());
    for i in 0..blk.len() {
        let (c0, c1) = match blk.get(i) {
            Some(ct) => (ct.key, ct.payload),
            None => (0, 0),
        };
        let w0 = c0 ^ ks[2 * i];
        let w1 = c1 ^ ks[2 * i + 1];
        if w1 & OCC_BIT != 0 {
            out.set(i, Some(Element::new(w0, w1 & PAYLOAD_MASK)));
        } else {
            out.set(i, None);
        }
    }
    out
}

/// Locks the shared nonce table for reading, recovering from poison (no
/// writer mutates it non-atomically, so a panicked holder leaves it valid).
fn read_nonces(nonces: &RwLock<Vec<u64>>) -> RwLockReadGuard<'_, Vec<u64>> {
    nonces.read().unwrap_or_else(|p| p.into_inner())
}

fn write_nonces(nonces: &RwLock<Vec<u64>>) -> RwLockWriteGuard<'_, Vec<u64>> {
    nonces.write().unwrap_or_else(|p| p.into_inner())
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
    /// block was never written and decrypts to the all-dummy block. Shared
    /// (read-only) with every [`EncryptedReader`] this store hands out.
    nonces: Arc<RwLock<Vec<u64>>>,
    /// Reusable keystream scratch of the batched kernel (see module docs).
    ks: Vec<u64>,
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
            nonces: Arc::new(RwLock::new(Vec::new())),
            ks: Vec::new(),
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
        read_nonces(&self.nonces)
            .get(addr)
            .copied()
            .unwrap_or(u64::MAX)
    }

    fn ensure_nonces(&mut self) {
        let top = BackingStore::allocated_blocks(&self.mem);
        let mut nonces = write_nonces(&self.nonces);
        while nonces.len() < top {
            nonces.push(u64::MAX);
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
    /// # Panics
    /// Panics where a block write fails: on a payload wider than 63 bits or
    /// a backing-store error.
    pub fn alloc_array_from_cells(&mut self, cells: &[Cell]) -> ArrayHandle {
        let h = self.alloc_array(cells.len().max(1));
        let b = self.block_elems();
        for (i, chunk) in cells.chunks(b).enumerate() {
            let mut blk = Block::empty(b);
            for (j, c) in chunk.iter().enumerate() {
                blk.set(j, *c);
            }
            self.try_store_block(&h, i, blk)
                .unwrap_or_else(|e| panic!("EncryptedStore: {e}"));
        }
        BackingStore::reset_stats(&mut self.mem);
        h
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
        let b = self.block_elems();
        let mut ks = Vec::new();
        let mut out = Vec::with_capacity(h.len());
        for i in 0..h.n_blocks() {
            let addr = h.global_block(i);
            let nonce = self.nonce_of(addr);
            let blk = if nonce == u64::MAX {
                Block::empty(b)
            } else {
                decrypt_block_with(self.key, addr, nonce, &self.raw_ciphertext(h, i), &mut ks)
            };
            for j in 0..b {
                if out.len() < h.len() {
                    out.push(blk.get(j));
                }
            }
        }
        out
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

    /// Reads and decrypts local block `i` of array `h` (one I/O).
    /// Backing-store failures (disk errors, injected faults) propagate as
    /// typed [`StoreError`]s.
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        let ct = self.mem.try_load_block(h, i)?;
        let nonce = self.nonce_of(addr);
        Ok(if nonce == u64::MAX {
            self.mem.recycle(ct);
            Block::empty(self.block_elems())
        } else {
            let pt = decrypt_block_with(self.key, addr, nonce, &ct, &mut self.ks);
            self.mem.recycle(ct);
            pt
        })
    }

    /// Encrypts and writes local block `i` of array `h` (one I/O) under a
    /// fresh nonce, so rewriting identical plaintext produces a different
    /// ciphertext. Over-wide payloads are refused with a typed
    /// [`StoreError::PayloadTooWide`] before any I/O; backing-store failures
    /// propagate unchanged. The nonce table and write counter advance only
    /// after the backing store acknowledges the write, so a failed (and
    /// later retried) write never leaves the nonce map pointing at a
    /// ciphertext that was never persisted.
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_block(i)?;
        if let Some(e) = blk
            .slots()
            .iter()
            .flatten()
            .find(|e| e.payload > PAYLOAD_MASK)
        {
            return Err(StoreError::PayloadTooWide {
                addr,
                payload: e.payload,
            });
        }
        self.ensure_nonces();
        let nonce = self.write_counter + 1;
        let ct = encrypt_block_with(self.key, addr, nonce, &blk, &mut self.ks);
        self.mem.try_store_block(h, i, ct)?;
        self.write_counter = nonce;
        write_nonces(&self.nonces)[addr] = nonce;
        self.mem.recycle(blk);
        Ok(())
    }
}

/// Reader over an encrypted store: fetches ciphertext through the backend's
/// own reader and decrypts it under the store's nonce table, shared
/// read-only. It serves the prefetch adapter's span steals, which run on
/// the caller's thread between foreground writes, so every nonce it reads
/// is the one the block was last written under.
#[derive(Debug)]
pub struct EncryptedReader<R: PrefetchRead> {
    inner: R,
    key: u64,
    block_elems: usize,
    nonces: Arc<RwLock<Vec<u64>>>,
    ks: Vec<u64>,
}

impl<R: PrefetchRead> EncryptedReader<R> {
    fn decrypt(&mut self, addr: usize, nonce: u64, ct: Block) -> Block {
        if nonce == u64::MAX {
            Block::empty(self.block_elems)
        } else {
            decrypt_block_with(self.key, addr, nonce, &ct, &mut self.ks)
        }
    }
}

impl<R: PrefetchRead> PrefetchRead for EncryptedReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let ct = self.inner.fetch(addr)?;
        let nonce = read_nonces(&self.nonces)
            .get(addr)
            .copied()
            .unwrap_or(u64::MAX);
        Ok(self.decrypt(addr, nonce, ct))
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        let cts = self.inner.fetch_run(start, count);
        // One lock round-trip covers the whole run's nonces.
        let nonces: Vec<u64> = {
            let g = read_nonces(&self.nonces);
            (start..start + count)
                .map(|a| g.get(a).copied().unwrap_or(u64::MAX))
                .collect()
        };
        cts.into_iter()
            .zip(nonces)
            .enumerate()
            .map(|(k, (res, nonce))| res.map(|ct| self.decrypt(start + k, nonce, ct)))
            .collect()
    }
}

impl<S: BackingStore + Prefetchable> Prefetchable for EncryptedStore<S> {
    type Reader = EncryptedReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        EncryptedReader {
            inner: self.mem.reader(),
            key: self.key,
            block_elems: self.block_elems(),
            nonces: Arc::clone(&self.nonces),
            ks: Vec::new(),
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.mem.supports_store_runs()
    }

    /// Encrypts the whole run with the batched kernel, then hands the
    /// backend one span write. Nonces are assigned monotonically per block
    /// exactly as `block_at_a_time` writes would, so the ciphertext is
    /// bit-identical to theirs (each block's ciphertext is a pure function
    /// of `(key, addr, nonce, plaintext)`), and committed only after the
    /// backend acknowledges the span, so a cleanly failed span leaves every
    /// nonce at its pre-call value. (A *partially torn* span is
    /// indistinguishable from any other torn server write: stale-nonce
    /// ciphertext that decrypts to garbage, caught by the authentication
    /// layer, exactly like a torn block-at-a-time write sequence.)
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        for (k, blk) in blks.iter().enumerate() {
            if let Some(e) = blk
                .slots()
                .iter()
                .flatten()
                .find(|e| e.payload > PAYLOAD_MASK)
            {
                return Err(StoreError::PayloadTooWide {
                    addr: start + k,
                    payload: e.payload,
                });
            }
        }
        self.ensure_nonces();
        let base = self.write_counter;
        let n = blks.len();
        let cts: Vec<Block> = blks
            .iter()
            .enumerate()
            .map(|(k, blk)| {
                encrypt_block_with(self.key, start + k, base + 1 + k as u64, blk, &mut self.ks)
            })
            .collect();
        for blk in blks {
            self.mem.recycle(blk);
        }
        self.mem.store_run(start, cts)?;
        self.write_counter = base + n as u64;
        let mut nonces = write_nonces(&self.nonces);
        for k in 0..n {
            nonces[start + k] = base + 1 + k as u64;
        }
        Ok(())
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
        let h = store.alloc_array_from_cells(&cells);
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

    // --- the batched kernel and the span path ---

    #[test]
    fn batched_keystream_is_bit_identical_to_the_scalar_oracle() {
        // Every block size from 1 (all tail) through several unroll widths,
        // across addresses and nonces including the extremes.
        let mut ks = Vec::new();
        for b in [1usize, 2, 3, 7, 8, 9, 16, 17, 64] {
            for &addr in &[0usize, 1, 5, 1 << 20, usize::MAX >> 1] {
                for &nonce in &[0u64, 1, 2, 0xFFFF_FFFF, u64::MAX - 1] {
                    for &key in &[0u64, 0xA11CE, u64::MAX] {
                        fill_keystream(key, addr, nonce, b, &mut ks);
                        for slot in 0..b {
                            assert_eq!(
                                ks[2 * slot],
                                keystream_word(key, addr, nonce, slot, 0),
                                "lane0 b={b} addr={addr} nonce={nonce} slot={slot}"
                            );
                            assert_eq!(
                                ks[2 * slot + 1],
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
    /// one `store_run`, under the same key, and asserts the backend holds the
    /// same ciphertext for every block.
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
        let blks: Vec<Block> = cells.chunks(b).map(Block::from_cells).collect();
        run.store_run(h2.global_block(0), blks).unwrap();

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
        let mut store = EncryptedStore::with_backing(FileStore::temp(2).unwrap(), 1);
        let h = BlockStore::alloc_array(&mut store, 8);
        let mut bad = Block::empty(2);
        bad.set(0, Some(Element::new(1, u64::MAX)));
        let err = store
            .store_run(h.global_block(0), vec![Block::empty(2), bad])
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::PayloadTooWide {
                addr: h.global_block(1),
                payload: u64::MAX
            }
        );
        assert_eq!(store.stats().writes, 0, "the run was refused up front");
        // Nonces untouched: every block still decrypts as never-written.
        assert!(store.try_load_block(&h, 0).unwrap().is_all_dummy());
    }

    #[test]
    fn reader_decrypts_what_the_foreground_wrote() {
        let mut store = EncryptedStore::with_backing(FileStore::temp(4).unwrap(), 0xD0_0D);
        let cells: Vec<Cell> = (0..32).map(|i| Some(e(i))).collect();
        let h = store.alloc_array_from_cells(&cells);
        let mut reader = store.reader();
        // Single fetch and span fetch agree with the foreground view.
        for i in 0..h.n_blocks() {
            let addr = h.global_block(i);
            assert_eq!(
                reader.fetch(addr).unwrap(),
                store.try_load_block(&h, i).unwrap()
            );
        }
        let run: Vec<Block> = reader
            .fetch_run(h.global_block(0), h.n_blocks())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (i, blk) in run.iter().enumerate() {
            assert_eq!(*blk, store.try_load_block(&h, i).unwrap());
        }
    }

    #[test]
    fn reader_sees_unwritten_blocks_as_dummies() {
        let mut store = EncryptedStore::with_backing(FileStore::temp(4).unwrap(), 3);
        let h = store.alloc_array(16);
        let mut reader = store.reader();
        for res in reader.fetch_run(h.global_block(0), h.n_blocks()) {
            assert!(res.unwrap().is_all_dummy());
        }
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

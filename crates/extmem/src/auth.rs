//! Authenticated, freshness-checked storage: tampering becomes a typed
//! error, never wrong data.
//!
//! [`AuthenticatedStore`] wraps any [`BlockStore`]. The client keeps the root
//! of trust, which the server never touches: a **table** with one
//! `(version, tag)` entry per data block, the latest version written and the
//! keyed MAC of that write over block image ‖ block address ‖ version. It is
//! charged against a [`CacheBudget`] at two words per block; an array whose
//! table the budget refuses is recorded as refused, and every op on it
//! returns that [`StoreError::BudgetExceeded`]. Every read is checked
//! against the table:
//!
//! * the served block carries the tag of the latest write → it is returned;
//! * it is an *older* write of the client's (a rollback, a replay, a dropped
//!   write) → [`StoreError::Stale`];
//! * anything else (bit flips, fabricated data) → [`StoreError::Corrupted`].
//!
//! Because the MAC key and the table never leave the client, a server cannot
//! forge a block that verifies, and cannot replay an old one without the
//! mismatch showing — *tampering surfaces as `Err(Corrupted | Stale)`,
//! never as silently wrong data*.
//!
//! **The server MAC array is a checkpoint.** Every data array gets a
//! parallel server-side MAC array, one `(tag, version)` cell per data block.
//! Honest reads and writes never touch it. [`AuthenticatedStore::flush_macs`]
//! writes each MAC block whose entries changed since the last flush, built
//! from the client table. The array is read in one case only, after a block
//! fails its check: a served block that verifies under the checkpoint's
//! older `(tag, version)` is classified `Stale`, anything else `Corrupted`.
//! The checkpoint needs no authentication of its own: a tampered one can
//! only turn a `Stale` into a `Corrupted`.
//!
//! **Obliviousness.** Between flushes the trace below this layer is the data
//! trace, address for address. A flush writes the dirty MAC blocks in
//! address order, and that set is a function of the write sequence alone.
//! The one classification read happens only after the server has already
//! deviated.
//!
//! **The span path.** [`BlockStore::try_store_span`] writes the blocks a
//! span covers whole as one span of the wrapped store, then MACs and
//! commits the entry of each block that landed, block by block, with one
//! lookup of the array's MAC checkpoint per span;
//! [`BlockStore::try_load_span`] reads them as one span and verifies them
//! block by block against the table. Both use the one MAC function of the
//! single-block path. A block that fails its check fails the span with the
//! error its single-block read would return (the blocks after it have
//! already been read).
//!
//! The MAC is a toy keyed `splitmix64` construction, deliberately matching
//! the toy cipher in [`crypto`](crate::crypto) — see `DESIGN.md` for the
//! substitution table mapping it to a real HMAC. Slot `i` of a block feeds
//! chain `i mod 4` of four independent chains, so each block's MAC is
//! bound by mixing throughput rather than one chain's latency, whatever
//! the span length.

use std::collections::HashMap;
use std::ops::Range;

use crate::block::Block;
use crate::budget::CacheBudget;
use crate::element::{Cell, Element, ZERO};
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::store::{load_span_with, store_span_with, BlockStore};
use crate::util::splitmix64;

/// Independent absorption chains of the MAC: slot `i` feeds chain
/// `i mod MAC_CHAINS`.
const MAC_CHAINS: usize = 4;

/// Tweak of the keyed word an occupied slot adds to what it absorbs.
const OCC_TWEAK: u64 = 0x4F43_4355_5049_4544; // "OCCUPIED"

/// Keyed MAC over a block image bound to its global address and version.
/// A toy stand-in for HMAC (see `DESIGN.md`): [`MAC_CHAINS`] `splitmix64`
/// chains start from a keyed hash of address and version, slot `i` feeds
/// chain `i mod MAC_CHAINS` its key plus `i`, a keyed hash of its payload
/// and, when occupied, a keyed occupancy word, and a final keyed mix joins
/// the chains. Each cell is read branch-free, an empty one as the zero
/// element. Consecutive slots feed independent chains, so the mixing
/// overlaps at any span length.
fn mac_block(key: u64, addr: usize, version: u64, blk: &[Cell]) -> u64 {
    let salt = splitmix64(key);
    let occ_word = splitmix64(key ^ OCC_TWEAK);
    let head = splitmix64((addr as u64) ^ version.rotate_left(32) ^ salt);
    let mut acc: [u64; MAC_CHAINS] = std::array::from_fn(|j| head ^ (j as u64).rotate_left(60));
    for (i, cell) in blk.iter().enumerate() {
        let e = cell.as_ref().unwrap_or(&ZERO);
        let occ = (cell.is_some() as u64).wrapping_neg() & occ_word;
        let word = e.key.wrapping_add(i as u64) ^ splitmix64(key ^ e.payload) ^ occ;
        acc[i % MAC_CHAINS] = splitmix64(acc[i % MAC_CHAINS] ^ word);
    }
    acc.iter().fold(salt, |h, &a| splitmix64(h ^ a))
}

/// The typed refusal of a handle this store did not allocate.
const FOREIGN_ARRAY: StoreError = StoreError::InvalidArgument {
    reason: "array was not allocated through this AuthenticatedStore",
};

/// What the client holds per data block: the latest version written
/// (0: never written) and the MAC tag of that write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry {
    version: u64,
    tag: u64,
}

impl Entry {
    /// The entry a server MAC cell records (an empty cell: never flushed).
    fn from_cell(cell: Cell) -> Self {
        cell.map_or(Entry::default(), |e| Entry {
            version: e.payload,
            tag: e.key,
        })
    }

    /// Whether `blk` is the block this entry describes, given its MAC under
    /// the entry's version (only computed for a written block).
    fn matches(self, blk: &[Cell], mac: impl FnOnce() -> u64) -> bool {
        if self.version == 0 {
            blk.iter().all(Option::is_none)
        } else {
            mac() == self.tag
        }
    }
}

/// Classifies a served block at `addr` that failed its check against the
/// client entry `want`, given the server checkpoint's cell for it: `Stale`
/// when the block is an older write of the client's, `Corrupted` otherwise.
fn classify(key: u64, addr: usize, want: Entry, checkpoint: Cell, blk: &[Cell]) -> StoreError {
    let old = Entry::from_cell(checkpoint);
    if old.version < want.version && old.matches(blk, || mac_block(key, addr, old.version, blk)) {
        StoreError::Stale {
            addr,
            expected: want.version,
            got: old.version,
        }
    } else {
        StoreError::Corrupted { addr }
    }
}

/// A data array's server-side MAC checkpoint: one cell per data block, and
/// which of its blocks changed since the last flush.
#[derive(Clone, Debug)]
struct MacArray {
    handle: ArrayHandle,
    dirty: Vec<bool>,
}

/// The client-side root of trust of an [`AuthenticatedStore`], as an opaque
/// checkpointable value: the MAC key, the per-block `(version, tag)` table,
/// and the data-array → MAC-array map. The MAC arrays themselves live
/// server-side, so persisting this state across a client crash is exactly
/// what makes torn server state detectable on restart. See
/// [`AuthenticatedStore::client_state`] / [`AuthenticatedStore::resume`].
#[derive(Clone, Debug)]
pub struct AuthClientState {
    key: u64,
    /// Entry of every data block, by global address.
    table: Vec<Entry>,
    /// Data-array start address → its MAC array.
    mac_arrays: HashMap<usize, MacArray>,
}

/// Per-block MAC + client-side `(version, tag)` table over any
/// [`BlockStore`]. See the module docs for the threat model and detection
/// guarantees.
///
/// Client-side state is charged to a [`CacheBudget`] **in 64-bit words**:
/// two words per data block.
#[derive(Debug)]
pub struct AuthenticatedStore<S: BlockStore> {
    inner: S,
    client: AuthClientState,
    /// I/Os spent on the MAC arrays.
    mac_io: IoStats,
    budget: CacheBudget,
    /// Data-array start address → the budget's refusal of its table.
    refused: HashMap<usize, StoreError>,
}

impl<S: BlockStore> AuthenticatedStore<S> {
    /// Wraps `inner` with MAC key `key` and an effectively unbounded budget.
    pub fn new(inner: S, key: u64) -> Self {
        Self::with_budget(inner, key, usize::MAX >> 1)
    }

    /// Wraps `inner` with a client-memory budget (in 64-bit words).
    pub fn with_budget(inner: S, key: u64, budget_words: usize) -> Self {
        AuthenticatedStore {
            inner,
            client: AuthClientState {
                key,
                table: Vec::new(),
                mac_arrays: HashMap::new(),
            },
            mac_io: IoStats::default(),
            budget: CacheBudget::new(budget_words),
            refused: HashMap::new(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Snapshots the client-side root of trust — MAC key, `(version, tag)`
    /// table and the data-array → MAC-array map — as an opaque, durable
    /// value. This is the state a real client would checkpoint to its own
    /// trusted storage: with it, a crashed-and-restarted client can
    /// [`AuthenticatedStore::resume`] over a reopened server file and still
    /// detect every torn, rolled-back or corrupted block. Flush first
    /// ([`AuthenticatedStore::flush_macs`]) so the server checkpoint can
    /// still tell a rollback from corruption.
    pub fn client_state(&self) -> AuthClientState {
        self.client.clone()
    }

    /// Reconstructs an authenticated view over a reopened server store from
    /// a checkpointed [`AuthClientState`] (the crash-recovery path). Array
    /// handles from before the crash remain valid, since handles address
    /// blocks the same way across backends and restarts.
    pub fn resume(inner: S, state: AuthClientState) -> Self {
        let mut auth = Self::new(inner, state.key);
        // Re-charge the table against the fresh budget, exactly as the
        // original alloc_array calls did.
        let blocks: usize = state.mac_arrays.values().map(|m| m.handle.len()).sum();
        auth.budget
            .try_acquire(2 * blocks)
            .expect("the unbounded budget of `new` holds any table");
        auth.client = state;
        auth
    }

    /// Mutable access to the wrapped store (e.g. to reconfigure a
    /// [`FaultyStore`](crate::fault::FaultyStore) below).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The budget charging the client table (words).
    pub fn budget(&self) -> &CacheBudget {
        &self.budget
    }

    /// I/Os spent on the MAC arrays (a subset of the inner store's totals):
    /// checkpoint writes by [`AuthenticatedStore::flush_macs`] and the
    /// classification reads that follow a failed check. Zero between
    /// flushes against an honest server.
    pub fn mac_io(&self) -> IoStats {
        self.mac_io
    }

    /// Writes every MAC block whose entries changed since the last flush, in
    /// address order, each built from the client table (the flush reads
    /// nothing). Afterwards the server checkpoint matches the table. A
    /// failed write leaves its block and the ones after it dirty, so a
    /// retry finishes the flush.
    pub fn flush_macs(&mut self) -> Result<(), StoreError> {
        let b = self.inner.block_elems();
        let client = &mut self.client;
        let mut starts: Vec<usize> = client.mac_arrays.keys().copied().collect();
        starts.sort_by_key(|s| client.mac_arrays[s].handle.global_block(0));
        for start in starts {
            let mac = client.mac_arrays.get_mut(&start).expect("listed above");
            for bi in 0..mac.dirty.len() {
                if !mac.dirty[bi] {
                    continue;
                }
                let mut blk = Block::empty(b);
                for s in 0..b.min(mac.handle.len() - bi * b) {
                    let e = client.table[start + bi * b + s];
                    if e.version > 0 {
                        blk.set(s, Some(Element::new(e.tag, e.version)));
                    }
                }
                self.inner.try_store_block(&mac.handle, bi, blk)?;
                self.mac_io.writes += 1;
                mac.dirty[bi] = false;
            }
        }
        Ok(())
    }

    /// The MAC array of data array `h`, or the typed refusal of an array
    /// whose table the budget refused or that this store did not allocate.
    fn mac_array(&self, h: &ArrayHandle) -> Result<&MacArray, StoreError> {
        let start = h.global_block(0);
        match self.client.mac_arrays.get(&start) {
            Some(mac) if mac.handle.len() == h.n_blocks() => Ok(mac),
            _ => Err(self.refused.get(&start).copied().unwrap_or(FOREIGN_ARRAY)),
        }
    }

    /// Records landed writes of the local blocks `blocks` of `h`: each
    /// block's version advances by one and its tag becomes
    /// `tag(block, version)`, and the MAC blocks holding those entries are
    /// marked for the next flush. The MAC array is looked up once.
    fn commit(&mut self, h: &ArrayHandle, blocks: Range<usize>, tag: impl Fn(usize, u64) -> u64) {
        let AuthClientState {
            table, mac_arrays, ..
        } = &mut self.client;
        let mut mac = mac_arrays.get_mut(&h.global_block(0));
        for bi in blocks {
            let addr = h.global_block(bi);
            let version = table[addr].version + 1;
            table[addr] = Entry {
                version,
                tag: tag(bi, version),
            };
            if let Some(mac) = &mut mac {
                mac.dirty[bi / mac.handle.block_elems()] = true;
            }
        }
    }

    /// Checks local block `i` of `h`, served as `blk`, against the client
    /// table; a block that fails is rejected.
    fn check(&mut self, h: &ArrayHandle, i: usize, blk: &[Cell]) -> Result<(), StoreError> {
        let addr = h.global_block(i);
        let want = self.client.table[addr];
        if want.matches(blk, || mac_block(self.client.key, addr, want.version, blk)) {
            Ok(())
        } else {
            Err(self.reject(h, i, want, blk))
        }
    }

    /// The error for block `i` of `h`, served as `blk`, that failed its
    /// check against `want`: reads the block's checkpoint cell to classify
    /// it.
    fn reject(&mut self, h: &ArrayHandle, i: usize, want: Entry, blk: &[Cell]) -> StoreError {
        let mh = match self.mac_array(h) {
            Ok(mac) => mac.handle,
            Err(e) => return e,
        };
        let b = mh.block_elems();
        let checkpoint = match self.inner.try_load_block(&mh, i / b) {
            Ok(mac_blk) => mac_blk.get(i % b),
            Err(e) => return e,
        };
        self.mac_io.reads += 1;
        classify(self.client.key, h.global_block(i), want, checkpoint, blk)
    }

    /// Reads whole blocks `blocks` of `h` as one span of the wrapped store
    /// and checks them block by block; the first block that fails is
    /// rejected as on the single-block path.
    fn load_whole(
        &mut self,
        h: &ArrayHandle,
        blocks: Range<usize>,
    ) -> Result<Vec<Cell>, StoreError> {
        self.mac_array(h)?;
        let b = h.block_elems();
        let cells = self
            .inner
            .try_load_span(h, blocks.start * b, blocks.end * b)?;
        for (bi, blk) in blocks.zip(cells.chunks(b)) {
            self.check(h, bi, blk)?;
        }
        Ok(cells)
    }

    /// Writes the whole blocks starting at local block `first` of `h` as one
    /// span of the wrapped store, then MACs and commits the entry of every
    /// block the wrapped store counted as written (its I/O counters tell
    /// how far a failed span got) — the discipline of the single-block
    /// path, where an entry changes only after its data landed.
    fn store_whole(
        &mut self,
        h: &ArrayHandle,
        first: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        self.mac_array(h)?;
        let b = h.block_elems();
        let before = self.inner.io_stats().writes;
        let res = self.inner.try_store_span(h, first * b, cells);
        let landed = ((self.inner.io_stats().writes - before) as usize).min(cells.len() / b);
        let key = self.client.key;
        self.commit(h, first..first + landed, |bi, version| {
            let k = bi - first;
            mac_block(key, h.global_block(bi), version, &cells[k * b..(k + 1) * b])
        });
        res
    }
}

impl<S: BlockStore> BlockStore for AuthenticatedStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let h = self.inner.alloc_array(len_elements);
        // One (version, tag) entry per data block, client-side forever.
        if let Err(e) = self.budget.try_acquire(2 * h.n_blocks()) {
            self.refused.insert(h.global_block(0), e);
            return h;
        }
        let handle = self.inner.alloc_array(h.n_blocks());
        let client = &mut self.client;
        let top = h.global_block(h.n_blocks() - 1) + 1;
        if top > client.table.len() {
            client.table.resize(top, Entry::default());
        }
        let dirty = vec![false; handle.n_blocks()];
        client
            .mac_arrays
            .insert(h.global_block(0), MacArray { handle, dirty });
        h
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.inner.hint_blocks(h, blocks);
    }

    fn recycle(&mut self, blk: Block) {
        self.inner.recycle(blk);
    }

    fn check_write(&self, h: &ArrayHandle, i: usize, cells: &[Cell]) -> Result<(), StoreError> {
        self.inner.check_write(h, i, cells)
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        h.checked_block(i)?;
        self.mac_array(h)?;
        let blk = self.inner.try_load_block(h, i)?;
        self.check(h, i, blk.slots())?;
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_write(i, &blk)?;
        self.mac_array(h)?;
        // The entry is committed only after the data write succeeds, so a
        // transiently failed attempt can be retried verbatim.
        let version = self.client.table[addr].version + 1;
        let tag = mac_block(self.client.key, addr, version, blk.slots());
        self.inner.try_store_block(h, i, blk)?;
        self.commit(h, i..i + 1, |_, _| tag);
        Ok(())
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        load_span_with(self, h, elem_lo, elem_hi, AuthenticatedStore::load_whole)
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        store_span_with(self, h, elem_lo, cells, AuthenticatedStore::store_whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::EncryptedStore;
    use crate::element::kernel_blocks;
    use crate::fault::{FaultSpec, FaultyStore};
    use crate::file::FileStore;
    use crate::mem::ExtMem;

    const FULL: u32 = 1_000_000;

    fn elems(n: u64) -> Vec<Cell> {
        (0..n).map(|k| Some(Element::new(k * 3 + 1, k))).collect()
    }

    fn auth_over_faulty(b: usize) -> AuthenticatedStore<FaultyStore<EncryptedStore>> {
        let enc = EncryptedStore::new(b, 0xA11CE);
        let faulty = FaultyStore::new(enc, 0x5EED, FaultSpec::none());
        AuthenticatedStore::new(faulty, 0x4D4143)
    }

    #[test]
    fn honest_roundtrip_verifies_and_returns_the_data() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 16);
        auth.try_store_span(&h, 0, &elems(16)).unwrap();
        assert_eq!(auth.try_load_span(&h, 0, 16).unwrap(), elems(16));
        // A checkpoint flush changes nothing the client reads.
        auth.flush_macs().unwrap();
        assert_eq!(auth.try_load_span(&h, 0, 16).unwrap(), elems(16));
    }

    #[test]
    fn never_written_blocks_verify_as_dummies() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 8);
        assert!(auth.try_load_block(&h, 1).unwrap().is_all_dummy());
    }

    #[test]
    fn corrupted_read_is_detected_never_served() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 8);
        auth.try_store_span(&h, 0, &elems(8)).unwrap();
        auth.flush_macs().unwrap();
        auth.inner_mut().set_spec(FaultSpec {
            corrupt_read_ppm: FULL,
            ..FaultSpec::none()
        });
        let err = auth.try_load_block(&h, 0).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupted { .. }),
            "got {err:?} instead of Corrupted"
        );
    }

    #[test]
    fn consistent_rollback_is_detected_as_stale() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 4);
        // Two versions of block 0, with MAC state flushed after each so the
        // server's history holds a *consistent* (data, MAC) pair per version.
        auth.try_store_span(&h, 0, &elems(4)).unwrap();
        auth.flush_macs().unwrap();
        let v2: Vec<Cell> = (0..4).map(|k| Some(Element::new(100 + k, k))).collect();
        auth.try_store_span(&h, 0, &v2).unwrap();
        auth.flush_macs().unwrap();
        // The adversary now replays the previous version of everything.
        auth.inner_mut().set_spec(FaultSpec {
            stale_read_ppm: FULL,
            ..FaultSpec::none()
        });
        let err = auth.try_load_block(&h, 0).unwrap_err();
        assert_eq!(
            err,
            StoreError::Stale {
                addr: h.global_block(0),
                expected: 2,
                got: 1
            },
            "a consistent rollback must be classified as Stale"
        );
    }

    #[test]
    fn dropped_write_is_detected_on_the_next_read() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 4);
        // Every write dropped: the data write is lost, and so is the MAC
        // flush — the server has nothing the client's table expects.
        auth.inner_mut().set_spec(FaultSpec {
            drop_write_ppm: FULL,
            ..FaultSpec::none()
        });
        auth.try_store_span(&h, 0, &elems(4)).unwrap();
        auth.flush_macs().unwrap();
        auth.inner_mut().set_spec(FaultSpec::none());
        let err = auth.try_load_block(&h, 0).unwrap_err();
        assert!(
            err.is_tampering(),
            "a lost write must surface as tampering, got {err:?}"
        );
    }

    #[test]
    fn tampering_with_the_mac_array_is_also_detected() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 4);
        auth.try_store_span(&h, 0, &elems(4)).unwrap();
        auth.flush_macs().unwrap();
        // Corrupt every read — including the classifying MAC-block read.
        // Whatever the adversary hits, verification must fail, not mis-serve.
        auth.inner_mut().set_spec(FaultSpec {
            corrupt_read_ppm: FULL,
            ..FaultSpec::none()
        });
        for _ in 0..4 {
            let err = auth.try_load_block(&h, 0).unwrap_err();
            assert!(err.is_tampering(), "got {err:?}");
        }
    }

    #[test]
    fn transient_inner_faults_pass_through_untouched() {
        let mut auth = auth_over_faulty(4);
        let h = BlockStore::alloc_array(&mut auth, 4);
        auth.try_store_span(&h, 0, &elems(4)).unwrap();
        auth.inner_mut().set_spec(FaultSpec {
            transient_read_ppm: FULL,
            ..FaultSpec::none()
        });
        let err = auth.try_load_block(&h, 0).unwrap_err();
        assert!(err.is_transient(), "got {err:?}");
        auth.inner_mut().set_spec(FaultSpec::none());
        assert_eq!(auth.try_load_span(&h, 0, 4).unwrap(), elems(4));
    }

    #[test]
    fn budget_charges_two_words_per_block_and_nothing_per_io() {
        let enc = EncryptedStore::new(4, 1);
        let mut auth = AuthenticatedStore::with_budget(enc, 2, 16);
        let h = BlockStore::alloc_array(&mut auth, 32); // 8 data blocks
        assert_eq!(
            auth.budget().in_use(),
            16,
            "a (version, tag) pair per block"
        );
        auth.try_store_span(&h, 0, &elems(32)).unwrap();
        auth.flush_macs().unwrap();
        assert_eq!(auth.try_load_span(&h, 0, 32).unwrap(), elems(32));
        assert_eq!(
            auth.budget().high_water(),
            16,
            "reads, writes and flushes hold no cache"
        );
        let resumed = AuthenticatedStore::resume(EncryptedStore::new(4, 1), auth.client_state());
        assert_eq!(
            resumed.budget().in_use(),
            16,
            "resume charges the same table"
        );
    }

    #[test]
    fn a_table_past_the_budget_is_refused_at_allocation() {
        let enc = EncryptedStore::new(4, 1);
        // 8 data blocks need 16 words of table.
        let mut auth = AuthenticatedStore::with_budget(enc, 2, 15);
        let h = BlockStore::alloc_array(&mut auth, 32);
        let refused = StoreError::BudgetExceeded {
            requested: 16,
            in_use: 0,
            capacity: 15,
        };
        assert_eq!(auth.budget().in_use(), 0, "a refused table holds nothing");
        // Every op on the array returns the refusal, before any I/O.
        assert_eq!(auth.try_load_block(&h, 0).unwrap_err(), refused);
        assert_eq!(
            auth.try_store_block(&h, 1, Block::empty(4)).unwrap_err(),
            refused
        );
        assert_eq!(auth.try_load_span(&h, 0, 32).unwrap_err(), refused);
        assert_eq!(auth.try_store_span(&h, 0, &elems(32)).unwrap_err(), refused);
        assert_eq!(auth.io_stats().total(), 0);
        // A table that fits is still granted.
        let small = BlockStore::alloc_array(&mut auth, 28);
        assert_eq!(auth.budget().in_use(), 14);
        auth.try_store_span(&small, 0, &elems(28)).unwrap();
        assert_eq!(auth.try_load_span(&small, 0, 28).unwrap(), elems(28));
    }

    #[test]
    fn mac_overhead_is_small_on_sequential_passes() {
        // Reads and writes check against the client table: the MAC array
        // costs nothing until a flush, which writes one block per B.
        let mut auth = auth_over_faulty(8);
        let h = BlockStore::alloc_array(&mut auth, 1024); // 128 data blocks
        let cells = elems(1024);
        auth.try_store_span(&h, 0, &cells).unwrap();
        let _ = auth.try_load_span(&h, 0, 1024).unwrap();
        assert_eq!(auth.io_stats().total(), 256, "no MAC I/O between flushes");
        auth.flush_macs().unwrap();
        assert_eq!(auth.mac_io().writes, 16, "one write per dirty MAC block");
        auth.flush_macs().unwrap();
        assert_eq!(
            auth.mac_io().total(),
            16,
            "a clean checkpoint writes nothing"
        );
    }

    #[test]
    fn plain_extmem_can_also_be_authenticated() {
        let mut auth = AuthenticatedStore::new(ExtMem::new(4), 9);
        let h = BlockStore::alloc_array(&mut auth, 8);
        auth.try_store_span(&h, 0, &elems(8)).unwrap();
        assert_eq!(auth.try_load_span(&h, 0, 8).unwrap(), elems(8));
    }

    #[test]
    fn foreign_handles_are_rejected() {
        // A handle this store did not allocate is refused with a typed
        // error by every data op, before any I/O or table change.
        let mut mem = ExtMem::new(4);
        let foreign = mem.alloc_array(8);
        let mut auth = AuthenticatedStore::new(mem, 9);
        let own = BlockStore::alloc_array(&mut auth, 8);
        let refused = StoreError::InvalidArgument {
            reason: "array was not allocated through this AuthenticatedStore",
        };
        assert_eq!(auth.try_load_block(&foreign, 0).unwrap_err(), refused);
        assert_eq!(
            auth.try_store_block(&foreign, 1, Block::empty(4))
                .unwrap_err(),
            refused
        );
        assert_eq!(auth.try_load_span(&foreign, 0, 8).unwrap_err(), refused);
        assert_eq!(
            auth.try_store_span(&foreign, 0, &elems(8)).unwrap_err(),
            refused
        );
        assert_eq!(auth.io_stats().total(), 0, "refused before any I/O");
        assert!(auth.client.table.iter().all(|e| e.version == 0));
        assert!(auth.try_load_span(&own, 0, 8).is_ok());
    }

    // --- the MAC kernel and the span path ---

    /// The MAC as its docs state it, written independently of the kernel:
    /// one chain per `slot mod 4`, each cell matched on its occupancy.
    fn reference_mac(key: u64, addr: usize, version: u64, blk: &[Cell]) -> u64 {
        let salt = splitmix64(key);
        let head = splitmix64(addr as u64 ^ version.rotate_left(32) ^ salt);
        let mut chains = vec![head, head ^ 1 << 60, head ^ 2 << 60, head ^ 3 << 60];
        for (slot, cell) in blk.iter().enumerate() {
            let word = match cell {
                Some(e) => {
                    e.key.wrapping_add(slot as u64)
                        ^ splitmix64(key ^ e.payload)
                        ^ splitmix64(key ^ OCC_TWEAK)
                }
                None => slot as u64 ^ splitmix64(key),
            };
            chains[slot % 4] = splitmix64(chains[slot % 4] ^ word);
        }
        chains.into_iter().fold(salt, |h, c| splitmix64(h ^ c))
    }

    #[test]
    fn mac_equals_the_reference_and_binds_every_input() {
        let key = 0x4D4143;
        for b in [1usize, 3, 4, 5, 8, 64] {
            for blk in kernel_blocks(b) {
                for (addr, version) in [(0usize, 1u64), (7, 2), (1 << 40, u64::MAX)] {
                    let tag = mac_block(key, addr, version, &blk);
                    assert_eq!(tag, reference_mac(key, addr, version, &blk), "b={b}");
                    assert_ne!(tag, mac_block(key, addr + 1, version, &blk), "address");
                    assert_ne!(tag, mac_block(key, addr, version ^ 1, &blk), "version");
                    assert_ne!(tag, mac_block(key ^ 1, addr, version, &blk), "key");
                    for s in 0..b {
                        // Every change to one cell: its key, its payload,
                        // its occupancy (an empty cell and a zero element
                        // differ), and moving it to another slot.
                        let e = blk[s].unwrap_or_default();
                        let mut edits = vec![
                            Some(Element::new(e.key ^ 1, e.payload)),
                            Some(Element::new(e.key, e.payload ^ 1 << 62)),
                            if blk[s].is_some() {
                                None
                            } else {
                                Some(Element::default())
                            },
                        ];
                        if b > 1 && blk[s] != blk[(s + 1) % b] {
                            edits.push(blk[(s + 1) % b]);
                        }
                        for edit in edits {
                            let mut changed = blk.clone();
                            changed[s] = edit;
                            assert_ne!(
                                tag,
                                mac_block(key, addr, version, &changed),
                                "b={b} slot={s} {:?} -> {edit:?}",
                                blk[s]
                            );
                        }
                        // Two cells of one chain trading slots.
                        if s + MAC_CHAINS < b && blk[s] != blk[s + MAC_CHAINS] {
                            let mut swapped = blk.clone();
                            swapped.swap(s, s + MAC_CHAINS);
                            assert_ne!(tag, mac_block(key, addr, version, &swapped), "swap {s}");
                        }
                    }
                }
            }
        }
    }

    fn auth_over_encrypted_file(b: usize) -> AuthenticatedStore<EncryptedStore<FileStore>> {
        AuthenticatedStore::new(
            EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 0xA11CE),
            0x4D4143,
        )
    }

    #[test]
    fn store_run_is_equivalent_to_block_at_a_time_writes() {
        // One span write MACs the blocks that landed after the write; it
        // must leave the same client table and verified contents as
        // block-at-a-time writes.
        let cells = elems(64);
        let b = 4;

        let mut one = auth_over_encrypted_file(b);
        let h1 = BlockStore::alloc_array(&mut one, cells.len());
        for (i, chunk) in cells.chunks(b).enumerate() {
            one.try_store_block(&h1, i, Block::from_cells(chunk))
                .unwrap();
        }

        let mut run = auth_over_encrypted_file(b);
        let h2 = BlockStore::alloc_array(&mut run, cells.len());
        run.try_store_span(&h2, 0, &cells).unwrap();

        // Same client table, same verified contents.
        assert_eq!(run.try_load_span(&h2, 0, 64).unwrap(), cells);
        assert_eq!(one.client_state().table, run.client_state().table);
    }

    #[test]
    fn reader_verifies_honest_spans_including_dirty_mac_entries() {
        // Span reads (the path prefetch steals take) verify against the
        // client table, so they need no MAC flush and no MAC I/O.
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 32);
        auth.try_store_span(&h, 0, &elems(32)).unwrap();
        // Deliberately NO flush_macs: the authentic entries live only in the
        // client table.
        assert_eq!(auth.try_load_span(&h, 0, 32).unwrap(), elems(32));
        for i in 0..h.n_blocks() {
            assert_eq!(
                auth.try_load_block(&h, i).unwrap().slots(),
                &elems(32)[i * 4..(i + 1) * 4]
            );
        }
        // Unwritten arrays verify as dummies.
        let h2 = BlockStore::alloc_array(&mut auth, 8);
        assert_eq!(auth.try_load_span(&h2, 0, 8).unwrap(), vec![None; 8]);
        assert_eq!(auth.mac_io().total(), 0);
    }

    #[test]
    fn reader_detects_tampering_behind_the_auth_layer() {
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 8);
        auth.try_store_span(&h, 0, &elems(8)).unwrap();
        auth.flush_macs().unwrap();
        // Rewrite block 0's data through the encryption layer directly,
        // bypassing authentication: the data changes, the MAC does not.
        let mut evil = Block::empty(4);
        evil.set(0, Some(Element::new(666, 0)));
        auth.inner_mut().try_store_block(&h, 0, evil).unwrap();
        let corrupted = StoreError::Corrupted {
            addr: h.global_block(0),
        };
        assert_eq!(auth.try_load_span(&h, 0, 8).unwrap_err(), corrupted);
        assert_eq!(auth.mac_io().reads, 1, "one classification read");
        // The rest of the array still verifies.
        assert_eq!(auth.try_load_span(&h, 4, 8).unwrap(), elems(8)[4..]);
    }

    #[test]
    fn reader_rejects_addresses_outside_every_array() {
        // A MAC array's blocks are not client data: a span over one is
        // refused before any I/O.
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 8);
        auth.try_store_span(&h, 0, &elems(8)).unwrap();
        let mac = auth.client.mac_arrays[&h.global_block(0)].handle;
        let before = auth.io_stats();
        assert!(matches!(
            auth.try_load_span(&mac, 0, mac.len()),
            Err(StoreError::InvalidArgument { .. })
        ));
        assert_eq!(auth.io_stats(), before);
    }
}

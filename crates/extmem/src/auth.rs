//! Authenticated, freshness-checked storage: tampering becomes a typed
//! error, never wrong data.
//!
//! [`AuthenticatedStore`] wraps any [`BlockStore`]. The client keeps the root
//! of trust, which the server never touches: a **table** with one
//! `(version, tag)` entry per data block, the latest version written and the
//! keyed MAC of that write over block image ‖ block address ‖ version. It is
//! charged against a [`CacheBudget`] at two words per block. Every read is
//! checked against the table:
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
//! **The span path.** [`Prefetchable::store_run`] MACs a whole run with the
//! batched kernel ([`mac_run`]: interleaved absorb chains, bit-identical to
//! the scalar path per block) before one span write of the data;
//! [`AuthenticatedReader`] verifies the spans the prefetch adapter steals
//! against the table it shares with the foreground. Steals run on the
//! caller's thread between foreground writes, so a span is verified against
//! the versions its blocks were last written under.
//!
//! The MAC is a toy keyed `splitmix64` chain, deliberately matching the toy
//! cipher in [`crypto`](crate::crypto) — see `DESIGN.md` for the
//! substitution table mapping it to a real HMAC.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::block::Block;
use crate::budget::CacheBudget;
use crate::element::{Cell, Element};
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::prefetch::{PrefetchRead, Prefetchable};
use crate::store::BlockStore;
use crate::util::hash64;

/// Interleave width of the batched MAC kernel.
const MAC_LANES: usize = 8;

/// Keyed MAC over a block image bound to its global address and version.
/// A toy stand-in for HMAC: a `splitmix64` chain absorbing occupancy, key
/// and payload of every slot (see `DESIGN.md`).
fn mac_block(key: u64, addr: usize, version: u64, blk: &Block) -> u64 {
    let mut acc = hash64((addr as u64) ^ version.rotate_left(32), key);
    for (i, cell) in blk.slots().iter().enumerate() {
        let (occ, k, p) = match cell {
            Some(e) => (1u64 << 63, e.key, e.payload),
            None => (0, 0, 0),
        };
        acc = hash64(acc ^ k.wrapping_add(i as u64), key ^ p ^ occ);
    }
    acc
}

/// Batched [`mac_block`] over many `(addr, version, block)` triples. Each
/// MAC chain is sequential by construction, but chains for different blocks
/// are independent, so the kernel runs [`MAC_LANES`] of them interleaved
/// (slot-major) to keep that many mixing chains in flight per core.
/// Bit-identical to the scalar path: every chain performs exactly the
/// operations [`mac_block`] performs for its block — the property battery
/// asserts equality MAC for MAC.
fn mac_run(key: u64, inputs: &[(usize, u64, &Block)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(inputs.len());
    let mut i = 0;
    while i + MAC_LANES <= inputs.len() {
        let chunk = &inputs[i..i + MAC_LANES];
        let mut acc = [0u64; MAC_LANES];
        for (l, (addr, ver, _)) in chunk.iter().enumerate() {
            acc[l] = hash64((*addr as u64) ^ ver.rotate_left(32), key);
        }
        let max_len = chunk.iter().map(|(_, _, b)| b.len()).max().unwrap_or(0);
        for s in 0..max_len {
            for (l, (_, _, blk)) in chunk.iter().enumerate() {
                if s >= blk.len() {
                    continue;
                }
                let (occ, k, p) = match blk.get(s) {
                    Some(e) => (1u64 << 63, e.key, e.payload),
                    None => (0, 0, 0),
                };
                acc[l] = hash64(acc[l] ^ k.wrapping_add(s as u64), key ^ p ^ occ);
            }
        }
        out.extend_from_slice(&acc);
        i += MAC_LANES;
    }
    for (addr, ver, blk) in &inputs[i..] {
        out.push(mac_block(key, *addr, *ver, blk));
    }
    out
}

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
    fn matches(self, blk: &Block, mac: impl FnOnce() -> u64) -> bool {
        if self.version == 0 {
            blk.is_all_dummy()
        } else {
            mac() == self.tag
        }
    }
}

/// Classifies a served block at `addr` that failed its check against the
/// client entry `want`, given the server checkpoint's cell for it: `Stale`
/// when the block is an older write of the client's, `Corrupted` otherwise.
fn classify(key: u64, addr: usize, want: Entry, checkpoint: Cell, blk: &Block) -> StoreError {
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

impl AuthClientState {
    /// The data array covering global address `addr`, as its start address
    /// and MAC array — the MAC array has one cell per data block, so its
    /// element count is the data array's block count.
    fn owner(&self, addr: usize) -> Option<(usize, &MacArray)> {
        self.mac_arrays
            .iter()
            .find(|(start, m)| addr >= **start && addr < **start + m.handle.len())
            .map(|(start, m)| (*start, m))
    }

    /// The entry of `addr` with the start of its array, or `None` for an
    /// address outside every array this client allocated — such a block can
    /// never verify.
    fn expected(&self, addr: usize) -> Option<(usize, Entry)> {
        let (start, _) = self.owner(addr)?;
        Some((start, self.table[addr]))
    }

    /// Records a write of block `addr` of the array starting at `start`.
    fn commit(&mut self, start: usize, addr: usize, entry: Entry) {
        self.table[addr] = entry;
        let mac = self
            .mac_arrays
            .get_mut(&start)
            .expect("array was not allocated through this AuthenticatedStore");
        let b = mac.handle.block_elems();
        mac.dirty[(addr - start) / b] = true;
    }
}

/// The verification state shared between the foreground store and its
/// readers: the client table and the count of MAC-array I/Os.
#[derive(Debug)]
struct AuthShared {
    client: AuthClientState,
    mac_io: IoStats,
}

/// Locks the shared verification state, recovering from poison: every
/// mutation under the lock leaves the state internally consistent, so a
/// panicked holder cannot strand it.
fn lock_shared(s: &Mutex<AuthShared>) -> MutexGuard<'_, AuthShared> {
    s.lock().unwrap_or_else(|p| p.into_inner())
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
    key: u64,
    shared: Arc<Mutex<AuthShared>>,
    budget: CacheBudget,
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
            key,
            shared: Arc::new(Mutex::new(AuthShared {
                client: AuthClientState {
                    key,
                    table: Vec::new(),
                    mac_arrays: HashMap::new(),
                },
                mac_io: IoStats::default(),
            })),
            budget: CacheBudget::new(budget_words),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the store, discarding the client state (call
    /// [`AuthenticatedStore::flush_macs`] first if the server checkpoint
    /// must be current).
    pub fn into_inner(self) -> S {
        self.inner
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
        lock_shared(&self.shared).client.clone()
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
        auth.budget.acquire(2 * blocks);
        lock_shared(&auth.shared).client = state;
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
    /// classification reads that follow a failed check, on the foreground
    /// and through an [`AuthenticatedReader`] alike. Zero between flushes
    /// against an honest server.
    pub fn mac_io(&self) -> IoStats {
        lock_shared(&self.shared).mac_io
    }

    /// Writes every MAC block whose entries changed since the last flush, in
    /// address order, each built from the client table (the flush reads
    /// nothing). Afterwards the server checkpoint matches the table. A
    /// failed write leaves its block and the ones after it dirty, so a
    /// retry finishes the flush.
    pub fn flush_macs(&mut self) -> Result<(), StoreError> {
        let b = self.inner.block_elems();
        let mut guard = lock_shared(&self.shared);
        let sh = &mut *guard;
        let mut starts: Vec<usize> = sh.client.mac_arrays.keys().copied().collect();
        starts.sort_by_key(|s| sh.client.mac_arrays[s].handle.global_block(0));
        for start in starts {
            let mac = sh.client.mac_arrays.get_mut(&start).expect("listed above");
            for bi in 0..mac.dirty.len() {
                if !mac.dirty[bi] {
                    continue;
                }
                let mut blk = Block::empty(b);
                for s in 0..b.min(mac.handle.len() - bi * b) {
                    let e = sh.client.table[start + bi * b + s];
                    if e.version > 0 {
                        blk.set(s, Some(Element::new(e.tag, e.version)));
                    }
                }
                self.inner.try_store_block(&mac.handle, bi, blk)?;
                sh.mac_io.writes += 1;
                mac.dirty[bi] = false;
            }
        }
        Ok(())
    }

    /// The MAC array of data array `h` and the client entry of its block `i`.
    fn lookup(&self, h: &ArrayHandle, i: usize) -> (ArrayHandle, Entry) {
        let sh = lock_shared(&self.shared);
        let mac = sh
            .client
            .mac_arrays
            .get(&h.global_block(0))
            .expect("array was not allocated through this AuthenticatedStore");
        (mac.handle, sh.client.table[h.global_block(i)])
    }
}

impl<S: BlockStore> BlockStore for AuthenticatedStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let h = self.inner.alloc_array(len_elements);
        let handle = self.inner.alloc_array(h.n_blocks());
        let client = &mut lock_shared(&self.shared).client;
        let top = h.global_block(h.n_blocks() - 1) + 1;
        if top > client.table.len() {
            client.table.resize(top, Entry::default());
        }
        // One (version, tag) entry per data block, client-side forever.
        self.budget.acquire(2 * h.n_blocks());
        let dirty = vec![false; handle.n_blocks()];
        client
            .mac_arrays
            .insert(h.global_block(0), MacArray { handle, dirty });
        h
    }

    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        self.try_load_block(h, i)
            .unwrap_or_else(|e| panic!("AuthenticatedStore: {e}"))
    }

    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        self.try_store_block(h, i, blk)
            .unwrap_or_else(|e| panic!("AuthenticatedStore: {e}"))
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

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let (mh, want) = self.lookup(h, i);
        let addr = h.global_block(i);
        let blk = self.inner.try_load_block(h, i)?;
        if want.matches(&blk, || mac_block(self.key, addr, want.version, &blk)) {
            return Ok(blk);
        }
        let b = self.inner.block_elems();
        let checkpoint = self.inner.try_load_block(&mh, i / b)?.get(i % b);
        lock_shared(&self.shared).mac_io.reads += 1;
        Err(classify(self.key, addr, want, checkpoint, &blk))
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.global_block(i);
        // The entry is committed only after the data write succeeds, so a
        // transiently failed attempt can be retried verbatim.
        let version = self.lookup(h, i).1.version + 1;
        let tag = mac_block(self.key, addr, version, &blk);
        self.inner.try_store_block(h, i, blk)?;
        lock_shared(&self.shared)
            .client
            .commit(h.global_block(0), addr, Entry { version, tag });
        Ok(())
    }
}

/// Reader over an authenticated store: fetches data through the wrapped
/// store's reader and verifies it against the client table it shares with
/// the foreground. Only a block that fails its check costs a MAC-array read
/// (through the reader's own inner reader), to classify the failure.
#[derive(Debug)]
pub struct AuthenticatedReader<R: PrefetchRead> {
    inner: R,
    key: u64,
    shared: Arc<Mutex<AuthShared>>,
}

impl<R: PrefetchRead> AuthenticatedReader<R> {
    /// The error for a fetched block at `addr` that failed its check; reads
    /// the block's checkpoint cell to classify it.
    fn reject(&mut self, addr: usize, want: Option<(usize, Entry)>, blk: &Block) -> StoreError {
        let Some((start, want)) = want else {
            return StoreError::Corrupted { addr };
        };
        let (mac_addr, slot) = {
            let sh = lock_shared(&self.shared);
            let mac = &sh.client.mac_arrays[&start].handle;
            let b = mac.block_elems();
            (mac.global_block((addr - start) / b), (addr - start) % b)
        };
        let checkpoint = match self.inner.fetch(mac_addr) {
            Ok(mac_blk) => mac_blk.get(slot),
            Err(e) => return e,
        };
        lock_shared(&self.shared).mac_io.reads += 1;
        classify(self.key, addr, want, checkpoint, blk)
    }
}

impl<R: PrefetchRead> PrefetchRead for AuthenticatedReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let blk = self.inner.fetch(addr)?;
        let want = lock_shared(&self.shared).client.expected(addr);
        match want {
            Some((_, e)) if e.matches(&blk, || mac_block(self.key, addr, e.version, &blk)) => {
                Ok(blk)
            }
            _ => Err(self.reject(addr, want, &blk)),
        }
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        let mut out = self.inner.fetch_run(start, count);
        let wants: Vec<Option<(usize, Entry)>> = {
            let sh = lock_shared(&self.shared);
            (start..start + count)
                .map(|a| sh.client.expected(a))
                .collect()
        };
        // One batched MAC pass over every fetched block that was written.
        let verified: Vec<bool> = {
            let mut inputs: Vec<(usize, u64, &Block)> = Vec::new();
            for (k, (res, want)) in out.iter().zip(&wants).enumerate() {
                if let (Ok(blk), Some((_, e))) = (res, want) {
                    if e.version > 0 {
                        inputs.push((start + k, e.version, blk));
                    }
                }
            }
            let mut macs = mac_run(self.key, &inputs).into_iter();
            out.iter()
                .zip(&wants)
                .map(|(res, want)| match (res, want) {
                    (Ok(blk), Some((_, e))) => {
                        e.matches(blk, || macs.next().expect("one MAC per written block"))
                    }
                    _ => false,
                })
                .collect()
        };
        for k in 0..count {
            if verified[k] {
                continue;
            }
            if let Ok(blk) = &out[k] {
                let err = self.reject(start + k, wants[k], blk);
                out[k] = Err(err);
            }
        }
        out
    }
}

impl<S: BlockStore + Prefetchable> Prefetchable for AuthenticatedStore<S> {
    type Reader = AuthenticatedReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        AuthenticatedReader {
            inner: self.inner.reader(),
            key: self.key,
            shared: Arc::clone(&self.shared),
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }

    /// MACs the whole run with the batched kernel, hands the data to the
    /// wrapped store as one span write, then commits the entries (same
    /// discipline as the single-block path: an entry changes only after its
    /// data landed).
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        let n = blks.len();
        if n == 0 {
            return Ok(());
        }
        let (astart, entries) = {
            let sh = lock_shared(&self.shared);
            let (astart, mac) = sh
                .client
                .owner(start)
                .expect("array was not allocated through this AuthenticatedStore");
            debug_assert!(
                start + n <= astart + mac.handle.len(),
                "store_run must stay within one array"
            );
            let inputs: Vec<(usize, u64, &Block)> = blks
                .iter()
                .enumerate()
                .map(|(k, blk)| (start + k, sh.client.table[start + k].version + 1, blk))
                .collect();
            let macs = mac_run(self.key, &inputs);
            let entries: Vec<Entry> = inputs
                .iter()
                .zip(macs)
                .map(|(&(_, version, _), tag)| Entry { version, tag })
                .collect();
            (astart, entries)
        };
        self.inner.store_run(start, blks)?;
        let client = &mut lock_shared(&self.shared).client;
        for (k, entry) in entries.into_iter().enumerate() {
            client.commit(astart, start + k, entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::EncryptedStore;
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
    #[should_panic(expected = "private cache budget exceeded")]
    fn a_table_past_the_budget_is_refused_at_allocation() {
        let enc = EncryptedStore::new(4, 1);
        // 8 data blocks need 16 words of table.
        let mut auth = AuthenticatedStore::with_budget(enc, 2, 15);
        let _ = BlockStore::alloc_array(&mut auth, 32);
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
    #[should_panic(expected = "not allocated through this AuthenticatedStore")]
    fn foreign_handles_are_rejected() {
        let mut mem = ExtMem::new(4);
        let foreign = mem.alloc_array(8);
        let mut auth = AuthenticatedStore::new(mem, 9);
        let _ = auth.try_load_block(&foreign, 0);
    }

    // --- the batched MAC kernel and the span path ---

    #[test]
    fn batched_mac_is_bit_identical_to_the_scalar_oracle() {
        // Input counts spanning 0, a partial chunk, exactly MAC_LANES, and
        // several chunks plus tail; block sizes exercising empty, tiny and
        // mixed-occupancy images.
        for b in [1usize, 3, 8] {
            for count in [0usize, 1, 7, 8, 9, 16, 27] {
                let blocks: Vec<Block> = (0..count)
                    .map(|i| {
                        let mut blk = Block::empty(b);
                        for s in 0..b {
                            // A deterministic mix of occupied and dummy slots.
                            if (i + s) % 3 != 0 {
                                blk.set(
                                    s,
                                    Some(Element::new(
                                        hash64((i * b + s) as u64, 0xF00D),
                                        (i * b + s) as u64,
                                    )),
                                );
                            }
                        }
                        blk
                    })
                    .collect();
                let inputs: Vec<(usize, u64, &Block)> = blocks
                    .iter()
                    .enumerate()
                    .map(|(i, blk)| (100 + i, (i as u64) * 7 + 1, blk))
                    .collect();
                let batched = mac_run(0x4D4143, &inputs);
                for ((addr, ver, blk), got) in inputs.iter().zip(&batched) {
                    assert_eq!(
                        *got,
                        mac_block(0x4D4143, *addr, *ver, blk),
                        "b={b} count={count} addr={addr}"
                    );
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
        let cells = elems(64);
        let b = 4;

        let mut one = auth_over_encrypted_file(b);
        let h1 = BlockStore::alloc_array(&mut one, cells.len());
        one.try_store_span(&h1, 0, &cells).unwrap();

        let mut run = auth_over_encrypted_file(b);
        let h2 = BlockStore::alloc_array(&mut run, cells.len());
        let blks: Vec<Block> = cells.chunks(b).map(Block::from_cells).collect();
        run.store_run(h2.global_block(0), blks).unwrap();

        // Same client table, same verified contents.
        assert_eq!(run.try_load_span(&h2, 0, 64).unwrap(), cells);
        assert_eq!(one.client_state().table, run.client_state().table);
    }

    #[test]
    fn reader_verifies_honest_spans_including_dirty_mac_entries() {
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 32);
        auth.try_store_span(&h, 0, &elems(32)).unwrap();
        // Deliberately NO flush_macs: the authentic entries live only in the
        // client table, which the reader shares.
        let mut reader = auth.reader();
        for (i, res) in reader
            .fetch_run(h.global_block(0), h.n_blocks())
            .into_iter()
            .enumerate()
        {
            let blk = res.unwrap_or_else(|e| panic!("block {i} failed span verification: {e}"));
            assert_eq!(blk, auth.try_load_block(&h, i).unwrap());
        }
        // Single fetches agree too, and unwritten arrays verify as dummies.
        let h2 = BlockStore::alloc_array(&mut auth, 8);
        let mut reader = auth.reader();
        assert!(reader.fetch(h2.global_block(1)).unwrap().is_all_dummy());
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
        auth.inner_mut().write_block(&h, 0, &evil);
        let mut reader = auth.reader();
        assert_eq!(
            reader.fetch(h.global_block(0)).unwrap_err(),
            StoreError::Corrupted {
                addr: h.global_block(0)
            }
        );
        // The rest of the span still verifies.
        let results = reader.fetch_run(h.global_block(0), 2);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }

    #[test]
    fn reader_rejects_addresses_outside_every_array() {
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 8);
        auth.try_store_span(&h, 0, &elems(8)).unwrap();
        let mut reader = auth.reader();
        // The MAC array's own blocks are not client data and cannot verify.
        let mac_addr = h.global_block(h.n_blocks() - 1) + 1;
        assert!(matches!(
            reader.fetch(mac_addr),
            Err(StoreError::Corrupted { .. })
        ));
    }
}

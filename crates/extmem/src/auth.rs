//! Authenticated, freshness-checked storage: tampering becomes a typed
//! error, never wrong data.
//!
//! [`AuthenticatedStore`] wraps any [`BlockStore`] and maintains, for every
//! data array it allocates, a parallel server-side *MAC array* holding one
//! entry per data block: a keyed hash over the block image ‖ block address ‖
//! version, paired with that version number. Client-side it keeps the root
//! of trust the server can never touch: a **version table** with the latest
//! version of every block, charged against a [`CacheBudget`] together with a
//! small LRU cache of MAC blocks.
//!
//! On every read the served block is verified:
//!
//! * MAC mismatch (bit flips, fabricated data, a dropped write that split
//!   the data from its MAC entry) → [`StoreError::Corrupted`];
//! * valid MAC but a version **older** than the client's table (a rollback
//!   or replay of a consistent earlier state) → [`StoreError::Stale`];
//! * valid MAC at the expected version → the block is returned.
//!
//! Because the MAC key and the version table never leave the client, a
//! server cannot forge a block that verifies, and cannot replay an old one
//! without the version mismatch showing — *tampering surfaces as
//! `Err(Corrupted | Stale)`, never as silently wrong data*. The MAC blocks
//! themselves need no authentication: corrupting them only makes
//! verification fail.
//!
//! **Obliviousness.** MAC-array traffic is a deterministic function of the
//! data-block access sequence (one MAC entry per data access, LRU-cached),
//! so the authenticated trace is again identical for any same-shape input.
//! One MAC block covers `B` data blocks, which with the LRU cache keeps the
//! authentication overhead around `1/B` extra I/Os on sequential passes —
//! the `faults` bench gates it at ≤ 15% at the headline point.
//!
//! **The span path.** [`Prefetchable::store_run`] MACs a whole run with the
//! batched kernel ([`mac_run`]: interleaved absorb chains, bit-identical to
//! the scalar path per block) before one span write of the data;
//! [`AuthenticatedReader`] verifies the spans the prefetch adapter steals,
//! sharing the foreground's version table and MAC cache, so dirty
//! (unflushed) MAC entries are always visible to it. Steals run on the
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

/// Default number of MAC blocks the client caches.
const DEFAULT_MAC_CACHE_BLOCKS: usize = 8;

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

/// Result of the metadata-only half of verification: either a final verdict
/// (no MAC computation needed) or the `(mac, version)` pair to check.
enum Verdict {
    Done(Result<(), StoreError>),
    NeedsMac { mac_s: u64, ver_s: u64 },
}

/// The version/occupancy classification that precedes any MAC computation —
/// shared verbatim by the foreground path and the reader so the two can
/// never drift.
fn preclassify(addr: usize, expected: u64, entry: Cell, blk: &Block) -> Verdict {
    match entry {
        None => {
            if expected == 0 {
                // Never written: only the all-dummy block is authentic.
                if blk.is_all_dummy() {
                    Verdict::Done(Ok(()))
                } else {
                    Verdict::Done(Err(StoreError::Corrupted { addr }))
                }
            } else {
                // The server "forgot" a block the client wrote.
                Verdict::Done(Err(StoreError::Stale {
                    addr,
                    expected,
                    got: 0,
                }))
            }
        }
        Some(e) => {
            let (mac_s, ver_s) = (e.key, e.payload);
            if expected == 0 || ver_s > expected {
                // A MAC entry for writes the client never made.
                Verdict::Done(Err(StoreError::Corrupted { addr }))
            } else {
                Verdict::NeedsMac { mac_s, ver_s }
            }
        }
    }
}

/// Second half of verification, given the freshly computed MAC.
fn finish_verify(
    addr: usize,
    expected: u64,
    mac_s: u64,
    ver_s: u64,
    computed: u64,
) -> Result<(), StoreError> {
    if mac_s != computed {
        Err(StoreError::Corrupted { addr })
    } else if ver_s < expected {
        // Authentic but old: a rollback/replay.
        Err(StoreError::Stale {
            addr,
            expected,
            got: ver_s,
        })
    } else {
        Ok(())
    }
}

/// Full scalar verification of one served block.
fn verify_block(
    key: u64,
    addr: usize,
    expected: u64,
    entry: Cell,
    blk: &Block,
) -> Result<(), StoreError> {
    match preclassify(addr, expected, entry, blk) {
        Verdict::Done(r) => r,
        Verdict::NeedsMac { mac_s, ver_s } => finish_verify(
            addr,
            expected,
            mac_s,
            ver_s,
            mac_block(key, addr, ver_s, blk),
        ),
    }
}

/// The client-side root of trust of an [`AuthenticatedStore`], as an opaque
/// checkpointable value: the MAC key, the per-block version table, and the
/// data-array → MAC-array map. Everything else (the MAC arrays themselves)
/// lives server-side and is *verified against* this state, so persisting it
/// across a client crash is exactly what makes torn server state detectable
/// on restart. See [`AuthenticatedStore::client_state`] /
/// [`AuthenticatedStore::resume`].
#[derive(Clone, Debug)]
pub struct AuthClientState {
    key: u64,
    versions: Vec<u64>,
    mac_arrays: HashMap<usize, ArrayHandle>,
}

#[derive(Debug)]
struct MacCacheEntry {
    mac_h: ArrayHandle,
    blk_idx: usize,
    blk: Block,
    dirty: bool,
    last_used: u64,
}

/// The verification state shared between the foreground store and its
/// readers: version table, MAC-array map, and the MAC cache.
/// The cache *must* live here — a dirty (unflushed) MAC entry is the only
/// authentic one, and a reader verifying against the stale server copy
/// would reject honest data.
#[derive(Debug)]
struct AuthShared {
    /// Latest version of every data block, by global address — the client's
    /// root of trust. Version 0 means "never written".
    versions: Vec<u64>,
    /// Data-array start address → its MAC array.
    mac_arrays: HashMap<usize, ArrayHandle>,
    cache: Vec<MacCacheEntry>,
    tick: u64,
}

impl AuthShared {
    /// The data array covering global address `addr`, as
    /// `(start address, MAC array)` — the MAC array has one entry per data
    /// block, so its element count is exactly the data array's block count.
    fn owning_array(&self, addr: usize) -> Option<(usize, ArrayHandle)> {
        self.mac_arrays
            .iter()
            .find(|(start, mh)| addr >= **start && addr < **start + mh.len())
            .map(|(start, mh)| (*start, *mh))
    }

    /// The cached MAC entry for slot `slot` of MAC block `blk_idx` of `mh`,
    /// if that MAC block is cached (read-only: does not touch LRU state).
    fn cached_mac_entry(&self, mh: &ArrayHandle, blk_idx: usize, slot: usize) -> Option<Cell> {
        let id = mh.global_block(0);
        self.cache
            .iter()
            .find(|e| e.mac_h.global_block(0) == id && e.blk_idx == blk_idx)
            .map(|e| e.blk.get(slot))
    }
}

/// Locks the shared verification state, recovering from poison: every
/// mutation under the lock leaves the state internally consistent (entries
/// are pushed/removed whole), so a panicked holder cannot strand it.
fn lock_shared(s: &Mutex<AuthShared>) -> MutexGuard<'_, AuthShared> {
    s.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-block MAC + client-side version table over any [`BlockStore`]. See
/// the module docs for the threat model and detection guarantees.
///
/// Client-side state is charged to a [`CacheBudget`] **in 64-bit words**:
/// one word per data block for the version table, `2B` words per cached MAC
/// block.
#[derive(Debug)]
pub struct AuthenticatedStore<S: BlockStore> {
    inner: S,
    key: u64,
    shared: Arc<Mutex<AuthShared>>,
    cache_cap: usize,
    budget: CacheBudget,
    mac_io: IoStats,
}

impl<S: BlockStore> AuthenticatedStore<S> {
    /// Wraps `inner` with MAC key `key`, an effectively unbounded budget and
    /// the default MAC-cache size.
    pub fn new(inner: S, key: u64) -> Self {
        Self::with_budget(inner, key, DEFAULT_MAC_CACHE_BLOCKS, usize::MAX >> 1)
    }

    /// Wraps `inner` with an explicit MAC-cache size (in blocks) and a
    /// client-memory budget (in 64-bit words).
    pub fn with_budget(inner: S, key: u64, mac_cache_blocks: usize, budget_words: usize) -> Self {
        assert!(
            mac_cache_blocks >= 1,
            "the MAC cache needs at least 1 block"
        );
        AuthenticatedStore {
            inner,
            key,
            shared: Arc::new(Mutex::new(AuthShared {
                versions: Vec::new(),
                mac_arrays: HashMap::new(),
                cache: Vec::new(),
                tick: 0,
            })),
            cache_cap: mac_cache_blocks,
            budget: CacheBudget::new(budget_words),
            mac_io: IoStats::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the store, discarding the client state (and any dirty MAC
    /// cache — call [`AuthenticatedStore::flush_macs`] first if the server
    /// copy must be complete).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Snapshots the client-side root of trust — MAC key, version table and
    /// the data-array → MAC-array map — as an opaque, durable value. This is
    /// the state a real client would checkpoint to its own trusted storage:
    /// with it, a crashed-and-restarted client can [`AuthenticatedStore::resume`]
    /// over a reopened server file and still detect every torn, rolled-back
    /// or corrupted block. Flush the MAC cache first
    /// ([`AuthenticatedStore::flush_macs`]) so the snapshot's server-side
    /// counterpart is complete.
    pub fn client_state(&self) -> AuthClientState {
        let sh = lock_shared(&self.shared);
        AuthClientState {
            key: self.key,
            versions: sh.versions.clone(),
            mac_arrays: sh.mac_arrays.clone(),
        }
    }

    /// Reconstructs an authenticated view over a reopened server store from
    /// a checkpointed [`AuthClientState`] (the crash-recovery path). Array
    /// handles from before the crash remain valid, since handles address
    /// blocks the same way across backends and restarts.
    pub fn resume(inner: S, state: AuthClientState) -> Self {
        let mut auth = Self::new(inner, state.key);
        // Re-charge the version table against the fresh budget, exactly as
        // the original alloc_array calls did.
        auth.budget.acquire(state.versions.len());
        {
            let mut sh = lock_shared(&auth.shared);
            sh.versions = state.versions;
            sh.mac_arrays = state.mac_arrays;
        }
        auth
    }

    /// Mutable access to the wrapped store (e.g. to reconfigure a
    /// [`FaultyStore`](crate::fault::FaultyStore) below).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The budget charging the version table and MAC cache (words).
    pub fn budget(&self) -> &CacheBudget {
        &self.budget
    }

    /// I/Os spent on MAC-array traffic (a subset of the inner store's
    /// totals) — the authentication overhead. Store traffic only: MAC
    /// blocks an [`AuthenticatedReader`] fetches to verify a stolen span are
    /// not counted here (they surface in the inner store's physical counters
    /// instead).
    pub fn mac_io(&self) -> IoStats {
        self.mac_io
    }

    /// Writes back every dirty MAC block and drops the MAC cache, releasing
    /// its budget. Afterwards the server holds the complete MAC state.
    pub fn flush_macs(&mut self) -> Result<(), StoreError> {
        let mut sh = lock_shared(&self.shared);
        for idx in 0..sh.cache.len() {
            if sh.cache[idx].dirty {
                let (mh, bi, blk) = {
                    let e = &sh.cache[idx];
                    (e.mac_h, e.blk_idx, e.blk.clone())
                };
                self.inner.try_store_block(&mh, bi, blk)?;
                self.mac_io.writes += 1;
                sh.cache[idx].dirty = false;
            }
        }
        let b = self.inner.block_elems();
        self.budget.release(2 * b * sh.cache.len());
        sh.cache.clear();
        Ok(())
    }

    fn mac_handle(&self, h: &ArrayHandle) -> ArrayHandle {
        *lock_shared(&self.shared)
            .mac_arrays
            .get(&h.global_block(0))
            .expect("array was not allocated through this AuthenticatedStore")
    }

    /// Runs `f` on the cache entry holding MAC block `blk_idx` of `mh`,
    /// loading (and evicting LRU, write-back) as needed — all under one
    /// acquisition of the shared lock. On `Err` the cache is unchanged or
    /// only cleaned — safe to retry.
    fn with_cache_entry<T>(
        &mut self,
        mh: &ArrayHandle,
        blk_idx: usize,
        f: impl FnOnce(&mut MacCacheEntry) -> T,
    ) -> Result<T, StoreError> {
        let mut sh = lock_shared(&self.shared);
        sh.tick += 1;
        let tick = sh.tick;
        let id = mh.global_block(0);
        if let Some(pos) = sh
            .cache
            .iter()
            .position(|e| e.mac_h.global_block(0) == id && e.blk_idx == blk_idx)
        {
            sh.cache[pos].last_used = tick;
            return Ok(f(&mut sh.cache[pos]));
        }
        let b = self.inner.block_elems();
        if sh.cache.len() >= self.cache_cap {
            let victim = sh
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            if sh.cache[victim].dirty {
                let (mh_v, bi_v, blk_v) = {
                    let e = &sh.cache[victim];
                    (e.mac_h, e.blk_idx, e.blk.clone())
                };
                // Flush before removing: if this write fails transiently the
                // entry stays cached and dirty, and the retry redoes it.
                self.inner.try_store_block(&mh_v, bi_v, blk_v)?;
                self.mac_io.writes += 1;
                sh.cache[victim].dirty = false;
            }
            sh.cache.remove(victim);
            self.budget.release(2 * b);
        }
        let blk = self.inner.try_load_block(mh, blk_idx)?;
        self.mac_io.reads += 1;
        self.budget.try_acquire(2 * b)?;
        sh.cache.push(MacCacheEntry {
            mac_h: *mh,
            blk_idx,
            blk,
            dirty: false,
            last_used: tick,
        });
        let last = sh.cache.len() - 1;
        Ok(f(&mut sh.cache[last]))
    }

    fn mac_entry(&mut self, mh: &ArrayHandle, data_blk: usize) -> Result<Cell, StoreError> {
        let b = self.inner.block_elems();
        self.with_cache_entry(mh, data_blk / b, |e| e.blk.get(data_blk % b))
    }

    fn set_mac_entry(
        &mut self,
        mh: &ArrayHandle,
        data_blk: usize,
        cell: Cell,
    ) -> Result<(), StoreError> {
        let b = self.inner.block_elems();
        self.with_cache_entry(mh, data_blk / b, |e| {
            e.blk.set(data_blk % b, cell);
            e.dirty = true;
        })
    }
}

impl<S: BlockStore> BlockStore for AuthenticatedStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let h = self.inner.alloc_array(len_elements);
        let mh = self.inner.alloc_array(h.n_blocks());
        let mut sh = lock_shared(&self.shared);
        let top = h.global_block(h.n_blocks() - 1) + 1;
        if top > sh.versions.len() {
            sh.versions.resize(top, 0);
        }
        // One version word per data block, client-side forever.
        self.budget.acquire(h.n_blocks());
        sh.mac_arrays.insert(h.global_block(0), mh);
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
        let mh = self.mac_handle(h);
        let addr = h.global_block(i);
        let blk = self.inner.try_load_block(h, i)?;
        let entry = self.mac_entry(&mh, i)?;
        let expected = lock_shared(&self.shared).versions[addr];
        verify_block(self.key, addr, expected, entry, &blk)?;
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let mh = self.mac_handle(h);
        let addr = h.global_block(i);
        // The version is bumped only after both the data write and the MAC
        // entry update succeed, so a transiently failed attempt can be
        // retried verbatim.
        let ver = lock_shared(&self.shared).versions[addr] + 1;
        let mac = mac_block(self.key, addr, ver, &blk);
        self.inner.try_store_block(h, i, blk)?;
        self.set_mac_entry(&mh, i, Some(Element::new(mac, ver)))?;
        lock_shared(&self.shared).versions[addr] = ver;
        Ok(())
    }
}

/// Reader over an authenticated store: fetches data through the wrapped
/// store's reader and verifies it against the foreground's version table and
/// MAC cache, which it shares. MAC blocks not in the shared cache are fetched
/// through the reader's own inner reader and *not* inserted into the cache
/// (readers hold no budget).
#[derive(Debug)]
pub struct AuthenticatedReader<R: PrefetchRead> {
    inner: R,
    key: u64,
    block_elems: usize,
    shared: Arc<Mutex<AuthShared>>,
}

impl<R: PrefetchRead> PrefetchRead for AuthenticatedReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let blk = self.inner.fetch(addr)?;
        let b = self.block_elems;
        let (expected, entry) = {
            let sh = lock_shared(&self.shared);
            let Some((astart, mh)) = sh.owning_array(addr) else {
                // An address outside every array this client allocated can
                // never verify; a reader must not panic, so classify it the
                // way any unverifiable block is classified.
                return Err(StoreError::Corrupted { addr });
            };
            let i = addr - astart;
            let expected = sh.versions.get(addr).copied().unwrap_or(0);
            let entry = match sh.cached_mac_entry(&mh, i / b, i % b) {
                Some(cell) => cell,
                None => self.inner.fetch(mh.global_block(i / b))?.get(i % b),
            };
            (expected, entry)
        };
        verify_block(self.key, addr, expected, entry, &blk)?;
        Ok(blk)
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        let mut out = self.inner.fetch_run(start, count);
        let b = self.block_elems;
        // Phase 1: gather (expected version, MAC entry) per fetched block
        // under one lock acquisition, memoizing MAC-block fetches so a run
        // costs one MAC read per covered MAC block, not per data block.
        let mut meta: Vec<Option<Result<(u64, Cell), StoreError>>> = Vec::with_capacity(count);
        {
            let sh = lock_shared(&self.shared);
            let mut fetched_macs: Vec<(usize, Result<Block, StoreError>)> = Vec::new();
            for (k, res) in out.iter().enumerate() {
                if res.is_err() {
                    meta.push(None);
                    continue;
                }
                let addr = start + k;
                let Some((astart, mh)) = sh.owning_array(addr) else {
                    meta.push(Some(Err(StoreError::Corrupted { addr })));
                    continue;
                };
                let i = addr - astart;
                let expected = sh.versions.get(addr).copied().unwrap_or(0);
                let entry = match sh.cached_mac_entry(&mh, i / b, i % b) {
                    Some(cell) => Ok(cell),
                    None => {
                        let mac_addr = mh.global_block(i / b);
                        let blk_res = match fetched_macs.iter().find(|(a, _)| *a == mac_addr) {
                            Some((_, r)) => r.clone(),
                            None => {
                                let r = self.inner.fetch(mac_addr);
                                fetched_macs.push((mac_addr, r.clone()));
                                r
                            }
                        };
                        blk_res.map(|mb| mb.get(i % b))
                    }
                };
                meta.push(Some(entry.map(|cell| (expected, cell))));
            }
        }
        // Phase 2: metadata-only classification, then one batched MAC pass
        // over everything that still needs its MAC checked.
        let mut need: Vec<(usize, u64, u64, u64)> = Vec::new(); // (k, expected, mac_s, ver_s)
        for (k, m) in meta.into_iter().enumerate() {
            let addr = start + k;
            let Ok(blk) = &out[k] else { continue };
            match m.expect("meta recorded for every successfully fetched block") {
                Err(e) => out[k] = Err(e),
                Ok((expected, entry)) => match preclassify(addr, expected, entry, blk) {
                    Verdict::Done(Ok(())) => {}
                    Verdict::Done(Err(e)) => out[k] = Err(e),
                    Verdict::NeedsMac { mac_s, ver_s } => need.push((k, expected, mac_s, ver_s)),
                },
            }
        }
        let macs = {
            let inputs: Vec<(usize, u64, &Block)> = need
                .iter()
                .map(|(k, _, _, ver_s)| {
                    (start + k, *ver_s, out[*k].as_ref().expect("fetched above"))
                })
                .collect();
            mac_run(self.key, &inputs)
        };
        for ((k, expected, mac_s, ver_s), mac) in need.into_iter().zip(macs) {
            if let Err(e) = finish_verify(start + k, expected, mac_s, ver_s, mac) {
                out[k] = Err(e);
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
            block_elems: self.inner.block_elems(),
            shared: Arc::clone(&self.shared),
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }

    /// MACs the whole run with the batched kernel, hands the data to the
    /// wrapped store as one span write, then commits MAC entries and
    /// versions block by block (same commit discipline as the single-block
    /// path: version bumped only after its MAC entry landed). A failure
    /// mid-commit leaves a prefix committed — detectable on the next read
    /// exactly like a torn block-at-a-time write sequence.
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        let n = blks.len();
        if n == 0 {
            return Ok(());
        }
        let (astart, mh, vers, macs) = {
            let sh = lock_shared(&self.shared);
            let (astart, mh) = sh
                .owning_array(start)
                .expect("array was not allocated through this AuthenticatedStore");
            debug_assert!(
                start + n <= astart + mh.len(),
                "store_run must stay within one array"
            );
            let vers: Vec<u64> = (0..n).map(|k| sh.versions[start + k] + 1).collect();
            let inputs: Vec<(usize, u64, &Block)> = blks
                .iter()
                .enumerate()
                .map(|(k, blk)| (start + k, vers[k], blk))
                .collect();
            let macs = mac_run(self.key, &inputs);
            (astart, mh, vers, macs)
        };
        self.inner.store_run(start, blks)?;
        for k in 0..n {
            self.set_mac_entry(
                &mh,
                start - astart + k,
                Some(Element::new(macs[k], vers[k])),
            )?;
            lock_shared(&self.shared).versions[start + k] = vers[k];
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
        // Survives a cache drop: MAC state persists server-side.
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
        // flush — the server has nothing the client's version table expects.
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
        // Corrupt every read — including the MAC-block read itself. Whatever
        // the adversary hits first, verification must fail, not mis-serve.
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
    fn budget_charges_versions_and_mac_cache_and_reports_high_water() {
        let enc = EncryptedStore::new(4, 1);
        // 2 MAC cache blocks => 2 * 2*4 = 16 words, plus version words.
        let mut auth = AuthenticatedStore::with_budget(enc, 2, 2, 64);
        let h = BlockStore::alloc_array(&mut auth, 32); // 8 data blocks
        assert_eq!(auth.budget().in_use(), 8, "one word per data block");
        auth.try_store_span(&h, 0, &elems(32)).unwrap();
        assert!(auth.budget().high_water() <= 8 + 16);
        assert!(auth.budget().high_water() > 8, "the MAC cache was used");
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error_on_the_fallible_path() {
        let enc = EncryptedStore::new(4, 1);
        // Versions for 8 blocks fit (8 words), but a single MAC cache block
        // needs 8 more words than the 10-word budget allows.
        let mut auth = AuthenticatedStore::with_budget(enc, 2, 2, 10);
        let h = BlockStore::alloc_array(&mut auth, 32);
        let err = auth.try_load_block(&h, 0).unwrap_err();
        assert!(
            matches!(err, StoreError::BudgetExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn mac_overhead_is_small_on_sequential_passes() {
        // One MAC block covers B data blocks, so a sequential sweep pays
        // ~1/B extra I/Os for authentication.
        let mut auth = auth_over_faulty(8);
        let h = BlockStore::alloc_array(&mut auth, 1024); // 128 data blocks
        let cells = elems(1024);
        auth.try_store_span(&h, 0, &cells).unwrap();
        auth.flush_macs().unwrap();
        let before = auth.io_stats();
        let _ = auth.try_load_span(&h, 0, 1024).unwrap();
        let delta = auth.io_stats() - before;
        // 128 data reads + at most ceil(128/8)=16 MAC block reads.
        assert!(
            delta.total() <= 128 + 16,
            "authenticated sweep cost {} I/Os",
            delta.total()
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

        // Same version table, same verified contents.
        assert_eq!(run.try_load_span(&h2, 0, 64).unwrap(), cells);
        let s1 = one.client_state();
        let s2 = run.client_state();
        assert_eq!(s1.versions, s2.versions);
    }

    #[test]
    fn reader_verifies_honest_spans_including_dirty_mac_entries() {
        let mut auth = auth_over_encrypted_file(4);
        let h = BlockStore::alloc_array(&mut auth, 32);
        auth.try_store_span(&h, 0, &elems(32)).unwrap();
        // Deliberately NO flush_macs: the authentic MAC entries live only in
        // the shared cache, which the reader must consult.
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

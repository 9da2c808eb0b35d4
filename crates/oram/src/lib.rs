//! # odo-oram — hierarchical ORAM over the oblivious primitive stack
//!
//! A client-side Oblivious RAM simulation in the hierarchical style of
//! Goldreich–Ostrovsky as externalized by Goodrich–Mitzenmacher: the server
//! holds a geometric hierarchy of bucket hash tables, the client holds
//! `O(period)` words, and every `read`/`write` touches one bucket per
//! occupied level — a *dummy* bucket once the item has been found, so hits
//! and misses are indistinguishable. Levels are periodically reshuffled
//! into the next level down by a rebuild that is nothing but the
//! workspace's existing oblivious machinery: an [`OblivSorter`] pass, a
//! filler-padding trick, a second sorter pass under a fresh epoch salt, and
//! the paper's Section 3 order-preserving compaction. The rebuild *is* a
//! sort+compact pipeline; this crate adds no low-level oblivious machinery
//! of its own.
//!
//! ## Obliviousness
//!
//! The server-visible trace of an access is one block probe per occupied
//! level, at `bucket_of(hash64(key, salt_j))` where `key` is the requested
//! address until the item is found and a per-access nonce afterwards. Fresh
//! salts are drawn at every rebuild and a found item is immediately cached
//! client-side, so no level is ever probed twice for the same key within
//! one of its epochs — every probe lands on an independently uniform
//! bucket. Rebuild passes read and write every block of their scratch
//! region unconditionally; survivor counts and per-bucket loads never
//! modulate the trace (overflowing reals are swallowed into the client
//! stash, not spilled to the server). With the deterministic
//! [`OblivSorter::Bitonic`] engine the whole trace is a function of the
//! shape `(n, B, M, period)` and the access *count* alone, up to which
//! bucket each probe lands in — the trace battery in
//! `tests/oram_oblivious.rs` checks exactly this by canonicalizing probe
//! addresses per level.
//!
//! ## Costs
//!
//! With `L = O(log n)` levels, an access costs `L` probes plus an amortized
//! rebuild share: level `j` is rebuilt every `2^(j+1)` flushes at
//! `O(sort(cap_j))` I/Os, which telescopes to `O(log² n)` amortized block
//! I/Os per access with the bitonic engine (`bench oram` gates this
//! analytically). Values are full `u64` words client-side, but must fit in
//! 63 bits to run over [`EncryptedStore`](extmem::EncryptedStore) — the
//! same contract as every other algorithm in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;

use extmem::element::cell_cmp_none_last;
use extmem::util::{bucket_of, hash64, splitmix64};
use extmem::{
    AccessEvent, AccessTrace, ArrayHandle, Block, BlockStore, Cell, Element, RetryPolicy,
    RetryStats, RetryingStore, StoreError,
};
use odo_core::compact::try_compact;
use odo_core::obliv_net::hint_block_range;
use odo_core::{OblivSorter, OdoError};

/// Low bits of a packed rebuild key carrying the copy's age class
/// (0 = cache, 1 = stash, `i+2` = level `i`); the suppression pass keeps the
/// lowest-priority (newest) copy of every address.
const PRIO_BITS: u32 = 8;
/// Key tag of a filler cell. Fillers pad every bucket to exactly `B`
/// candidates during a rebuild so the compaction that produces the table
/// image is independent of how many real items each bucket drew.
const FILLER_BIT: u64 = 1 << 62;
/// Key tag of a dummy-probe nonce: `DUMMY_PROBE_BIT | access_counter` is
/// distinct from every real address and from every earlier nonce.
const DUMMY_PROBE_BIT: u64 = 1 << 63;
/// Key of a pad cell. Rebuild passes convert every discarded cell (empty
/// client slots, last epoch's fillers, suppressed stale duplicates) into an
/// occupied pad instead of a dummy, so the *occupied count* a sort engine
/// sees is a function of the shape and the flush number alone — the
/// randomized bucket engine sizes its butterfly by that count, and a
/// data-dependent count would leak how many distinct addresses are live.
const PAD_KEY: u64 = 1 << 61;
/// Addresses must fit under the tag bits even after the priority shift.
const MAX_ADDR_BITS: u32 = 48;

#[inline]
fn pack_key(addr: u64, prio: u8) -> u64 {
    (addr << PRIO_BITS) | prio as u64
}

/// Shape and strategy knobs for an [`Oram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OramConfig {
    /// Flush period `P` (a power of two): the client cache is flushed into
    /// the hierarchy every `P` accesses. Level `j` has capacity
    /// `P · 2^(j+1)` cells.
    pub period: usize,
    /// Private client memory `M` in elements available to the rebuild's
    /// sort and compaction passes. Must be at least `8B`.
    pub cache_elems: usize,
    /// Seed for the epoch salts (and the default bucket sorter). Two ORAMs
    /// built with the same seed, shape and request sequence produce the
    /// same trace on any backend.
    pub seed: u64,
    /// The sort engine rebuilds run on. Defaults to the randomized bucket
    /// sort; use [`OblivSorter::Bitonic`] for a fully shape-deterministic
    /// trace (the trace battery does).
    pub sorter: OblivSorter,
}

impl OramConfig {
    /// A config with the default (bucket) sorter seeded from `seed`.
    pub fn new(period: usize, cache_elems: usize, seed: u64) -> Self {
        OramConfig {
            period,
            cache_elems,
            seed,
            sorter: OblivSorter::bucket(splitmix64(seed ^ 0x5EED_0B50)),
        }
    }

    /// Replaces the rebuild sort engine.
    pub fn with_sorter(mut self, sorter: OblivSorter) -> Self {
        self.sorter = sorter;
        self
    }
}

/// One server-held level: a bucket hash table plus its rebuild scratch
/// region, both preallocated at build time so the server-visible address
/// layout never depends on the access history.
struct Level {
    table: ArrayHandle,
    scratch: ArrayHandle,
    cap: usize,
    nb: usize,
    salt: u64,
    occupied: bool,
}

/// The server-side block layout of one level, for trace analysis and
/// benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelGeometry {
    /// Level index (0 = shallowest).
    pub level: usize,
    /// Table capacity in cells (`P · 2^(level+1)`, at least one block).
    pub cap: usize,
    /// Whether the level currently holds a table (probed on access).
    pub occupied: bool,
    /// Global block address of the table's first block.
    pub table_base: usize,
    /// Table size in blocks (`cap / B` buckets).
    pub table_blocks: usize,
    /// Global block address of the rebuild scratch region.
    pub scratch_base: usize,
    /// Scratch size in blocks.
    pub scratch_blocks: usize,
}

/// A hierarchical ORAM client. Generic over any [`BlockStore`] backend —
/// the same instance runs over [`ExtMem`](extmem::ExtMem), a
/// [`FileStore`](extmem::FileStore), an encrypted store or the full
/// authenticated untrusted-server stack.
pub struct Oram {
    n: u64,
    b: usize,
    period: u64,
    cache_elems: usize,
    sorter: OblivSorter,
    client_slots: usize,
    levels: Vec<Level>,
    /// Most-recently-accessed items, newest value per address; at most one
    /// entry is added per access and the cache is drained every `period`.
    cache: Vec<(u64, u64)>,
    /// Reals that overflowed a bucket during a rebuild; re-injected at the
    /// next flush with priority just below the cache.
    stash: Vec<(u64, u64)>,
    accesses: u64,
    flushes: u64,
    rng: u64,
    poisoned: bool,
}

impl Oram {
    /// Builds an ORAM over addresses `0..n` on `store`. Allocates every
    /// level's table and scratch region up front (fresh arrays read as
    /// all-dummy on every backend, so building performs no data I/O) —
    /// the address layout is a function of the shape alone.
    ///
    /// # Panics
    /// If `n` is zero or exceeds `2^48`, `period` is not a power of two,
    /// the store's block size is not a power of two, or
    /// `cache_elems < 8 · B`.
    pub fn new<S: BlockStore>(store: &mut S, n: u64, cfg: &OramConfig) -> Self {
        let b = store.block_elems();
        assert!(n >= 1, "ORAM address space must be non-empty");
        assert!(
            n <= 1 << MAX_ADDR_BITS,
            "ORAM addresses must fit in {MAX_ADDR_BITS} bits"
        );
        assert!(
            cfg.period.is_power_of_two(),
            "ORAM period must be a power of two"
        );
        assert!(
            b.is_power_of_two(),
            "ORAM requires a power-of-two block size"
        );
        assert!(
            cfg.cache_elems >= 8 * b,
            "ORAM rebuilds need cache_elems >= 8 * block size"
        );
        let p = cfg.period;
        // Client capacity: up to `period` cache entries plus stash headroom
        // for bucket overflows, rounded up to whole blocks.
        let client_slots = (2 * p + 8 * b).div_ceil(b) * b;
        // The deepest level must fit every address plus all client state at
        // load factor <= 1/2.
        let need = 2 * (n as usize) + 2 * client_slots;
        let mut l = 1usize;
        while (p << l) < need {
            l += 1;
        }
        assert!(
            l + 2 < (1 << PRIO_BITS),
            "level count exceeds the priority encoding"
        );
        let cap_of = |j: usize| (p << (j + 1)).max(b);
        let mut levels = Vec::with_capacity(l);
        for j in 0..l {
            let cap = cap_of(j);
            let scratch_len = client_slots
                + (0..j).map(&cap_of).sum::<usize>()
                + if j == l - 1 { cap } else { 0 }
                + cap;
            let table = store.alloc_array(cap);
            let scratch = store.alloc_array(scratch_len);
            levels.push(Level {
                table,
                scratch,
                cap,
                nb: cap / b,
                salt: 0,
                occupied: false,
            });
        }
        Oram {
            n,
            b,
            period: p as u64,
            cache_elems: cfg.cache_elems,
            sorter: cfg.sorter,
            client_slots,
            levels,
            cache: Vec::new(),
            stash: Vec::new(),
            accesses: 0,
            flushes: 0,
            rng: splitmix64(cfg.seed ^ 0x0DD0_0A4D),
            poisoned: false,
        }
    }

    /// Reads address `addr`, returning its current value (0 if never
    /// written). Performs the full oblivious access — one bucket probe per
    /// occupied level — and may trigger an amortized rebuild.
    ///
    /// # Panics
    /// Where [`Self::try_read`] would return an error.
    pub fn read<S: BlockStore>(&mut self, store: &mut S, addr: u64) -> u64 {
        self.access(store, addr, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Writes `value` to address `addr`. Same trace shape as [`Self::read`]
    /// — the server cannot distinguish reads from writes.
    ///
    /// # Panics
    /// Where [`Self::try_write`] would return an error.
    pub fn write<S: BlockStore>(&mut self, store: &mut S, addr: u64, value: u64) {
        self.access(store, addr, Some(value))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Self::read`] for untrusted/unreliable backends: transient
    /// faults retry per `policy`; tampering, exhausted retries, a bucket
    /// overflow in a rebuild's sort and a client state that outgrew its
    /// slots ([`OdoError::StashOverflow`]) surface as a typed [`OdoError`] and
    /// poison the client (further calls return [`OdoError::InvalidState`] —
    /// rebuild the ORAM to recover).
    pub fn try_read<S: BlockStore>(
        &mut self,
        store: &mut S,
        addr: u64,
        policy: RetryPolicy,
    ) -> Result<(u64, RetryStats), OdoError> {
        self.try_access(store, addr, None, policy)
    }

    /// Fallible [`Self::write`]; see [`Self::try_read`] for the contract.
    pub fn try_write<S: BlockStore>(
        &mut self,
        store: &mut S,
        addr: u64,
        value: u64,
        policy: RetryPolicy,
    ) -> Result<RetryStats, OdoError> {
        self.try_access(store, addr, Some(value), policy)
            .map(|(_, stats)| stats)
    }

    fn try_access<S: BlockStore>(
        &mut self,
        store: &mut S,
        addr: u64,
        write: Option<u64>,
        policy: RetryPolicy,
    ) -> Result<(u64, RetryStats), OdoError> {
        let mut rs = RetryingStore::new(store, policy);
        let value = self.access(&mut rs, addr, write)?;
        Ok((value, rs.stats()))
    }

    /// One oblivious access: scan the client, probe one bucket per occupied
    /// level (the requested address until found, a fresh nonce afterwards),
    /// cache the result, and flush every `period` accesses. An error leaves
    /// the client poisoned.
    fn access<S: BlockStore>(
        &mut self,
        store: &mut S,
        addr: u64,
        write: Option<u64>,
    ) -> Result<u64, OdoError> {
        if self.poisoned {
            return Err(OdoError::InvalidState {
                reason: "the ORAM client aborted mid-access and its level \
                         state no longer matches the server",
            });
        }
        if addr >= self.n {
            return Err(OdoError::InvalidArgument {
                reason: "ORAM address out of range",
            });
        }
        self.poisoned = true;

        let mut found: Option<u64> = None;
        for &(a, v) in &self.cache {
            if a == addr {
                found = Some(v);
            }
        }
        if found.is_none() {
            for &(a, v) in &self.stash {
                if a == addr {
                    found = Some(v);
                }
            }
        }

        let nonce = DUMMY_PROBE_BIT | self.accesses;
        for lvl in &self.levels {
            if !lvl.occupied {
                continue;
            }
            let probe = if found.is_none() { addr } else { nonce };
            let bucket = bucket_of(hash64(probe, lvl.salt), lvl.nb);
            let blk = store.try_load_block(&lvl.table, bucket)?;
            if found.is_none() {
                for e in blk.slots().iter().flatten() {
                    if e.key == addr {
                        found = Some(e.payload);
                    }
                }
            }
            store.recycle(blk);
        }

        let result = found.unwrap_or(0);
        let stored = write.unwrap_or(result);
        match self.cache.iter_mut().find(|(a, _)| *a == addr) {
            Some(slot) => slot.1 = stored,
            None => self.cache.push((addr, stored)),
        }

        self.accesses += 1;
        if self.accesses.is_multiple_of(self.period) {
            self.rebuild(store)?;
        }
        self.poisoned = false;
        Ok(result)
    }

    /// Which level flush number `flush` (1-based) rebuilds into: the
    /// binary-counter rule `min(trailing_zeros(flush), levels - 1)`.
    pub fn target_level(flush: u64, levels: usize) -> usize {
        (flush.trailing_zeros() as usize).min(levels - 1)
    }

    /// Rebuilds level `j = target_level(flushes)` from the client state and
    /// every shallower level, as a pure sort+compact pipeline over the
    /// level's scratch region. Every pass reads and writes a fixed,
    /// data-independent block schedule.
    fn rebuild<S: BlockStore>(&mut self, store: &mut S) -> Result<(), OdoError> {
        let items = self.cache.len() + self.stash.len();
        if items > self.client_slots {
            return Err(OdoError::StashOverflow {
                items,
                slots: self.client_slots,
            });
        }
        self.flushes += 1;
        let l = self.levels.len();
        let j = Self::target_level(self.flushes, l);
        let include_self = j == l - 1;
        let b = self.b;
        let m = self.cache_elems;
        let scratch = self.levels[j].scratch;
        let cap = self.levels[j].cap;
        let nb = self.levels[j].nb;

        // Pass 1 — collect. Client items first (cache newest = priority 0,
        // stash = 1), then levels 0..j top-down (priority i+2), keys packed
        // as (addr << PRIO_BITS) | priority. Last epoch's fillers and
        // unused client slots become pads, so the collected occupancy is
        // exactly client_slots plus the consumed tables' capacities. The
        // untouched scratch tail is provably all-dummy (fresh arrays decode
        // as dummies; pass 7 of the previous rebuild left everything past
        // the compacted prefix empty).
        let mut client: Vec<Cell> = Vec::with_capacity(self.client_slots);
        for &(a, v) in &self.cache {
            client.push(Some(Element::new(pack_key(a, 0), v)));
        }
        for &(a, v) in &self.stash {
            client.push(Some(Element::new(pack_key(a, 1), v)));
        }
        client.resize(self.client_slots, Some(Element::new(PAD_KEY, 0)));
        self.cache.clear();
        self.stash.clear();
        store.try_store_span(&scratch, 0, &client)?;

        let mut off = self.client_slots / b;
        for i in 0..j {
            debug_assert!(self.levels[i].occupied, "binary-counter invariant");
            off = self.copy_level_into_scratch(store, i, &scratch, off, (i + 2) as u8)?;
            self.levels[i].occupied = false;
        }
        if include_self && self.levels[j].occupied {
            off = self.copy_level_into_scratch(store, j, &scratch, off, (j + 2) as u8)?;
        }
        let _ = off;

        // Pass 2 — sort by packed key: copies of the same address become
        // adjacent, newest (lowest priority) first, dummies last.
        self.sorter
            .try_sort_by(store, &scratch, m, &cell_cmp_none_last)?;

        // Pass 3 — suppress stale duplicates and unpack keys back to bare
        // addresses. Sequential full sweep; every block is written back
        // whether or not it changed.
        let nblocks = scratch.n_blocks();
        hint_block_range(store, &scratch, 0, nblocks);
        let mut last: Option<u64> = None;
        let mut survivors = 0usize;
        for k in 0..nblocks {
            let mut blk = store.try_load_block(&scratch, k)?;
            for s in 0..blk.len() {
                let new = match blk.get(s) {
                    // Pads stay occupied so the occupied count cannot leak
                    // the number of live addresses; suppressed stale copies
                    // become pads for the same reason.
                    Some(e) if e.key & PAD_KEY != 0 => Some(Element::new(PAD_KEY, 0)),
                    Some(e) => {
                        let a = e.key >> PRIO_BITS;
                        if last == Some(a) {
                            Some(Element::new(PAD_KEY, 0))
                        } else {
                            last = Some(a);
                            survivors += 1;
                            Some(Element::new(a, e.payload))
                        }
                    }
                    None => None,
                };
                blk.set(s, new);
            }
            store.try_store_block(&scratch, k, blk)?;
        }
        debug_assert!(survivors + cap <= scratch.len());

        // Pass 4 — fillers: pad the (all-dummy) scratch tail with exactly B
        // filler cells per destination bucket, so pass 6 can keep exactly B
        // candidates per bucket no matter how many reals each bucket drew.
        let filler_base = (scratch.len() - cap) / b;
        for k in 0..nb {
            let cells: Vec<Cell> = (0..b)
                .map(|_| Some(Element::new(FILLER_BIT | k as u64, 0)))
                .collect();
            store.try_store_block(&scratch, filler_base + k, Block::from_cells(&cells))?;
        }

        // Pass 5 — sort by destination bucket under a fresh epoch salt;
        // within a bucket reals sort before fillers, dummies last.
        let salt = self.next_rand();
        let cmp = move |x: &Cell, y: &Cell| -> Ordering {
            let rank = |e: &Element| -> (usize, u8) {
                if e.key & PAD_KEY != 0 {
                    (usize::MAX, 2)
                } else if e.key & FILLER_BIT != 0 {
                    ((e.key & !FILLER_BIT) as usize, 1)
                } else {
                    (bucket_of(hash64(e.key, salt), nb), 0)
                }
            };
            match (x, y) {
                (Some(ex), Some(ey)) => rank(ex).cmp(&rank(ey)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            }
        };
        self.sorter.try_sort_by(store, &scratch, m, &cmp)?;

        // Pass 6 — keep the first B candidates of every bucket (reals
        // preferentially, since they sort first); overflowing reals go to
        // the client stash, surplus fillers and all pads vanish. Fixed
        // sweep, every block written back.
        hint_block_range(store, &scratch, 0, nblocks);
        let mut cur_bucket = usize::MAX;
        let mut kept = 0usize;
        for k in 0..nblocks {
            let mut blk = store.try_load_block(&scratch, k)?;
            for s in 0..blk.len() {
                if let Some(e) = blk.get(s) {
                    if e.key & PAD_KEY != 0 {
                        blk.set(s, None);
                        continue;
                    }
                    let (bucket, filler) = if e.key & FILLER_BIT != 0 {
                        ((e.key & !FILLER_BIT) as usize, true)
                    } else {
                        (bucket_of(hash64(e.key, salt), nb), false)
                    };
                    if bucket != cur_bucket {
                        cur_bucket = bucket;
                        kept = 0;
                    }
                    if kept < b {
                        kept += 1;
                    } else {
                        if !filler {
                            self.stash.push((e.key, e.payload));
                        }
                        blk.set(s, None);
                    }
                }
            }
            store.try_store_block(&scratch, k, blk)?;
        }

        // Pass 7 — order-preserving compaction. Exactly B kept cells per
        // bucket, in bucket order, so the compacted prefix position of a
        // cell is bucket·B + rank: the prefix IS the new table image.
        // Retries belong to the store this access was given (`try_access`
        // wraps it in a `RetryingStore`), so the compaction adds none.
        let (report, _) = try_compact(store, &scratch, m, RetryPolicy::no_retries())?;
        debug_assert_eq!(
            report.occupied, cap,
            "every bucket must keep exactly B cells"
        );

        // Pass 8 — copy the prefix into the level's table and commit the
        // new epoch.
        let table = self.levels[j].table;
        hint_block_range(store, &scratch, 0, nb);
        for k in 0..nb {
            let blk = store.try_load_block(&scratch, k)?;
            store.try_store_block(&table, k, blk)?;
        }
        self.levels[j].salt = salt;
        self.levels[j].occupied = true;
        Ok(())
    }

    /// Streams level `i`'s table into `scratch` starting at block `off`,
    /// repacking keys with priority `prio` and dropping filler cells.
    /// Returns the next free block offset.
    fn copy_level_into_scratch<S: BlockStore>(
        &self,
        store: &mut S,
        i: usize,
        scratch: &ArrayHandle,
        off: usize,
        prio: u8,
    ) -> Result<usize, StoreError> {
        let table = self.levels[i].table;
        let nb = self.levels[i].nb;
        hint_block_range(store, &table, 0, nb);
        for k in 0..nb {
            let mut blk = store.try_load_block(&table, k)?;
            for s in 0..blk.len() {
                let new = match blk.get(s) {
                    // A committed table is always full — B reals+fillers
                    // per bucket — so repacking fillers as pads keeps the
                    // collected occupancy at exactly the table capacity.
                    Some(e) if e.key & FILLER_BIT != 0 => Some(Element::new(PAD_KEY, 0)),
                    Some(e) => Some(Element::new(pack_key(e.key, prio), e.payload)),
                    None => None,
                };
                blk.set(s, new);
            }
            store.try_store_block(scratch, off + k, blk)?;
        }
        Ok(off + nb)
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.rng)
    }

    /// The address-space size `n`.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the address space is empty (never true: `new` requires
    /// `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of levels in the hierarchy.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The flush period `P`.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total flushes (rebuilds) performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Current client stash size (bucket-overflow reals awaiting the next
    /// flush).
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Client slot budget per flush (cache + stash capacity in cells).
    pub fn client_slots(&self) -> usize {
        self.client_slots
    }

    /// The server-side block layout, level by level.
    pub fn geometry(&self) -> Vec<LevelGeometry> {
        self.levels
            .iter()
            .enumerate()
            .map(|(j, lvl)| LevelGeometry {
                level: j,
                cap: lvl.cap,
                occupied: lvl.occupied,
                table_base: lvl.table.global_block(0),
                table_blocks: lvl.table.n_blocks(),
                scratch_base: lvl.scratch.global_block(0),
                scratch_blocks: lvl.scratch.n_blocks(),
            })
            .collect()
    }

    /// Rewrites a captured trace so every probe into a level's table reads
    /// as that table's base block. Which *bucket* a probe hits is the only
    /// data-driven part of an access trace (it is uniformly random under
    /// the epoch salt); after canonicalization, traces of same-length
    /// request sequences are byte-identical under the bitonic engine.
    pub fn canonicalize_trace(&self, trace: &AccessTrace) -> AccessTrace {
        trace
            .iter()
            .map(|ev| {
                let mut addr = ev.addr;
                for lvl in &self.levels {
                    let base = lvl.table.global_block(0);
                    if addr >= base && addr < base + lvl.table.n_blocks() {
                        addr = base;
                        break;
                    }
                }
                AccessEvent { op: ev.op, addr }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::ExtMem;
    use std::collections::HashMap;

    fn small_cfg(seed: u64) -> OramConfig {
        OramConfig::new(8, 64, seed)
    }

    #[test]
    fn reads_and_writes_round_trip_against_a_mirror() {
        let mut store = ExtMem::new(8);
        let n = 64u64;
        let mut oram = Oram::new(&mut store, n, &small_cfg(7));
        let mut mirror: HashMap<u64, u64> = HashMap::new();
        for k in 0..600u64 {
            let addr = hash64(k, 0xACCE55) % n;
            if k % 3 == 0 {
                let v = hash64(k, 0xDA7A) >> 1;
                oram.write(&mut store, addr, v);
                mirror.insert(addr, v);
            } else {
                let got = oram.read(&mut store, addr);
                let want = mirror.get(&addr).copied().unwrap_or(0);
                assert_eq!(got, want, "access {k} addr {addr}");
            }
        }
        assert_eq!(oram.accesses(), 600);
        assert_eq!(oram.flushes(), 75);
    }

    #[test]
    fn unwritten_addresses_read_zero() {
        let mut store = ExtMem::new(8);
        let mut oram = Oram::new(&mut store, 32, &small_cfg(1));
        for addr in 0..32u64 {
            assert_eq!(oram.read(&mut store, addr), 0);
        }
    }

    #[test]
    fn geometry_is_block_aligned_and_geometric() {
        let mut store = ExtMem::new(8);
        let oram = Oram::new(&mut store, 64, &small_cfg(3));
        let geo = oram.geometry();
        assert!(geo.len() >= 2);
        for (j, g) in geo.iter().enumerate() {
            assert_eq!(g.level, j);
            assert_eq!(g.cap % 8, 0);
            assert_eq!(g.table_blocks, g.cap / 8);
            assert!(!g.occupied, "fresh ORAM has no occupied level");
            if j > 0 {
                assert_eq!(g.cap, geo[j - 1].cap * 2, "geometric growth");
            }
        }
        // The deepest level fits the whole address space at load factor
        // 1/2.
        assert!(geo.last().unwrap().cap >= 2 * 64);
    }

    #[test]
    fn target_level_follows_the_binary_counter() {
        assert_eq!(Oram::target_level(1, 4), 0);
        assert_eq!(Oram::target_level(2, 4), 1);
        assert_eq!(Oram::target_level(3, 4), 0);
        assert_eq!(Oram::target_level(4, 4), 2);
        assert_eq!(Oram::target_level(8, 4), 3);
        // Clamped at the deepest level: it rebuilds into itself.
        assert_eq!(Oram::target_level(16, 4), 3);
        assert_eq!(Oram::target_level(24, 4), 3);
    }

    #[test]
    fn bitonic_and_bucket_rebuilds_agree() {
        let n = 64u64;
        let run = |sorter: OblivSorter| -> Vec<u64> {
            let mut store = ExtMem::new(8);
            let mut oram = Oram::new(&mut store, n, &small_cfg(9).with_sorter(sorter));
            for k in 0..300u64 {
                let addr = hash64(k, 0x5E0) % n;
                if k % 2 == 0 {
                    oram.write(&mut store, addr, k + 1);
                } else {
                    oram.read(&mut store, addr);
                }
            }
            (0..n).map(|a| oram.read(&mut store, a)).collect()
        };
        assert_eq!(
            run(OblivSorter::Bitonic),
            run(OblivSorter::bucket(0xB0CCE7))
        );
    }

    #[test]
    fn out_of_range_addresses_are_typed_errors_on_the_try_path() {
        let mut store = ExtMem::new(8);
        let mut oram = Oram::new(&mut store, 16, &small_cfg(2));
        let err = oram
            .try_read(&mut store, 16, RetryPolicy::default())
            .expect_err("address 16 is out of 0..16");
        assert!(matches!(err, OdoError::InvalidArgument { .. }));
        // The client is not poisoned by argument validation.
        let (v, _) = oram
            .try_read(&mut store, 15, RetryPolicy::default())
            .unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn an_overfull_stash_is_a_typed_error_before_the_rebuild_writes() {
        let mut store = ExtMem::new(8);
        let cfg = small_cfg(4);
        let mut oram = Oram::new(&mut store, 64, &cfg);
        // More overflowed reals than the client slots hold, beside the
        // entries the next `period` accesses cache.
        let slots = oram.client_slots();
        oram.stash.extend((0..slots as u64).map(|a| (a % 64, a)));
        for addr in 0..cfg.period as u64 - 1 {
            oram.try_read(&mut store, addr, RetryPolicy::default())
                .unwrap();
        }
        let before = store.stats();
        let err = oram
            .try_read(&mut store, 63, RetryPolicy::default())
            .expect_err("the flush cannot place the client state");
        assert_eq!(
            err,
            OdoError::StashOverflow {
                items: slots + cfg.period,
                slots
            }
        );
        assert_eq!(store.stats().writes, before.writes, "nothing was written");
        assert_eq!(oram.stash_len(), slots, "the stash was not cleared");
        assert_eq!(oram.flushes(), 0);
        assert!(matches!(
            oram.try_read(&mut store, 0, RetryPolicy::default()),
            Err(OdoError::InvalidState { .. })
        ));
    }
}

//! Deterministic fault injection: the adversarial/unreliable server.
//!
//! [`FaultyStore`] wraps any [`BlockStore`] and misbehaves on a seeded,
//! reproducible schedule. Five fault lanes, each with an independent per-op
//! rate in parts per million:
//!
//! * **transient read** — the operation fails with
//!   [`StoreError::Transient`]; the server's state is untouched and a retry
//!   (a fresh op) draws fresh fault coins.
//! * **transient write** — the write fails with [`StoreError::Transient`]
//!   before it reaches the server (a request lost on the way): nothing is
//!   written and no I/O is charged, so the layers above, which count a
//!   write as landed by the I/O counters, see it as not written. A retry
//!   draws fresh coins.
//! * **corrupt read** — the served block is tampered with: a flipped key
//!   bit, a toggled occupancy flag, or a fabricated element. The wrapper
//!   sits *above* the encryption layer, so a plaintext-image flip here is
//!   exactly what a ciphertext bit flip under a stream cipher produces.
//! * **stale read** — the server replays the previous version of the block
//!   (a rollback attack). If there is no *materially* older version — the
//!   block was never rewritten, or was rewritten with identical content —
//!   the fault is vacuous and nothing is recorded.
//! * **drop write** — the server claims success but keeps its old content
//!   (the write is lost). The I/O is still charged: the client paid for a
//!   round trip it cannot distinguish from a real write. Dropping a write
//!   that would not have changed the content is unobservable and is not
//!   recorded.
//!
//! **Determinism.** Whether lane `L` fires on operation `t` is
//! `bucket_of(hash64(t, seed ⊕ salt_L), 10^6) < rate_L` — a function of the
//! seed and the *operation index only*, never of addresses or data. Two runs
//! with the same seed and the same operation count therefore see byte-for-byte
//! identical fault schedules; and because oblivious algorithms issue the same
//! number of operations for any same-shape input, injected faults (and the
//! retries they trigger) cannot make traces data-dependent. The fault battery
//! asserts both properties.
//!
//! Every other access — including a faulted one — first performs the
//! underlying I/O, so accounting and the adversary-visible trace stay faithful to what
//! a real client would observe.
//!
//! **The span path.** The span ops keep their per-block defaults, so a span
//! makes one fault decision per block, consuming op indices in address
//! order — the exact schedule the block-at-a-time path consumes, so a span
//! injects bit-identical faults (asserted by a test).

use std::collections::HashMap;

use crate::block::Block;
use crate::element::{Cell, Element};
use crate::error::StoreError;
use crate::mem::{ArrayHandle, IoStats};
use crate::store::BlockStore;
use crate::util::{bucket_of, hash64};

/// How many past versions of each block the simulated adversary remembers
/// for stale replays.
const HISTORY_CAP: usize = 4;

const PPM: usize = 1_000_000;

const LANE_TRANSIENT: u64 = 0x7452_414E_5349_454E; // "TRANSIEN"
const LANE_CORRUPT: u64 = 0x434F_5252_5550_5421; // "CORRUPT!"
const LANE_STALE: u64 = 0x5354_414C_4552_4550; // "STALEREP"
const LANE_DROP: u64 = 0x4452_4F50_5752_4954; // "DROPWRIT"
const LANE_TRANSIENT_WRITE: u64 = 0x5457_5249_5445_4641; // "TWRITEFA"
const LANE_MUTATE: u64 = 0x4D55_5441_5445_2121; // slot/bit choice for corruption

/// Per-lane fault rates in parts per million of operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Rate at which reads fail with [`StoreError::Transient`].
    pub transient_read_ppm: u32,
    /// Rate at which served blocks are corrupted.
    pub corrupt_read_ppm: u32,
    /// Rate at which reads replay the previous block version.
    pub stale_read_ppm: u32,
    /// Rate at which writes are silently dropped.
    pub drop_write_ppm: u32,
    /// Rate at which writes fail with [`StoreError::Transient`] before
    /// reaching the server.
    pub transient_write_ppm: u32,
}

impl FaultSpec {
    /// A spec that injects nothing: the wrapper becomes a transparent
    /// pass-through (used to populate or verify without interference).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether every lane is disabled.
    pub fn is_none(&self) -> bool {
        *self == FaultSpec::default()
    }
}

/// Which fault fired, for the schedule log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A read failed transiently.
    TransientRead,
    /// A served block was corrupted.
    CorruptRead,
    /// A read replayed an earlier version.
    StaleRead,
    /// A write was dropped.
    DropWrite,
    /// A write failed transiently, unwritten.
    TransientWrite,
}

/// Counts of injected faults by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads failed transiently.
    pub transient_reads: u64,
    /// Blocks served corrupted.
    pub corrupt_reads: u64,
    /// Reads served stale.
    pub stale_reads: u64,
    /// Writes dropped.
    pub dropped_writes: u64,
    /// Writes failed transiently.
    pub transient_writes: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.transient_reads
            + self.corrupt_reads
            + self.stale_reads
            + self.dropped_writes
            + self.transient_writes
    }

    /// Faults that tamper with data (everything except transients); if this
    /// is nonzero, an authenticated client must have returned an error.
    pub fn tampering(&self) -> u64 {
        self.corrupt_reads + self.stale_reads + self.dropped_writes
    }
}

/// Tampers with one slot of `blk`, all choices drawn from `coin` (never from
/// the data).
fn corrupt_with(coin: u64, blk: &mut Block) {
    let slot = bucket_of(coin, blk.len().max(1));
    match blk.get(slot) {
        Some(e) if coin & 1 == 0 => {
            // Flip one key bit (a ciphertext bit flip in the key word).
            let bit = (coin >> 8) % 64;
            blk.set(slot, Some(Element::new(e.key ^ (1 << bit), e.payload)));
        }
        Some(_) => {
            // Toggle the occupancy flag: the element vanishes.
            blk.set(slot, None);
        }
        None => {
            // Fabricate an element out of keystream garbage (payload kept
            // to 63 bits so re-encryption of the tampered image is
            // representable).
            blk.set(slot, Some(Element::new(coin, coin >> 1)));
        }
    }
}

/// A seeded, deterministic fault-injection wrapper over any [`BlockStore`].
/// See the module docs for the fault model and the determinism argument.
#[derive(Debug)]
pub struct FaultyStore<S: BlockStore> {
    inner: S,
    seed: u64,
    spec: FaultSpec,
    op_counter: u64,
    stats: FaultStats,
    /// Recent versions of each block (by global address) as they passed
    /// through this layer — the adversary's replay material.
    history: HashMap<usize, Vec<Block>>,
    /// `(op index, kind)` for every injected fault, in order.
    log: Vec<(u64, FaultKind)>,
}

impl<S: BlockStore> FaultyStore<S> {
    /// Wraps `inner`; faults fire on the schedule derived from `seed` at the
    /// rates in `spec`.
    pub fn new(inner: S, seed: u64, spec: FaultSpec) -> Self {
        FaultyStore {
            inner,
            seed,
            spec,
            op_counter: 0,
            stats: FaultStats::default(),
            history: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store (e.g. to reach trace capture on
    /// the encryption layer below).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Replaces the fault rates (the op counter and seed are untouched, so
    /// the schedule stays aligned with the operation index).
    pub fn set_spec(&mut self, spec: FaultSpec) {
        self.spec = spec;
    }

    /// The active fault rates.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The full fault schedule so far: `(op index, kind)` per injected fault.
    pub fn fault_log(&self) -> &[(u64, FaultKind)] {
        &self.log
    }

    /// Operations (reads + writes) issued through this wrapper so far.
    pub fn ops_issued(&self) -> u64 {
        self.op_counter
    }

    fn fires(&self, op: u64, lane: u64, ppm: u32) -> bool {
        ppm > 0 && bucket_of(hash64(op, self.seed ^ lane), PPM) < ppm as usize
    }

    fn record(&mut self, op: u64, kind: FaultKind) {
        match kind {
            FaultKind::TransientRead => self.stats.transient_reads += 1,
            FaultKind::CorruptRead => self.stats.corrupt_reads += 1,
            FaultKind::StaleRead => self.stats.stale_reads += 1,
            FaultKind::DropWrite => self.stats.dropped_writes += 1,
            FaultKind::TransientWrite => self.stats.transient_writes += 1,
        }
        self.log.push((op, kind));
    }

    /// Tampers with one slot of `blk`, choosing the slot and mutation from
    /// the op index (never from the data).
    fn corrupt(&self, op: u64, blk: &mut Block) {
        corrupt_with(hash64(op, self.seed ^ LANE_MUTATE), blk);
    }

    fn current_content(&self, addr: usize) -> Option<Block> {
        self.history.get(&addr).and_then(|v| v.last().cloned())
    }

    fn push_history(&mut self, addr: usize, blk: Block) {
        let versions = self.history.entry(addr).or_default();
        if versions.len() == HISTORY_CAP {
            versions.remove(0);
        }
        versions.push(blk);
    }
}

impl<S: BlockStore> BlockStore for FaultyStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
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
        let addr = h.checked_block(i)?;
        let op = self.op_counter;
        self.op_counter += 1;
        // The round trip happens (and is charged) before any fault is
        // decided, exactly as a real failing server would behave.
        let honest = self.inner.try_load_block(h, i)?;
        if self.fires(op, LANE_TRANSIENT, self.spec.transient_read_ppm) {
            self.record(op, FaultKind::TransientRead);
            return Err(StoreError::Transient { addr });
        }
        let mut served = honest;
        if self.fires(op, LANE_STALE, self.spec.stale_read_ppm) {
            if let Some(versions) = self.history.get(&addr) {
                // Replaying a version whose content equals the current one is
                // unobservable (oblivious algorithms rewrite unchanged blocks
                // all the time) and harmless, so only a *materially* older
                // version counts as an injected fault.
                if versions.len() >= 2
                    && versions[versions.len() - 2] != versions[versions.len() - 1]
                {
                    served = versions[versions.len() - 2].clone();
                    self.record(op, FaultKind::StaleRead);
                }
            }
        }
        if self.fires(op, LANE_CORRUPT, self.spec.corrupt_read_ppm) {
            let mut tampered = served.clone();
            self.corrupt(op, &mut tampered);
            served = tampered;
            self.record(op, FaultKind::CorruptRead);
        }
        Ok(served)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_write(i, &blk)?;
        let op = self.op_counter;
        self.op_counter += 1;
        if self.fires(op, LANE_TRANSIENT_WRITE, self.spec.transient_write_ppm) {
            self.record(op, FaultKind::TransientWrite);
            return Err(StoreError::Transient { addr });
        }
        if self.fires(op, LANE_DROP, self.spec.drop_write_ppm) {
            let current = self
                .current_content(addr)
                .unwrap_or_else(|| Block::empty(self.inner.block_elems()));
            // Dropping a write that would not have changed the content is
            // unobservable, so it does not count as an injected fault — only
            // a *material* drop does. Either way the server acknowledges,
            // the I/O is charged, and the logical content stays `current`.
            if blk != current {
                self.inner.try_store_block(h, i, current)?;
                self.record(op, FaultKind::DropWrite);
                return Ok(());
            }
        }
        self.inner.try_store_block(h, i, blk.clone())?;
        self.push_history(addr, blk);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Cell;
    use crate::mem::ExtMem;

    fn cells(n: u64) -> Vec<Cell> {
        (0..n).map(|k| Some(Element::new(k, k))).collect()
    }

    fn all_faults() -> FaultSpec {
        FaultSpec {
            transient_read_ppm: 120_000,
            corrupt_read_ppm: 90_000,
            stale_read_ppm: 80_000,
            drop_write_ppm: 70_000,
            transient_write_ppm: 60_000,
        }
    }

    /// Drives a fixed workload and returns (log, stats, every served cell).
    fn run_workload(seed: u64) -> (Vec<(u64, FaultKind)>, FaultStats, Vec<Cell>) {
        let mut s = FaultyStore::new(ExtMem::new(4), seed, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 32);
        s.store_span(&h, 0, &cells(32));
        s.set_spec(all_faults());
        let mut served = Vec::new();
        for round in 0..20u64 {
            for i in 0..8 {
                if let Ok(blk) = s.try_load_block(&h, i) {
                    served.extend_from_slice(blk.slots());
                }
                let mut blk = Block::empty(4);
                blk.set(0, Some(Element::new(round, i as u64)));
                let _ = s.try_store_block(&h, i, blk);
            }
        }
        (s.fault_log().to_vec(), s.fault_stats(), served)
    }

    #[test]
    fn same_seed_gives_byte_identical_fault_schedules() {
        let (log1, stats1, served1) = run_workload(0xFEED);
        let (log2, stats2, served2) = run_workload(0xFEED);
        assert_eq!(log1, log2);
        assert_eq!(stats1, stats2);
        assert_eq!(served1, served2);
        assert!(stats1.total() > 0, "the rates are high enough to fire");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let (log1, ..) = run_workload(0xFEED);
        let (log2, ..) = run_workload(0xBEEF);
        assert_ne!(log1, log2);
    }

    #[test]
    fn a_transient_write_fails_unwritten_and_uncharged() {
        let mut s = FaultyStore::new(ExtMem::new(4), 3, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 8);
        s.store_span(&h, 0, &cells(8));
        s.set_spec(FaultSpec {
            transient_write_ppm: 1_000_000,
            ..FaultSpec::none()
        });
        let before = s.io_stats();
        let err = s.try_store_block(&h, 1, Block::empty(4)).unwrap_err();
        assert_eq!(err, StoreError::Transient { addr: 1 });
        assert_eq!(s.io_stats(), before, "nothing reached the server");
        assert_eq!(s.fault_log(), [(2, FaultKind::TransientWrite)]);
        assert_eq!(s.fault_stats().transient_writes, 1);
        assert_eq!(s.fault_stats().tampering(), 0);
        s.set_spec(FaultSpec::none());
        assert_eq!(s.load_span(&h, 0, 8), cells(8), "the old content stays");
    }

    #[test]
    fn none_spec_is_a_transparent_passthrough() {
        let mut s = FaultyStore::new(ExtMem::new(4), 1, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 16);
        s.store_span(&h, 0, &cells(16));
        assert_eq!(s.load_span(&h, 0, 16), cells(16));
        assert_eq!(s.fault_stats().total(), 0);
        assert!(s.fault_log().is_empty());
    }

    #[test]
    fn dropped_write_keeps_old_content_but_charges_io() {
        // Fire the drop lane on every write.
        let spec = FaultSpec {
            drop_write_ppm: PPM as u32,
            ..FaultSpec::none()
        };
        let mut s = FaultyStore::new(ExtMem::new(4), 7, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 4);
        let mut v1 = Block::empty(4);
        v1.set(0, Some(Element::new(11, 0)));
        s.try_store_block(&h, 0, v1.clone()).unwrap();
        let writes_before = s.io_stats().writes;
        s.set_spec(spec);
        let mut v2 = Block::empty(4);
        v2.set(0, Some(Element::new(22, 0)));
        s.try_store_block(&h, 0, v2).unwrap();
        assert_eq!(s.fault_stats().dropped_writes, 1);
        assert_eq!(
            s.io_stats().writes,
            writes_before + 1,
            "the lost write still cost a round trip"
        );
        s.set_spec(FaultSpec::none());
        assert_eq!(s.try_load_block(&h, 0).unwrap(), v1, "content unchanged");
    }

    #[test]
    fn stale_read_replays_the_previous_version() {
        let mut s = FaultyStore::new(ExtMem::new(4), 3, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 4);
        let mut v1 = Block::empty(4);
        v1.set(0, Some(Element::new(1, 0)));
        let mut v2 = Block::empty(4);
        v2.set(0, Some(Element::new(2, 0)));
        s.try_store_block(&h, 0, v1.clone()).unwrap();
        s.try_store_block(&h, 0, v2.clone()).unwrap();
        s.set_spec(FaultSpec {
            stale_read_ppm: PPM as u32,
            ..FaultSpec::none()
        });
        assert_eq!(s.try_load_block(&h, 0).unwrap(), v1, "v1 replayed");
        assert_eq!(s.fault_stats().stale_reads, 1);
        s.set_spec(FaultSpec::none());
        assert_eq!(s.try_load_block(&h, 0).unwrap(), v2, "server still at v2");
    }

    #[test]
    fn stale_read_is_vacuous_without_an_older_version() {
        let mut s = FaultyStore::new(
            ExtMem::new(4),
            3,
            FaultSpec {
                stale_read_ppm: PPM as u32,
                ..FaultSpec::none()
            },
        );
        let h = BlockStore::alloc_array(&mut s, 4);
        let blk = s.try_load_block(&h, 0).unwrap();
        assert!(blk.is_all_dummy());
        assert_eq!(s.fault_stats().stale_reads, 0, "nothing to replay");
    }

    #[test]
    fn corrupt_read_tampers_with_the_served_block_only() {
        let mut s = FaultyStore::new(ExtMem::new(4), 9, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut s, 4);
        s.store_span(&h, 0, &cells(4));
        s.set_spec(FaultSpec {
            corrupt_read_ppm: PPM as u32,
            ..FaultSpec::none()
        });
        let tampered = s.try_load_block(&h, 0).unwrap();
        assert_ne!(tampered.slots(), s.inner().snapshot_cells(&h).as_slice());
        assert_eq!(s.fault_stats().corrupt_reads, 1);
        s.set_spec(FaultSpec::none());
        assert_eq!(
            s.load_span(&h, 0, 4),
            cells(4),
            "the stored data itself was never modified"
        );
    }

    #[test]
    fn transient_read_fails_but_charges_the_io() {
        let mut s = FaultyStore::new(
            ExtMem::new(4),
            5,
            FaultSpec {
                transient_read_ppm: PPM as u32,
                ..FaultSpec::none()
            },
        );
        let h = BlockStore::alloc_array(&mut s, 4);
        let before = s.io_stats().reads;
        let err = s.try_load_block(&h, 0).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(s.io_stats().reads, before + 1);
    }

    #[test]
    fn infallible_path_panics_on_injected_fault() {
        let mut s = FaultyStore::new(
            ExtMem::new(4),
            5,
            FaultSpec {
                transient_read_ppm: PPM as u32,
                ..FaultSpec::none()
            },
        );
        let h = BlockStore::alloc_array(&mut s, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.load_block(&h, 0)));
        assert!(r.is_err());
    }

    // --- the span path ---

    use crate::crypto::EncryptedStore;
    use crate::file::FileStore;

    fn faulty_file(seed: u64, spec: FaultSpec) -> FaultyStore<EncryptedStore<FileStore>> {
        let enc = EncryptedStore::with_backing(FileStore::temp(4).unwrap(), 0xA11CE);
        FaultyStore::new(enc, seed, spec)
    }

    #[test]
    fn span_writes_inject_the_identical_fault_schedule() {
        // Same seed, same spec, same writes — once block at a time, once as
        // spans. The decomposed run must consume the same op indices and
        // inject bit-identical faults, leaving identical server content.
        let spec = FaultSpec {
            drop_write_ppm: 400_000,
            ..FaultSpec::none()
        };
        let n_cells = 64u64;
        let b = 4;

        let mut one = faulty_file(0xD15C, spec);
        let h1 = one.alloc_array(n_cells as usize);
        for (i, chunk) in cells(n_cells).chunks(b).enumerate() {
            one.try_store_block(&h1, i, Block::from_cells(chunk))
                .unwrap();
        }

        let mut run = faulty_file(0xD15C, spec);
        let h2 = run.alloc_array(n_cells as usize);
        run.try_store_span(&h2, 0, &cells(n_cells)).unwrap();

        assert_eq!(one.ops_issued(), run.ops_issued());
        assert_eq!(one.fault_log(), run.fault_log());
        assert!(
            !run.fault_log().is_empty(),
            "the schedule must actually fire at this rate"
        );
        // Server content identical: read back fault-free.
        one.set_spec(FaultSpec::none());
        run.set_spec(FaultSpec::none());
        for i in 0..h1.n_blocks() {
            assert_eq!(
                one.try_load_block(&h1, i).unwrap(),
                run.try_load_block(&h2, i).unwrap(),
                "block {i} diverged between the span and block paths"
            );
        }
    }

    #[test]
    fn span_reads_inject_the_identical_fault_schedule() {
        // Same seed, same spec, same reads — once block at a time, once as
        // one span per stretch. A span consumes one op index per block in
        // address order, so both see the same faults, and a span stops at
        // its first transient exactly where the block loop does.
        let spec = FaultSpec {
            transient_read_ppm: 60_000,
            corrupt_read_ppm: 200_000,
            ..FaultSpec::none()
        };
        let mut one = faulty_file(0xBAD5EC, FaultSpec::none());
        let mut run = faulty_file(0xBAD5EC, FaultSpec::none());
        let h1 = one.alloc_array(64);
        let h2 = run.alloc_array(64);
        one.try_store_span(&h1, 0, &cells(64)).unwrap();
        run.try_store_span(&h2, 0, &cells(64)).unwrap();
        one.set_spec(spec);
        run.set_spec(spec);
        for _ in 0..4 {
            let mut by_block = Vec::new();
            let mut failed = None;
            for i in 0..h1.n_blocks() {
                match one.try_load_block(&h1, i) {
                    Ok(blk) => by_block.extend_from_slice(blk.slots()),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            let span = run.try_load_span(&h2, 0, 64);
            match failed {
                Some(e) => assert_eq!(span, Err(e)),
                None => assert_eq!(span, Ok(by_block)),
            }
            assert_eq!(one.ops_issued(), run.ops_issued());
        }
        assert_eq!(one.fault_log(), run.fault_log());
        assert!(
            run.fault_stats().transient_reads > 0 && run.fault_stats().corrupt_reads > 0,
            "the schedule fires both lanes at these rates"
        );
    }
}

//! [`FileStore`]: the block server over a real file — wall-clock external
//! memory.
//!
//! Every other store in this crate ultimately bottoms out in the in-memory
//! [`ExtMem`](crate::mem::ExtMem) arena, which counts I/Os but costs
//! nanoseconds per "I/O". `FileStore` implements the same [`BlockStore`]
//! interface over a single preallocated file, so the paper's `O(N/B)`-style
//! bounds can be measured in *seconds*: every `load_block`/`store_block` is a
//! positioned read/write (`pread`/`pwrite`) of one `B`-cell block image.
//!
//! Addressing is identical to `ExtMem` — arrays are allocated back-to-back
//! and a handle's local block `i` lives at global address
//! `start_block + i`, at byte offset `addr · 24B` — so the access trace a
//! `FileStore` records is **byte-identical** to the trace `ExtMem` records
//! for the same algorithm run (the bench harness and the trace-parity test
//! battery assert this at every grid point).
//!
//! # On-disk encoding
//!
//! Each cell is 24 bytes, little-endian: an occupancy word (`0` dummy, `1`
//! occupied — anything else fails decoding as
//! [`StoreError::Corrupted`]), the 64-bit key, and the 64-bit payload. A
//! zero-filled file region therefore decodes to all-dummy blocks, which is
//! exactly what a freshly allocated (`ftruncate`-extended) array must read
//! as. Unlike the [encrypted encoding](crate::crypto::EncryptedStore), the
//! full 64-bit payload range is representable.
//!
//! # Fallible operations
//!
//! The `try_*` path maps real [`std::io::Error`]s to typed [`StoreError`]s:
//! retryable kinds (`Interrupted`, `TimedOut`, `WouldBlock`) become
//! [`StoreError::Transient`], truncated or garbled block images become
//! [`StoreError::Corrupted`], and everything else surfaces as
//! [`StoreError::Io`] with the offending [`std::io::ErrorKind`].
//!
//! # Crash injection
//!
//! [`FileStore::crash_after_writes`] arms a panic hook that aborts the
//! process-level computation (via the typed [`InjectedCrash`] payload) after
//! a given number of further block writes — mid-pass, with the file left
//! torn. The crash-consistency tests use this to check that an
//! [`AuthenticatedStore`](crate::auth::AuthenticatedStore) reopening the
//! file detects the torn state as `Corrupted`/`Stale` rather than serving
//! stale data.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::arena::BlockArena;
use crate::block::Block;
use crate::element::{Cell, Element};
use crate::error::StoreError;
use crate::mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, IoStats};
use crate::prefetch::{PrefetchRead, Prefetchable};
use crate::store::{BackingStore, BlockStore};

/// Bytes per cell on disk: occupancy word, key, payload.
pub const CELL_BYTES: usize = 24;

/// Typed panic payload of an injected crash (see
/// [`FileStore::crash_after_writes`]), so tests can catch the unwind and
/// positively identify the simulated power-cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash;

/// Replaces the panic hook with one that stays silent for [`InjectedCrash`]
/// unwinds (deliberate simulated power-cuts, caught by the crash-consistency
/// tests), deferring to the previous hook for everything else. Call once at
/// binary start-up; tests don't need it because the harness captures panic
/// output.
pub fn install_quiet_abort_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedCrash>().is_none() {
            previous(info);
        }
    }));
}

/// Byte offset of global block `addr` with `bytes` bytes per block,
/// computed with both operands widened to `u64` *before* the multiply.
/// `(addr * bytes) as u64` wraps silently in `usize` on 32-bit targets once
/// a geometry crosses 4 GiB and then reads or writes the wrong block; the
/// widened checked form cannot, and a product that genuinely exceeds `u64`
/// (no real file can) panics loudly instead of truncating.
#[inline]
fn byte_offset(addr: usize, bytes: usize) -> u64 {
    (addr as u64)
        .checked_mul(bytes as u64)
        .expect("file byte offset overflows u64")
}

/// Maps a real OS error to the typed [`StoreError`] vocabulary.
fn map_io_err(addr: usize, e: &io::Error) -> StoreError {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            StoreError::Transient { addr }
        }
        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData => StoreError::Corrupted { addr },
        kind => StoreError::Io { addr, kind },
    }
}

/// Decodes one block image; the buffer is drawn from `arena`.
pub(crate) fn decode_block(
    bytes: &[u8],
    block_elems: usize,
    arena: &BlockArena,
    addr: usize,
) -> Result<Block, StoreError> {
    debug_assert_eq!(bytes.len(), block_elems * CELL_BYTES);
    let mut buf = arena.take(block_elems);
    for (slot, chunk) in buf.iter_mut().zip(bytes.chunks_exact(CELL_BYTES)) {
        let occ = u64::from_le_bytes(chunk[0..8].try_into().expect("8-byte chunk"));
        match occ {
            0 => *slot = None,
            1 => {
                let key = u64::from_le_bytes(chunk[8..16].try_into().expect("8-byte chunk"));
                let payload = u64::from_le_bytes(chunk[16..24].try_into().expect("8-byte chunk"));
                *slot = Some(Element::new(key, payload));
            }
            _ => {
                arena.put(buf);
                return Err(StoreError::Corrupted { addr });
            }
        }
    }
    Ok(Block::from_buffer(buf))
}

/// Encodes a block by *appending* its image to `out` (callers clear first
/// when they want exactly one image; span writers append several).
pub(crate) fn encode_block(blk: &Block, out: &mut Vec<u8>) {
    out.reserve(blk.len() * CELL_BYTES);
    for cell in blk.slots() {
        match cell {
            Some(e) => {
                out.extend_from_slice(&1u64.to_le_bytes());
                out.extend_from_slice(&e.key.to_le_bytes());
                out.extend_from_slice(&e.payload.to_le_bytes());
            }
            None => out.extend_from_slice(&[0u8; CELL_BYTES]),
        }
    }
}

/// A [`BlockStore`] over a single preallocated file. See the module docs.
#[derive(Debug)]
pub struct FileStore {
    file: Arc<File>,
    path: PathBuf,
    block_elems: usize,
    n_blocks: usize,
    stats: IoStats,
    trace: Option<AccessTrace>,
    arena: Arc<BlockArena>,
    scratch: Vec<u8>,
    delete_on_drop: bool,
    /// `Some(n)`: panic with [`InjectedCrash`] when the `n+1`-th further
    /// block write is attempted.
    crash_after: Option<u64>,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FileStore {
    fn from_file(
        file: File,
        path: PathBuf,
        block_elems: usize,
        delete_on_drop: bool,
    ) -> Result<Self, StoreError> {
        assert!(block_elems >= 1, "block size must be at least 1");
        // A stat failure here must surface, not default to an empty store:
        // `unwrap_or(0)` would silently report `n_blocks == 0` and a reopen
        // after a crash would "recover" a store with all its data invisible.
        let len = match file.metadata() {
            Ok(m) => m.len(),
            Err(e) => {
                // On Linux `fstat` on an open descriptor fails essentially
                // only with EBADF — a descriptor already closed elsewhere.
                // Dropping such a `File` double-closes and trips the
                // runtime's IO-safety abort, so the error path must leak the
                // handle rather than drop it.
                let err = map_io_err(0, &e);
                std::mem::forget(file);
                return Err(err);
            }
        };
        let n_blocks = (len / byte_offset(block_elems, CELL_BYTES)) as usize;
        Ok(FileStore {
            file: Arc::new(file),
            path,
            block_elems,
            n_blocks,
            stats: IoStats::default(),
            trace: None,
            arena: BlockArena::new(),
            scratch: Vec::new(),
            delete_on_drop,
            crash_after: None,
        })
    }

    /// Creates (truncating) a store file at `path` with block size
    /// `block_elems`. Open and stat failures surface as typed
    /// [`StoreError`]s.
    pub fn create(path: impl AsRef<Path>, block_elems: usize) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| map_io_err(0, &e))?;
        Self::from_file(file, path, block_elems, false)
    }

    /// Reopens an existing store file (e.g. after a crash); the allocation
    /// high-water mark is recovered from the file length, so a failing stat
    /// is a typed [`StoreError`] — never a silently empty store.
    pub fn open(path: impl AsRef<Path>, block_elems: usize) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| map_io_err(0, &e))?;
        Self::from_file(file, path, block_elems, false)
    }

    /// Wraps an already-open handle (e.g. one received across a privilege
    /// boundary) as a store rooted at `path`. The same recovery rules as
    /// [`FileStore::open`] apply: the allocation high-water mark comes from
    /// `fstat`, and a stat failure (a dead or revoked descriptor) is a typed
    /// [`StoreError`], never an empty store.
    pub fn from_handle(
        file: File,
        path: impl AsRef<Path>,
        block_elems: usize,
    ) -> Result<Self, StoreError> {
        Self::from_file(file, path.as_ref().to_path_buf(), block_elems, false)
    }

    /// Creates a store over a fresh uniquely-named file in the system temp
    /// directory, deleted when the store is dropped.
    pub fn temp(block_elems: usize) -> Result<Self, StoreError> {
        let path = std::env::temp_dir().join(format!(
            "odo-filestore-{}-{}.blocks",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = Self::create(&path, block_elems)?;
        store.delete_on_drop = true;
        Ok(store)
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Block size `B`.
    #[inline]
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Total number of blocks currently allocated in the file.
    #[inline]
    pub fn allocated_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Cumulative I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The buffer pool decoded blocks draw from.
    pub fn arena(&self) -> &Arc<BlockArena> {
        &self.arena
    }

    /// Starts recording the access trace (clearing any previous recording).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the captured trace, if any.
    pub fn take_trace(&mut self) -> Option<AccessTrace> {
        self.trace.take()
    }

    /// Resets the I/O counters (does not clear the trace).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Arms the crash hook: the store performs `writes` more block writes
    /// normally, then panics with the typed [`InjectedCrash`] payload
    /// *instead of* performing the next one — simulating a power cut that
    /// tears the on-disk state mid-pass.
    pub fn crash_after_writes(&mut self, writes: u64) {
        self.crash_after = Some(writes);
    }

    #[inline]
    fn block_bytes(&self) -> usize {
        self.block_elems * CELL_BYTES
    }

    fn record(&mut self, op: AccessOp, addr: usize) {
        match op {
            AccessOp::Read => self.stats.reads += 1,
            AccessOp::Write => self.stats.writes += 1,
        }
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { op, addr });
        }
    }

    fn read_raw(&mut self, addr: usize) -> Result<Block, StoreError> {
        let bytes = self.block_bytes();
        self.scratch.resize(bytes, 0);
        self.file
            .read_exact_at(&mut self.scratch, byte_offset(addr, bytes))
            .map_err(|e| map_io_err(addr, &e))?;
        decode_block(&self.scratch, self.block_elems, &self.arena, addr)
    }

    fn write_raw(&mut self, addr: usize, blk: &Block) -> Result<(), StoreError> {
        assert_eq!(blk.len(), self.block_elems, "block size mismatch");
        if let Some(n) = self.crash_after.as_mut() {
            if *n == 0 {
                std::panic::panic_any(InjectedCrash);
            }
            *n -= 1;
        }
        let bytes = self.block_bytes();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        encode_block(blk, &mut scratch);
        let res = self
            .file
            .write_all_at(&scratch, byte_offset(addr, bytes))
            .map_err(|e| map_io_err(addr, &e));
        self.scratch = scratch;
        res
    }

    /// Allocates an array and fills it from a slice of cells, free of
    /// charge (mirrors [`ExtMem::alloc_array_from_cells`]).
    ///
    /// [`ExtMem::alloc_array_from_cells`]: crate::mem::ExtMem::alloc_array_from_cells
    pub fn alloc_array_from_cells(&mut self, cells: &[Cell]) -> ArrayHandle {
        let h = BlockStore::alloc_array(self, cells.len().max(1));
        let b = self.block_elems;
        for (i, chunk) in cells.chunks(b).enumerate() {
            let mut blk = Block::from_buffer(self.arena.take(b));
            for (j, c) in chunk.iter().enumerate() {
                blk.set(j, *c);
            }
            self.write_raw(h.global_block(i), &blk)
                .unwrap_or_else(|e| panic!("FileStore: initial population failed: {e}"));
            self.arena.put(blk.into_buffer());
        }
        h
    }

    /// Allocates an array and fills it from a slice of elements (all
    /// occupied), free of charge.
    pub fn alloc_array_from_elements(&mut self, items: &[Element]) -> ArrayHandle {
        let cells: Vec<Cell> = items.iter().map(|e| Some(*e)).collect();
        self.alloc_array_from_cells(&cells)
    }

    /// Non-oblivious convenience used by tests and oracles: the whole array
    /// decoded from disk, without charging I/Os or touching the trace.
    pub fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        let bytes = self.block_bytes();
        let mut image = vec![0u8; bytes];
        let mut out = Vec::with_capacity(h.len());
        for i in 0..h.n_blocks() {
            let addr = h.global_block(i);
            self.file
                .read_exact_at(&mut image, byte_offset(addr, bytes))
                .expect("snapshot read failed");
            let blk = decode_block(&image, self.block_elems, &self.arena, addr)
                .unwrap_or_else(|e| panic!("snapshot decode failed: {e}"));
            for j in 0..self.block_elems {
                if out.len() < h.len() {
                    out.push(blk.get(j));
                }
            }
            self.arena.put(blk.into_buffer());
        }
        out
    }

    /// The occupied elements of the array in slot order, free of charge.
    pub fn snapshot_elements(&self, h: &ArrayHandle) -> Vec<Element> {
        self.snapshot_cells(h).into_iter().flatten().collect()
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl BlockStore for FileStore {
    fn block_elems(&self) -> usize {
        self.block_elems
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let start_block = self.n_blocks;
        let nb = len_elements.div_ceil(self.block_elems).max(1);
        self.n_blocks += nb;
        // Preallocate: extending with zeros makes every new block decode as
        // all-dummy, exactly like a fresh ExtMem block.
        self.file
            .set_len(byte_offset(self.n_blocks, self.block_bytes()))
            .expect("FileStore: preallocation (ftruncate) failed");
        ArrayHandle::new_raw(start_block, len_elements, self.block_elems)
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn recycle(&mut self, blk: Block) {
        self.arena.put(blk.into_buffer());
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.checked_block(i)?;
        let blk = self.read_raw(addr)?;
        self.record(AccessOp::Read, addr);
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.checked_block(i)?;
        self.write_raw(addr, &blk)?;
        self.arena.put(blk.into_buffer());
        self.record(AccessOp::Write, addr);
        Ok(())
    }
}

impl BackingStore for FileStore {
    fn enable_trace(&mut self) {
        FileStore::enable_trace(self)
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        FileStore::take_trace(self)
    }

    fn reset_stats(&mut self) {
        FileStore::reset_stats(self)
    }

    fn allocated_blocks(&self) -> usize {
        FileStore::allocated_blocks(self)
    }

    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        FileStore::snapshot_cells(self, h)
    }
}

/// Reader over the same file: positioned reads share the
/// [`Arc<File>`] (no seek cursor is involved), and decoded blocks draw from
/// the same shared [`BlockArena`] as the foreground.
#[derive(Debug)]
pub struct FileReader {
    file: Arc<File>,
    block_elems: usize,
    arena: Arc<BlockArena>,
    scratch: Vec<u8>,
}

impl PrefetchRead for FileReader {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        let bytes = self.block_elems * CELL_BYTES;
        self.scratch.resize(bytes, 0);
        self.file
            .read_exact_at(&mut self.scratch, byte_offset(addr, bytes))
            .map_err(|e| map_io_err(addr, &e))?;
        decode_block(&self.scratch, self.block_elems, &self.arena, addr)
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        let bytes = self.block_elems * CELL_BYTES;
        self.scratch.resize(bytes * count, 0);
        if self
            .file
            .read_exact_at(&mut self.scratch, byte_offset(start, bytes))
            .is_err()
        {
            // The span read can cross damage a per-block read would dodge
            // (e.g. a truncation inside the run); fall back block by block
            // so errors land on the exact address that caused them.
            return (start..start + count).map(|a| self.fetch(a)).collect();
        }
        (0..count)
            .map(|k| {
                decode_block(
                    &self.scratch[k * bytes..(k + 1) * bytes],
                    self.block_elems,
                    &self.arena,
                    start + k,
                )
            })
            .collect()
    }
}

impl Prefetchable for FileStore {
    type Reader = FileReader;

    fn reader(&self) -> FileReader {
        FileReader {
            file: Arc::clone(&self.file),
            block_elems: self.block_elems,
            arena: Arc::clone(&self.arena),
            scratch: Vec::new(),
        }
    }

    fn supports_store_runs(&self) -> bool {
        true
    }

    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        // Crash injection counts individual block writes, so a run must
        // still decrement the fuse once per block — route through the
        // per-block path whenever a crash is armed.
        if self.crash_after.is_some() {
            for (k, blk) in blks.into_iter().enumerate() {
                self.write_raw(start + k, &blk)?;
                self.arena.put(blk.into_buffer());
            }
            return Ok(());
        }
        let bytes = self.block_bytes();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for blk in &blks {
            assert_eq!(blk.len(), self.block_elems, "block size mismatch");
            encode_block(blk, &mut scratch);
        }
        let res = self
            .file
            .write_all_at(&scratch, byte_offset(start, bytes))
            .map_err(|e| map_io_err(start, &e));
        self.scratch = scratch;
        if res.is_err() {
            // Localize the failure: retry block by block so the error names
            // the exact address — and if the retries all land, the run is
            // durable after all.
            for (k, blk) in blks.iter().enumerate() {
                self.write_raw(start + k, blk)?;
            }
        }
        for blk in blks {
            self.arena.put(blk.into_buffer());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: u64) -> Element {
        Element::new(k, k.wrapping_mul(7))
    }

    #[test]
    fn byte_offsets_widen_before_multiplying() {
        // A block address just past the 4 GiB line: in 32-bit `usize`
        // arithmetic `addr * bytes` wraps (the pre-fix code computed the
        // product in `usize` and only then widened), so pin the exact u64
        // the widened form must produce.
        let addr = (1usize << 28) + 3; // with 24-byte cells: > 6 GiB offset
        assert_eq!(byte_offset(addr, CELL_BYTES), (addr as u64) * 24);
        assert_eq!(
            byte_offset(1 << 31, CELL_BYTES),
            (1u64 << 31) * CELL_BYTES as u64
        );
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn byte_offset_panics_on_true_u64_overflow() {
        let _ = byte_offset(usize::MAX, usize::MAX);
    }

    #[test]
    fn roundtrip_through_the_file() {
        let mut fs = FileStore::temp(4).unwrap();
        let h = fs.alloc_array(12);
        let cells: Vec<Cell> = (0..12).map(|k| Some(e(k))).collect();
        fs.store_span(&h, 0, &cells);
        assert_eq!(fs.load_span(&h, 0, 12), cells);
        assert_eq!(fs.snapshot_cells(&h), cells);
    }

    #[test]
    fn fresh_blocks_decode_as_dummies() {
        let mut fs = FileStore::temp(4).unwrap();
        let h = fs.alloc_array(8);
        assert!(fs.load_block(&h, 1).is_all_dummy());
    }

    #[test]
    fn full_64bit_payloads_are_representable() {
        let mut fs = FileStore::temp(2).unwrap();
        let h = fs.alloc_array(2);
        let wide = Element::new(u64::MAX, u64::MAX);
        let mut blk = Block::empty(2);
        blk.set(1, Some(wide));
        fs.store_block(&h, 0, blk);
        assert_eq!(fs.load_block(&h, 0).get(1), Some(wide));
    }

    #[test]
    fn stats_and_trace_match_extmem_semantics() {
        let mut fs = FileStore::temp(2).unwrap();
        fs.enable_trace();
        let a = fs.alloc_array(4); // blocks 0..2
        let b = fs.alloc_array(4); // blocks 2..4
        let _ = fs.load_block(&a, 1);
        fs.store_block(&b, 0, Block::empty(2));
        assert_eq!(
            fs.stats(),
            IoStats {
                reads: 1,
                writes: 1
            }
        );
        assert_eq!(
            fs.take_trace().unwrap(),
            vec![
                AccessEvent {
                    op: AccessOp::Read,
                    addr: 1
                },
                AccessEvent {
                    op: AccessOp::Write,
                    addr: 2
                },
            ]
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let mut fs = FileStore::temp(4).unwrap();
        let path = fs.path().to_path_buf();
        fs.delete_on_drop = false;
        let h = fs.alloc_array_from_elements(&(0..10).map(e).collect::<Vec<_>>());
        drop(fs);
        let reopened = FileStore::open(&path, 4).unwrap();
        assert_eq!(reopened.allocated_blocks(), 3);
        assert_eq!(
            reopened.snapshot_elements(&h),
            (0..10).map(e).collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbled_occupancy_word_is_a_typed_corruption() {
        let mut fs = FileStore::temp(2).unwrap();
        let h = fs.alloc_array(2);
        fs.store_block(&h, 0, Block::empty(2));
        // Flip the occupancy word of slot 0 to an invalid value, bypassing
        // the store (the adversary writes the file directly).
        fs.file.write_all_at(&77u64.to_le_bytes(), 0).unwrap();
        let err = fs.try_load_block(&h, 0).unwrap_err();
        assert_eq!(err, StoreError::Corrupted { addr: 0 });
    }

    #[test]
    fn truncated_file_reads_are_corruption_not_panics() {
        let mut fs = FileStore::temp(2).unwrap();
        let h = fs.alloc_array(8); // 4 blocks
        fs.file.set_len(CELL_BYTES as u64).unwrap(); // tear the file
        let err = fs.try_load_block(&h, 3).unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "got {err:?}");
    }

    #[test]
    fn crash_hook_fires_after_the_armed_write_budget() {
        let mut fs = FileStore::temp(2).unwrap();
        let h = fs.alloc_array(8);
        fs.crash_after_writes(2);
        fs.store_block(&h, 0, Block::empty(2));
        fs.store_block(&h, 1, Block::empty(2));
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.store_block(&h, 2, Block::empty(2));
        }))
        .unwrap_err();
        assert!(crash.downcast_ref::<InjectedCrash>().is_some());
        // The torn write was never performed.
        assert_eq!(fs.stats().writes, 2);
    }

    #[test]
    fn temp_files_are_deleted_on_drop() {
        let fs = FileStore::temp(2).unwrap();
        let path = fs.path().to_path_buf();
        assert!(path.exists());
        drop(fs);
        assert!(!path.exists());
    }
}

//! [`FileStore`]: the block server over a real file — wall-clock external
//! memory.
//!
//! Every other store in this crate ultimately bottoms out in the in-memory
//! [`ExtMem`](crate::mem::ExtMem) arena, which counts I/Os but costs
//! nanoseconds per "I/O". `FileStore` implements the same [`BlockStore`]
//! interface over a single preallocated file, so the paper's `O(N/B)`-style
//! bounds can be measured in *seconds*: every block op is a positioned
//! read/write (`pread`/`pwrite`) of one `B`-cell block image, and a span op
//! moves the blocks it covers whole with one positioned read or write.
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
//! [`BlockStore::alloc_array`] cannot fail, so a failed preallocation
//! (`ftruncate`: disk full, a read-only or revoked descriptor) is recorded
//! instead: every later block or span op that touches the first unbacked
//! block or one past it returns [`StoreError::Io`] with that error's kind.
//! A later preallocation that succeeds backs every block again.
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
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::BlockArena;
use crate::block::Block;
use crate::element::{Cell, Element, ZERO};
use crate::error::StoreError;
use crate::mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, IoStats};
use crate::store::{load_span_with, store_span_with, BackingStore, BlockStore};

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

/// Decodes the image of the block at `addr` onto the end of `out` (one
/// cell per 24 bytes), writing each cell once. The occupancy words are
/// checked once for the whole block: a word other than `0` or `1` leaves a
/// bit in `occ >> 1`, and any such word fails the block as
/// [`StoreError::Corrupted`] (what `out` then holds is meaningless; callers
/// drop it).
fn decode_cells(bytes: &[u8], out: &mut Vec<Cell>, addr: usize) -> Result<(), StoreError> {
    let (records, rest) = bytes.as_chunks::<CELL_BYTES>();
    debug_assert!(rest.is_empty());
    let word = |r: &[u8; CELL_BYTES], at: usize| {
        u64::from_le_bytes(r[at..at + 8].try_into().expect("8-byte word"))
    };
    let mut garbled = 0;
    out.extend(records.iter().map(|r| {
        let occ = word(r, 0);
        garbled |= occ >> 1;
        (occ != 0).then(|| Element::new(word(r, 8), word(r, 16)))
    }));
    if garbled == 0 {
        Ok(())
    } else {
        Err(StoreError::Corrupted { addr })
    }
}

/// Decodes one block image into an empty buffer drawn from `arena`.
fn decode_block(
    bytes: &[u8],
    block_elems: usize,
    arena: &BlockArena,
    addr: usize,
) -> Result<Block, StoreError> {
    let mut buf = arena.take(block_elems);
    match decode_cells(bytes, &mut buf, addr) {
        Ok(()) => Ok(Block::from_buffer(buf)),
        Err(e) => {
            arena.put(buf);
            Err(e)
        }
    }
}

/// Encodes cells into `out`, replacing its contents: the image is sized
/// once and every cell written as one fixed 24-byte record. Each cell is
/// read branch-free, an empty one as the zero element with occupancy 0.
fn encode_cells(cells: &[Cell], out: &mut Vec<u8>) {
    out.resize(cells.len() * CELL_BYTES, 0);
    let (records, _) = out.as_chunks_mut::<CELL_BYTES>();
    for (r, cell) in records.iter_mut().zip(cells) {
        let e = cell.as_ref().unwrap_or(&ZERO);
        r[..8].copy_from_slice(&(cell.is_some() as u64).to_le_bytes());
        r[8..16].copy_from_slice(&e.key.to_le_bytes());
        r[16..].copy_from_slice(&e.payload.to_le_bytes());
    }
}

/// A [`BlockStore`] over a single preallocated file. See the module docs.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    block_elems: usize,
    n_blocks: usize,
    stats: IoStats,
    trace: Option<AccessTrace>,
    arena: BlockArena,
    scratch: Vec<u8>,
    delete_on_drop: bool,
    /// `Some(n)`: panic with [`InjectedCrash`] when the `n+1`-th further
    /// block write is attempted.
    crash_after: Option<u64>,
    /// `Some((addr, kind))`: preallocation failed with `kind`, and global
    /// blocks from `addr` on are not backed by the file.
    unbacked: Option<(usize, io::ErrorKind)>,
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
            file,
            path,
            block_elems,
            n_blocks,
            stats: IoStats::default(),
            trace: None,
            arena: BlockArena::new(),
            scratch: Vec::new(),
            delete_on_drop,
            crash_after: None,
            unbacked: None,
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
    pub fn arena(&self) -> &BlockArena {
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

    /// Fails with the recorded preallocation error if any of the `count`
    /// blocks from global block `addr` is past the backed part of the file.
    fn check_backed(&self, addr: usize, count: usize) -> Result<(), StoreError> {
        match self.unbacked {
            Some((first, kind)) if addr + count > first => Err(StoreError::Io {
                addr: addr.max(first),
                kind,
            }),
            _ => Ok(()),
        }
    }

    fn read_raw(&mut self, addr: usize) -> Result<Block, StoreError> {
        self.check_backed(addr, 1)?;
        let bytes = self.block_bytes();
        self.scratch.resize(bytes, 0);
        self.file
            .read_exact_at(&mut self.scratch, byte_offset(addr, bytes))
            .map_err(|e| map_io_err(addr, &e))?;
        decode_block(&self.scratch, self.block_elems, &self.arena, addr)
    }

    fn write_raw(&mut self, addr: usize, blk: &Block) -> Result<(), StoreError> {
        self.check_backed(addr, 1)?;
        if let Some(n) = self.crash_after.as_mut() {
            if *n == 0 {
                std::panic::panic_any(InjectedCrash);
            }
            *n -= 1;
        }
        let bytes = self.block_bytes();
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_cells(blk.slots(), &mut scratch);
        let res = self
            .file
            .write_all_at(&scratch, byte_offset(addr, bytes))
            .map_err(|e| map_io_err(addr, &e));
        self.scratch = scratch;
        res
    }

    /// Allocates an array and fills it from a slice of cells, free of
    /// charge (mirrors [`ExtMem::alloc_array_from_cells`]). A block write
    /// that fails — on a full disk, or past a failed preallocation — returns
    /// its [`StoreError`]; the array stays allocated.
    ///
    /// [`ExtMem::alloc_array_from_cells`]: crate::mem::ExtMem::alloc_array_from_cells
    pub fn alloc_array_from_cells(&mut self, cells: &[Cell]) -> Result<ArrayHandle, StoreError> {
        let h = BlockStore::alloc_array(self, cells.len().max(1));
        let b = self.block_elems;
        for (i, chunk) in cells.chunks(b).enumerate() {
            let mut buf = self.arena.take(b);
            buf.extend_from_slice(chunk);
            buf.resize(b, None);
            let blk = Block::from_buffer(buf);
            let res = self.write_raw(h.global_block(i), &blk);
            self.arena.put(blk.into_buffer());
            res?;
        }
        Ok(h)
    }

    /// Allocates an array and fills it from a slice of elements (all
    /// occupied), free of charge; fails as
    /// [`alloc_array_from_cells`](FileStore::alloc_array_from_cells) does.
    pub fn alloc_array_from_elements(
        &mut self,
        items: &[Element],
    ) -> Result<ArrayHandle, StoreError> {
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
        match self
            .file
            .set_len(byte_offset(self.n_blocks, self.block_bytes()))
        {
            Ok(()) => self.unbacked = None,
            Err(e) => {
                self.unbacked.get_or_insert((start_block, e.kind()));
            }
        }
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
        let addr = h.checked_write(i, &blk)?;
        self.write_raw(addr, &blk)?;
        self.arena.put(blk.into_buffer());
        self.record(AccessOp::Write, addr);
        Ok(())
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        load_span_with(self, h, elem_lo, elem_hi, FileStore::load_whole)
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        store_span_with(self, h, elem_lo, cells, FileStore::store_whole)
    }
}

impl FileStore {
    /// Reads whole blocks `blocks` of `h` with one positioned read. If that
    /// read fails or would reach an unbacked block, reads them one by one
    /// instead, so the error names the block that caused it and the blocks
    /// before it are charged, exactly as on the per-block path.
    fn load_whole(
        &mut self,
        h: &ArrayHandle,
        blocks: Range<usize>,
    ) -> Result<Vec<Cell>, StoreError> {
        let b = self.block_elems;
        let first = h.global_block(blocks.start);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(blocks.len() * self.block_bytes(), 0);
        let read = self.check_backed(first, blocks.len()).is_ok()
            && self
                .file
                .read_exact_at(&mut scratch, byte_offset(first, self.block_bytes()))
                .is_ok();
        let mut out = Vec::with_capacity(blocks.len() * b);
        let res = if read {
            (0..blocks.len()).try_for_each(|k| {
                let bytes = &scratch[k * self.block_bytes()..(k + 1) * self.block_bytes()];
                decode_cells(bytes, &mut out, first + k)?;
                self.record(AccessOp::Read, first + k);
                Ok(())
            })
        } else {
            blocks.clone().try_for_each(|bi| {
                let blk = self.try_load_block(h, bi)?;
                out.extend_from_slice(blk.slots());
                self.arena.put(blk.into_buffer());
                Ok(())
            })
        };
        self.scratch = scratch;
        res.map(|()| out)
    }

    /// Writes the whole blocks starting at local block `first` of `h` with
    /// one positioned write. If that write fails or would reach an unbacked
    /// block — or a crash is armed, since crash injection counts block
    /// writes — writes them one by one instead, exactly as the per-block
    /// path does.
    fn store_whole(
        &mut self,
        h: &ArrayHandle,
        first: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let b = self.block_elems;
        let start = h.global_block(first);
        let mut scratch = std::mem::take(&mut self.scratch);
        let written =
            self.crash_after.is_none() && self.check_backed(start, cells.len() / b).is_ok() && {
                encode_cells(cells, &mut scratch);
                self.file
                    .write_all_at(&scratch, byte_offset(start, self.block_bytes()))
                    .is_ok()
            };
        self.scratch = scratch;
        for (k, chunk) in cells.chunks(b).enumerate() {
            if !written {
                self.write_raw(start + k, &Block::from_cells(chunk))?;
            }
            self.record(AccessOp::Write, start + k);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::kernel_blocks;

    #[test]
    fn file_bytes_are_the_24_byte_record_encoding_on_both_write_paths() {
        // Random, packed, all-dummy and all-occupied blocks, written block
        // by block and as one span: the file holds each cell as its
        // occupancy word, key and payload, little-endian, a dummy as zeros.
        for b in [1usize, 3, 8, 64] {
            let blocks = kernel_blocks(b);
            let cells = blocks.concat();
            let want: Vec<u8> = cells
                .iter()
                .flat_map(|c| {
                    let (occ, key, payload) = match c {
                        Some(e) => (1u64, e.key, e.payload),
                        None => (0, 0, 0),
                    };
                    [occ, key, payload].map(u64::to_le_bytes).concat()
                })
                .collect();
            let mut by_block = FileStore::temp(b).unwrap();
            let h = BlockStore::alloc_array(&mut by_block, cells.len());
            for (k, blk) in blocks.iter().enumerate() {
                by_block
                    .try_store_block(&h, k, Block::from_cells(blk))
                    .unwrap();
            }
            let mut by_span = FileStore::temp(b).unwrap();
            let h = BlockStore::alloc_array(&mut by_span, cells.len());
            by_span.try_store_span(&h, 0, &cells).unwrap();
            for store in [&by_block, &by_span] {
                assert_eq!(std::fs::read(store.path()).unwrap(), want, "b={b}");
                assert_eq!(store.snapshot_cells(&h), cells, "b={b}");
            }
        }
    }

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
        let h = fs
            .alloc_array_from_elements(&(0..10).map(e).collect::<Vec<_>>())
            .unwrap();
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
    fn a_garbled_occupancy_word_anywhere_in_a_span_fails_its_block() {
        // Four blocks of four cells; `0` and `1` occupancy words round-trip.
        let mut fs = FileStore::temp(4).unwrap();
        let h = fs.alloc_array(16);
        let cells: Vec<Cell> = (0..16).map(|k| (k % 3 != 0).then(|| e(k))).collect();
        fs.store_span(&h, 0, &cells);
        assert_eq!(fs.try_load_span(&h, 0, 16).unwrap(), cells);
        // The first, a middle and the last cell of the span, each garbled
        // with words that are neither 0 nor 1: the span read fails with that
        // cell's block, after charging the blocks before it.
        for cell in [0usize, 6, 15] {
            let at = (cell * CELL_BYTES) as u64;
            let mut word = [0u8; 8];
            fs.file.read_exact_at(&mut word, at).unwrap();
            for garbled in [2u64, 3, 77, 1 << 63, u64::MAX] {
                fs.file.write_all_at(&garbled.to_le_bytes(), at).unwrap();
                let reads = fs.stats().reads;
                let err = fs.try_load_span(&h, 0, 16).unwrap_err();
                assert_eq!(
                    err,
                    StoreError::Corrupted { addr: cell / 4 },
                    "{garbled:#x}"
                );
                assert_eq!(fs.stats().reads, reads + (cell / 4) as u64);
                let err = fs.try_load_block(&h, cell / 4).unwrap_err();
                assert_eq!(err, StoreError::Corrupted { addr: cell / 4 });
            }
            fs.file.write_all_at(&word, at).unwrap();
            assert_eq!(fs.try_load_span(&h, 0, 16).unwrap(), cells);
        }
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
    fn failed_preallocation_is_a_typed_io_error() {
        // Two blocks written through a writable store, then the file
        // reopened read-only: growing it fails, so the new array's blocks
        // are unbacked while the old ones still read.
        let mut fs = FileStore::temp(4).unwrap();
        let path = fs.path().to_path_buf();
        let old = fs
            .alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>())
            .unwrap();
        let read_only = File::open(&path).unwrap();
        let mut ro = FileStore::from_handle(read_only, &path, 4).unwrap();
        let h = ro.alloc_array(8);
        assert_eq!(h.global_block(0), 2);
        let unbacked = |err: StoreError, at: usize| {
            assert!(
                matches!(err, StoreError::Io { addr, .. } if addr == at),
                "got {err:?}"
            );
            assert!(!err.is_tampering());
        };
        unbacked(ro.try_load_block(&h, 1).unwrap_err(), 3);
        unbacked(ro.try_store_block(&h, 0, Block::empty(4)).unwrap_err(), 2);
        unbacked(ro.try_load_span(&h, 0, 8).unwrap_err(), 2);
        unbacked(ro.try_store_span(&h, 4, &[None; 4]).unwrap_err(), 3);
        // The span that reaches the unbacked block still charges the backed
        // ones before it, as the per-block path does.
        let reads = ro.stats().reads;
        let whole = ArrayHandle::new_raw(0, 16, 4);
        unbacked(ro.try_load_span(&whole, 0, 16).unwrap_err(), 2);
        assert_eq!(ro.stats().reads, reads + 2);
        assert_eq!(
            ro.try_load_span(&old, 0, 8).unwrap(),
            (0..8).map(|k| Some(e(k))).collect::<Vec<_>>()
        );
        // Writing the backed blocks fails too, but only because the handle
        // is read-only.
        let err = ro.try_store_block(&old, 0, Block::empty(4)).unwrap_err();
        assert!(matches!(err, StoreError::Io { addr: 0, .. }), "got {err:?}");
        // Populating a new array reports its first unbacked block.
        unbacked(ro.alloc_array_from_cells(&[Some(e(1)); 8]).unwrap_err(), 4);
        let items: Vec<Element> = (0..4).map(e).collect();
        unbacked(ro.alloc_array_from_elements(&items).unwrap_err(), 6);
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

//! Span equivalence: every store that overrides the span ops with a batch
//! path (`FileStore`, `EncryptedStore`, `AuthenticatedStore`) behaves
//! exactly like the provided per-block defaults, for any span.
//!
//! A seeded generator draws spans with unaligned ends, partial last blocks,
//! empty spans and spans outside the array, at several block sizes. Each
//! span runs against the store itself and against the same store behind a
//! wrapper that forwards only the block ops (so its span ops are the trait
//! defaults). After every op the two must agree on the result or error, the
//! I/O counters and the server-visible trace; at the end the two server
//! files must hold the same bytes.

use extmem::util::hash64;
use extmem::{
    AccessTrace, ArrayHandle, AuthenticatedStore, BackingStore, Block, BlockStore, Cell, Element,
    EncryptedStore, FileStore, IoStats, StoreError,
};

/// Forwards only the block ops: its span ops are the per-block defaults.
struct BlockOpsOnly<S>(S);

impl<S: BlockStore> BlockStore for BlockOpsOnly<S> {
    fn block_elems(&self) -> usize {
        self.0.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.0.alloc_array(len_elements)
    }
    fn io_stats(&self) -> IoStats {
        self.0.io_stats()
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.0.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.0.try_store_block(h, i, blk)
    }
}

/// Fails a seeded share of block writes with a transient error (nothing
/// is written or charged). It forwards only the block ops, so a span that
/// reaches it fails part-way, after the blocks before the failing one
/// landed.
struct FailingWrites<S> {
    inner: S,
    writes: u64,
}

impl<S: BlockStore> BlockStore for FailingWrites<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.inner.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.writes += 1;
        if hash64(self.writes, 0xFA11).is_multiple_of(7) {
            return Err(StoreError::Transient {
                addr: h.global_block(i),
            });
        }
        self.inner.try_store_block(h, i, blk)
    }
}

impl<S: BackingStore> BackingStore for FailingWrites<S> {
    fn enable_trace(&mut self) {
        self.inner.enable_trace()
    }
    fn take_trace(&mut self) -> Option<AccessTrace> {
        self.inner.take_trace()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn allocated_blocks(&self) -> usize {
        self.inner.allocated_blocks()
    }
    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        self.inner.snapshot_cells(h)
    }
}

/// A backend whose server state is one file.
trait OnFile {
    fn file_bytes(&self) -> Vec<u8>;
}

impl OnFile for FileStore {
    fn file_bytes(&self) -> Vec<u8> {
        std::fs::read(self.path()).expect("server file")
    }
}

impl<S: OnFile> OnFile for FailingWrites<S> {
    fn file_bytes(&self) -> Vec<u8> {
        self.inner.file_bytes()
    }
}

/// A store under test: its server trace, and the bytes its server file
/// holds once client state is checkpointed.
trait UnderTest: BlockStore {
    fn take_server_trace(&mut self) -> AccessTrace;
    fn server_bytes(&mut self) -> Vec<u8>;
}

impl UnderTest for FileStore {
    fn take_server_trace(&mut self) -> AccessTrace {
        let t = self.take_trace().expect("trace enabled");
        self.enable_trace();
        t
    }
    fn server_bytes(&mut self) -> Vec<u8> {
        self.file_bytes()
    }
}

impl<S: BackingStore + OnFile> UnderTest for EncryptedStore<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        let t = self.take_trace().expect("trace enabled");
        self.enable_trace();
        t
    }
    fn server_bytes(&mut self) -> Vec<u8> {
        self.backing().file_bytes()
    }
}

impl<S: UnderTest> UnderTest for AuthenticatedStore<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        self.inner_mut().take_server_trace()
    }
    fn server_bytes(&mut self) -> Vec<u8> {
        // A failed flush leaves its blocks dirty; retrying finishes it.
        while self.flush_macs().is_err() {}
        self.inner_mut().server_bytes()
    }
}

impl<S: UnderTest> UnderTest for BlockOpsOnly<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        self.0.take_server_trace()
    }
    fn server_bytes(&mut self) -> Vec<u8> {
        self.0.server_bytes()
    }
}

/// A seeded stream of pseudo-random words.
struct Rng {
    seed: u64,
    n: u64,
}

impl Rng {
    fn next(&mut self) -> u64 {
        self.n += 1;
        hash64(self.n, self.seed)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

enum Op {
    Load(usize, usize),
    Store(usize, Vec<Cell>),
}

/// One span op on an array of `len` cells with block size `b`. Shapes:
/// empty, whole blocks, unaligned, up to the array's end (its partial last
/// block), the whole array, and outside the array. Stored cells mix dummies
/// and elements; with `wide`, some payloads exceed the encrypted encoding's
/// 63 bits.
fn draw(rng: &mut Rng, len: usize, b: usize, wide: bool) -> Op {
    let (lo, hi) = match rng.below(6) {
        0 => {
            let at = rng.below(len + 1);
            (at, at)
        }
        1 => {
            let blocks = len / b;
            let lo = rng.below(blocks + 1);
            (lo * b, (lo + rng.below(blocks - lo + 1)) * b)
        }
        2 => {
            let lo = rng.below(len + 1);
            (lo, lo + rng.below(len - lo + 1))
        }
        3 => (rng.below(len + 1), len),
        4 => (0, len),
        _ => {
            // Outside the array: past its end, or reversed.
            let lo = rng.below(len + 1);
            match rng.below(3) {
                0 => (lo, len + 1 + rng.below(2 * b)),
                1 => (usize::MAX - rng.below(4), usize::MAX),
                _ => (lo + 1, lo),
            }
        }
    };
    if rng.below(2) == 0 {
        return Op::Load(lo, hi);
    }
    let n = hi.saturating_sub(lo).min(4 * len);
    let cells = (0..n)
        .map(|_| {
            let r = rng.next();
            let payload = if wide && r.is_multiple_of(97) {
                u64::MAX
            } else {
                r >> 2
            };
            (!r.is_multiple_of(5)).then(|| Element::new(r >> 7, payload))
        })
        .collect();
    Op::Store(lo, cells)
}

/// Runs the same seeded ops against `mk()` and `BlockOpsOnly(mk())` and
/// asserts they agree after every op.
fn check<S: UnderTest>(label: &str, mk: impl Fn(usize) -> S, wide: bool) {
    // (refused spans, failed spans, spans that moved cells)
    let mut tally = (0, 0, 0);
    for b in [1usize, 3, 8, 64] {
        for seed in 0..6u64 {
            let mut rng = Rng {
                seed: seed ^ (b as u64) << 32,
                n: 0,
            };
            let len = 1 + rng.below(6 * b);
            let mut over = mk(b);
            let mut default = BlockOpsOnly(mk(b));
            let h = over.alloc_array(len);
            assert_eq!(default.alloc_array(len), h);
            // A neighbour, so an op that strays past `h` would show.
            over.alloc_array(b);
            default.alloc_array(b);
            for step in 0..48 {
                let ctx = format!("{label}: B={b} seed={seed} len={len} step={step}");
                let outcome = match draw(&mut rng, len, b, wide) {
                    Op::Load(lo, hi) => {
                        let got = over.try_load_span(&h, lo, hi);
                        assert_eq!(
                            got,
                            default.try_load_span(&h, lo, hi),
                            "{ctx}: load [{lo}, {hi})"
                        );
                        got.map(|cells| cells.len())
                    }
                    Op::Store(lo, cells) => {
                        let got = over.try_store_span(&h, lo, &cells);
                        assert_eq!(
                            got,
                            default.try_store_span(&h, lo, &cells),
                            "{ctx}: store {} cells at {lo}",
                            cells.len()
                        );
                        got.map(|()| cells.len())
                    }
                };
                match outcome {
                    Err(StoreError::InvalidArgument { .. }) => tally.0 += 1,
                    Err(_) => tally.1 += 1,
                    Ok(n) if n > 0 => tally.2 += 1,
                    Ok(_) => {}
                }
                assert_eq!(over.io_stats(), default.io_stats(), "{ctx}: I/O counters");
                assert_eq!(
                    over.take_server_trace(),
                    default.take_server_trace(),
                    "{ctx}: server trace"
                );
            }
            assert!(
                over.server_bytes() == default.server_bytes(),
                "{label}: B={b} seed={seed}: the server files differ"
            );
        }
    }
    let (refused, failed, moved) = tally;
    assert!(
        refused > 0 && moved > 0,
        "{label}: the generator covers both: {tally:?}"
    );
    if wide && label != "FileStore" {
        assert!(failed > 0, "{label}: some spans fail part-way: {tally:?}");
    }
}

fn file(b: usize) -> FileStore {
    let mut fs = FileStore::temp(b).expect("temp store");
    fs.enable_trace();
    fs
}

fn encrypted(b: usize) -> EncryptedStore<FileStore> {
    EncryptedStore::with_backing(file(b), 0xE2C)
}

#[test]
fn file_store_spans_equal_the_per_block_defaults() {
    check("FileStore", file, true);
}

#[test]
fn encrypted_spans_equal_the_per_block_defaults() {
    check("Encrypted(FileStore)", encrypted, true);
}

#[test]
fn authenticated_spans_equal_the_per_block_defaults() {
    check(
        "Auth(Encrypted(FileStore))",
        |b| AuthenticatedStore::new(encrypted(b), 0xA07),
        true,
    );
}

#[test]
fn spans_that_fail_part_way_leave_the_same_state() {
    // Writes below the encryption layer fail on a seeded schedule, so span
    // writes stop part-way: each layer must commit nonces and tags for
    // exactly the blocks that landed, as block-at-a-time writes do.
    check(
        "Auth(Encrypted(FailingWrites(FileStore)))",
        |b| {
            let failing = FailingWrites {
                inner: file(b),
                writes: 0,
            };
            AuthenticatedStore::new(EncryptedStore::with_backing(failing, 0xE2C), 0xA07)
        },
        false,
    );
}

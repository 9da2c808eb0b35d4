//! Span equivalence: every store that overrides the span ops with a batch
//! path (`ExtMem`, `FileStore`, `EncryptedStore`, `AuthenticatedStore`,
//! `PrefetchingStore`) behaves exactly like the provided per-block
//! defaults, for any span.
//!
//! A seeded generator draws spans with unaligned ends, partial last blocks,
//! empty spans and spans outside the array, at several block sizes. Each
//! span runs against the store itself and against the same store behind a
//! wrapper that forwards only the block ops and hints (so its span ops are
//! the trait defaults). After every op the two must agree on the result or
//! error, the I/O counters and the trace; at the end the two servers must
//! hold the same state: the same file bytes, or for `ExtMem` the same cells
//! in the array and its neighbour. For `PrefetchingStore` the counters and
//! trace are its logical ones, and block ops between the spans leave parked
//! steals and buffered writes for the spans to overlap.

use extmem::util::hash64;
use extmem::{
    AccessEvent, AccessOp, AccessTrace, ArrayHandle, AuthenticatedStore, BackingStore, Block,
    BlockStore, Cell, Element, EncryptedStore, ExtMem, FileStore, IoStats, PrefetchConfig,
    PrefetchingStore, StoreError,
};

/// Forwards only the block ops and hints: its span ops are the per-block
/// defaults.
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
    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.0.hint_blocks(h, blocks)
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

/// What a server holds.
#[derive(Debug, PartialEq)]
enum ServerState {
    /// The bytes of its one file.
    File(Vec<u8>),
    /// The cells of the arrays asked about, read free of charge.
    Cells(Vec<Vec<Cell>>),
}

/// A backend whose server state can be read back.
trait Server {
    /// The state of the server; `arrays` names every array allocated on it.
    fn server_state(&self, arrays: &[ArrayHandle]) -> ServerState;
}

impl Server for FileStore {
    fn server_state(&self, _: &[ArrayHandle]) -> ServerState {
        ServerState::File(std::fs::read(self.path()).expect("server file"))
    }
}

impl Server for ExtMem {
    fn server_state(&self, arrays: &[ArrayHandle]) -> ServerState {
        ServerState::Cells(arrays.iter().map(|h| self.snapshot_cells(h)).collect())
    }
}

impl<S: Server> Server for FailingWrites<S> {
    fn server_state(&self, arrays: &[ArrayHandle]) -> ServerState {
        self.inner.server_state(arrays)
    }
}

/// A store under test: its server trace, and what its server holds once
/// client state is checkpointed.
trait UnderTest: BlockStore {
    fn take_server_trace(&mut self) -> AccessTrace;
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState;
}

/// The bottom stores, `FileStore` and `ExtMem`.
impl<S: BackingStore + Server> UnderTest for S {
    fn take_server_trace(&mut self) -> AccessTrace {
        let t = self.take_trace().expect("trace enabled");
        self.enable_trace();
        t
    }
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState {
        Server::server_state(self, arrays)
    }
}

impl<S: BackingStore + Server> UnderTest for EncryptedStore<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        let t = self.take_trace().expect("trace enabled");
        self.enable_trace();
        t
    }
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState {
        self.backing().server_state(arrays)
    }
}

impl<S: UnderTest> UnderTest for AuthenticatedStore<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        self.inner_mut().take_server_trace()
    }
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState {
        // A failed flush leaves its blocks dirty; retrying finishes it.
        while self.flush_macs().is_err() {}
        self.inner_mut().server_state(arrays)
    }
}

impl<S: UnderTest> UnderTest for PrefetchingStore<S> {
    /// The logical trace: what the caller asked for, in order.
    fn take_server_trace(&mut self) -> AccessTrace {
        let t = self.take_trace().expect("trace enabled");
        self.enable_trace();
        t
    }
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState {
        self.flush_writes().expect("an honest store flushes");
        self.inner_mut().server_state(arrays)
    }
}

impl<S: UnderTest> UnderTest for BlockOpsOnly<S> {
    fn take_server_trace(&mut self) -> AccessTrace {
        self.0.take_server_trace()
    }
    fn server_state(&mut self, arrays: &[ArrayHandle]) -> ServerState {
        self.0.server_state(arrays)
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
    Op::Store(lo, cells(rng, n, wide))
}

/// `n` cells mixing dummies and elements; with `wide`, some payloads
/// exceed the encrypted encoding's 63 bits.
fn cells(rng: &mut Rng, n: usize, wide: bool) -> Vec<Cell> {
    (0..n)
        .map(|_| {
            let r = rng.next();
            let payload = if wide && r.is_multiple_of(97) {
                u64::MAX
            } else {
                r >> 2
            };
            (!r.is_multiple_of(5)).then(|| Element::new(r >> 7, payload))
        })
        .collect()
}

/// What a check draws besides spans, and what it compares at the end.
#[derive(Clone, Copy)]
struct Plan {
    /// Some stored payloads exceed 63 bits.
    wide: bool,
    /// A block op before some spans: a hinted run whose first block is
    /// loaded (a steal that parks the rest), or one block write (buffered
    /// by a prefetching store).
    block_ops: bool,
    /// The two servers must hold the same state. Where the two paths
    /// write blocks in a different order (write-behind against write
    /// through under a nonce counter), a full read after the checkpoint is
    /// compared instead.
    same_bytes: bool,
}

const SPANS_ONLY: Plan = Plan {
    wide: true,
    block_ops: false,
    same_bytes: true,
};

/// Runs the same seeded ops against `mk()` and `BlockOpsOnly(mk())` and
/// asserts they agree after every op.
fn check<S: UnderTest>(label: &str, mk: impl Fn(usize) -> S, plan: Plan) {
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
            let next = over.alloc_array(b);
            assert_eq!(default.alloc_array(b), next);
            for step in 0..48 {
                let ctx = format!("{label}: B={b} seed={seed} len={len} step={step}");
                if plan.block_ops && rng.below(3) == 0 {
                    let i = rng.below(h.n_blocks());
                    if rng.below(2) == 0 {
                        let run: Vec<usize> = (i..i + 1 + rng.below(h.n_blocks() - i)).collect();
                        over.hint_blocks(&h, &run);
                        default.hint_blocks(&h, &run);
                        assert_eq!(
                            over.try_load_block(&h, i),
                            default.try_load_block(&h, i),
                            "{ctx}: steal of {run:?}"
                        );
                    } else {
                        let blk = Block::from_cells(&cells(&mut rng, b, plan.wide));
                        assert_eq!(
                            over.try_store_block(&h, i, blk.clone()),
                            default.try_store_block(&h, i, blk),
                            "{ctx}: block write {i}"
                        );
                    }
                }
                let outcome = match draw(&mut rng, len, b, plan.wide) {
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
            let arrays = [h, next];
            let (over_state, default_state) =
                (over.server_state(&arrays), default.server_state(&arrays));
            if plan.same_bytes {
                assert!(
                    over_state == default_state,
                    "{label}: B={b} seed={seed}: the server states differ"
                );
            } else {
                assert_eq!(
                    over.try_load_span(&h, 0, len),
                    default.try_load_span(&h, 0, len),
                    "{label}: B={b} seed={seed}: the server contents differ"
                );
            }
        }
    }
    let (refused, failed, moved) = tally;
    assert!(
        refused > 0 && moved > 0,
        "{label}: the generator covers both: {tally:?}"
    );
    // Only an encrypting layer refuses a wide payload.
    if plan.wide && !matches!(label, "ExtMem" | "FileStore" | "Prefetching(FileStore)") {
        assert!(failed > 0, "{label}: some spans fail part-way: {tally:?}");
    }
}

fn mem(b: usize) -> ExtMem {
    ExtMem::with_trace(b)
}

fn file(b: usize) -> FileStore {
    let mut fs = FileStore::temp(b).expect("temp store");
    fs.enable_trace();
    fs
}

fn encrypted(b: usize) -> EncryptedStore<FileStore> {
    EncryptedStore::with_backing(file(b), 0xE2C)
}

/// Block writes between the spans land past, inside and across an
/// `ExtMem` slab's written prefix.
const SPANS_AND_BLOCK_WRITES: Plan = Plan {
    block_ops: true,
    ..SPANS_ONLY
};

#[test]
fn ext_mem_spans_equal_the_per_block_defaults() {
    check("ExtMem", mem, SPANS_AND_BLOCK_WRITES);
}

#[test]
fn encrypted_ext_mem_spans_equal_the_per_block_defaults() {
    check(
        "Encrypted(ExtMem)",
        |b| EncryptedStore::with_backing(mem(b), 0xE2C),
        SPANS_AND_BLOCK_WRITES,
    );
}

#[test]
fn file_store_spans_equal_the_per_block_defaults() {
    check("FileStore", file, SPANS_ONLY);
}

#[test]
fn encrypted_spans_equal_the_per_block_defaults() {
    check("Encrypted(FileStore)", encrypted, SPANS_ONLY);
}

#[test]
fn authenticated_spans_equal_the_per_block_defaults() {
    check(
        "Auth(Encrypted(FileStore))",
        |b| AuthenticatedStore::new(encrypted(b), 0xA07),
        SPANS_ONLY,
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
        Plan {
            wide: false,
            ..SPANS_ONLY
        },
    );
}

/// Block ops between the spans, over-wide payloads included: a prefetching
/// store asks the layers below before it accepts a write into its buffer,
/// so an over-wide payload is refused at once on both paths.
const WITH_BLOCK_OPS: Plan = Plan {
    wide: true,
    block_ops: true,
    same_bytes: true,
};

type Defended = PrefetchingStore<AuthenticatedStore<EncryptedStore<FileStore>>>;

fn defended(b: usize, cfg: PrefetchConfig) -> Defended {
    let mut ps = PrefetchingStore::with_config(AuthenticatedStore::new(encrypted(b), 0xA07), cfg);
    ps.enable_trace();
    ps
}

#[test]
fn prefetched_spans_equal_the_per_block_defaults() {
    check(
        "Prefetching(FileStore)",
        |b| {
            let mut ps = PrefetchingStore::new(file(b));
            ps.enable_trace();
            ps
        },
        WITH_BLOCK_OPS,
    );
}

#[test]
fn prefetched_defended_spans_equal_the_per_block_defaults() {
    // Write-behind and write-through hand the encryption layer the same
    // blocks in a different order, so nonces, versions and hence the
    // server bytes differ; what the server holds must still read the same.
    check(
        "Prefetching(Auth(Encrypted(FileStore)))",
        |b| defended(b, PrefetchConfig::default()),
        Plan {
            same_bytes: false,
            ..WITH_BLOCK_OPS
        },
    );
    // With no write-behind both paths write in the same order, so the
    // server files match byte for byte.
    check(
        "Prefetching(Auth(Encrypted(FileStore))) without write-behind",
        |b| {
            let cfg = PrefetchConfig {
                write_buffer: 0,
                ..PrefetchConfig::default()
            };
            defended(b, cfg)
        },
        WITH_BLOCK_OPS,
    );
}

#[test]
fn a_prefetched_span_write_that_fails_part_way_records_only_what_landed() {
    // Most blocks hold an older write in the write-behind buffer when a
    // span write over all of them, too long to be buffered, fails part-way
    // below the encryption layer. Exactly the blocks that landed are
    // recorded, and they read back new, never the older buffered block; the
    // rest were never written, so they still read what they read before:
    // for a buffered block, the newest write accepted for it.
    let mut torn = 0;
    let (n, cap) = (24, 16);
    for b in [1usize, 3, 8] {
        let failing = FailingWrites {
            inner: file(b),
            writes: 0,
        };
        let stack = AuthenticatedStore::new(EncryptedStore::with_backing(failing, 0xE2C), 0xA07);
        let cfg = PrefetchConfig {
            write_buffer: cap,
            ..PrefetchConfig::default()
        };
        let mut store = PrefetchingStore::with_config(stack, cfg);
        let h = store.alloc_array(n * b);
        let mut rng = Rng {
            seed: b as u64,
            n: 0,
        };
        let mut want: Vec<Cell> = vec![None; n * b];
        for round in 0..20 {
            // Fewer blocks than the buffer holds, so none is flushed.
            let old = cells(&mut rng, (cap - 1) * b, false);
            for (i, blk) in old.chunks(b).enumerate() {
                store
                    .try_store_block(&h, i, Block::from_cells(blk))
                    .expect("the write is buffered");
            }
            want[..old.len()].copy_from_slice(&old);
            let new = cells(&mut rng, n * b, false);
            store.enable_trace();
            let before = store.io_stats().writes;
            let res = store.try_store_span(&h, 0, &new);
            let landed = (store.io_stats().writes - before) as usize;
            let ctx = format!("B={b} round={round} landed={landed}");
            let writes: AccessTrace = (0..landed)
                .map(|i| AccessEvent {
                    op: AccessOp::Write,
                    addr: h.global_block(i),
                })
                .collect();
            assert_eq!(store.take_trace(), Some(writes), "{ctx}");
            match res {
                Ok(()) => assert_eq!(landed, n, "{ctx}"),
                Err(e) => {
                    assert!(matches!(e, StoreError::Transient { .. }), "{ctx}: {e:?}");
                    assert!(landed < n, "{ctx}");
                    torn += 1;
                }
            }
            want[..landed * b].copy_from_slice(&new[..landed * b]);
            assert_eq!(store.try_load_span(&h, 0, n * b).unwrap(), want, "{ctx}");
            for i in 0..n {
                let blk = store.try_load_block(&h, i).unwrap();
                assert_eq!(blk.slots(), &want[i * b..(i + 1) * b], "{ctx}: block {i}");
            }
        }
    }
    assert!(torn > 0, "some span writes fail part-way");
}

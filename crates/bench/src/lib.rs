//! # odo-bench — the I/O-count benchmark harness
//!
//! Runs the workspace's algorithms on an [`ExtMem`] simulator across a grid
//! of `(N, B, M)` model parameters, reads back the exact I/O counters, and
//! checks them against the paper's stated bounds. Results are emitted as
//! `BENCH_sort.json` so every PR's perf trajectory is recorded from PR 1
//! onwards.
//!
//! For the external oblivious sort the bound checked is Lemma 2's
//!
//! ```text
//! total I/Os  ≤  C · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉²)
//! ```
//!
//! with the explicit constant `C =` [`BOUND_CONSTANT`]. Alongside the
//! optimized sorter the harness runs the `baseline` crate's full-depth
//! bitonic sort, so the speedup delivered by in-cache finishing and stride
//! batching is measured, not assumed.
//!
//! Every sort point also runs the randomized **bucket oblivious sort**
//! head-to-head (plaintext *and* encrypted, with byte-identical traces
//! asserted), checked against the optimal-form bound
//!
//! ```text
//! total I/Os  ≤  C_k · ⌈N/B⌉ · max(1, ⌈log_{M/B}(N/B)⌉)
//! ```
//!
//! with `C_k =` [`BUCKET_BOUND_CONSTANT`] — the `log_{M/B}` gate, not the
//! squared binary log. At every grid point with `N/M ≥ 4` the bench further
//! gates that the bucket sort's I/Os are strictly below the Lemma 2 sort's.
//!
//! For the §3 external butterfly compaction (`odo-core::compact`) the bound
//! checked is
//!
//! ```text
//! total I/Os  ≤  C_c · ⌈N/B⌉ · (1 + ⌈log_β(⌈N/M⌉)⌉),   β = max(2, M/(8B))
//! ```
//!
//! with `C_c =` [`COMPACT_BOUND_CONSTANT`] — note the *single* log factor,
//! the paper's compaction advantage over sorting, and its base growing with
//! the cache: the external levels run fused, `log₂(W/B)` per column sweep.
//! The compaction results are emitted as `BENCH_compact.json`; each point
//! also runs the identical algorithm over an [`extmem::EncryptedStore`] and
//! asserts the re-encryption layer adds **zero** I/Os.
//!
//! For the §4 selection (`odo-core::select`) the bound checked is the same
//! single-log form with `C_s =` [`SELECT_BOUND_CONSTANT`] — selection is
//! iterated prune-and-compact, so it inherits compaction's advantage over
//! sorting. Alongside the bound, each `BENCH_select.json` point runs the
//! naive sort-then-index baseline and replays the identical selection over an
//! [`extmem::EncryptedStore`], asserting not just equal I/O counts but a
//! **byte-identical access trace** (and, separately, that the trace is
//! independent of the requested rank `k`).
//!
//! The hierarchical ORAM (`odo-oram`) is gated as a *composed* bound: one
//! probe read per level per access plus, for every flush, a per-rebuild
//! bound assembled pass by pass from the pipeline's structure and the
//! sort/compaction bounds above ([`oram_io_bound`]). Level `j` is rebuilt
//! every `2^(j+1)` flushes at `O(sort(cap_j))` I/Os, so the composed total
//! telescopes to the paper's `O(log² n)` amortized block I/Os per access.
//! Each `BENCH_oram.json` point reports the measured amortized I/Os and the
//! wall clock of the identical access sequence over `ExtMem`, `FileStore`
//! and `EncryptedStore<FileStore>`, with every file-backed trace asserted
//! byte-identical to the simulator's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baseline::{naive_external_bitonic_sort, naive_external_butterfly_compact, naive_select_kth};
use extmem::element::Cell;
use extmem::{
    Element, EncryptedStore, ExtMem, FaultSpec, FaultStats, FileStore, IoStats, PrefetchingStore,
};
use obliv_net::bucket_sort::{bucket_oblivious_sort, BucketSortConfig, BucketSortReport};
use obliv_net::external_sort::{external_oblivious_sort, SortOrder, SortReport};
use odo_core::compact::{compact, CompactReport};
use odo_core::select::{select_kth, SelectReport};
use odo_core::SortEngine;
use oram::{LevelGeometry, Oram, OramConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The explicit constant `C` of the checked sort I/O bound.
pub const BOUND_CONSTANT: u64 = 4;

/// The explicit constant `C_k` of the checked bucket-sort I/O bound.
pub const BUCKET_BOUND_CONSTANT: u64 = 12;

/// The fixed seed of every benchmarked bucket sort, so runs are reproducible
/// across machines and PRs (and so a freak bucket overflow would be a
/// deterministic, debuggable event rather than flaky CI).
pub const BUCKET_SORT_SEED: u64 = 0x0B0C_4E75;

/// The explicit constant `C_c` of the checked compaction I/O bound.
pub const COMPACT_BOUND_CONSTANT: u64 = 16;

/// The explicit constant `C_s` of the checked selection I/O bound.
pub const SELECT_BOUND_CONSTANT: u64 = 64;

/// One `(N, B, M)` parameter point of the benchmark grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridPoint {
    /// Number of elements `N`.
    pub n: usize,
    /// Block size `B` in elements.
    pub b: usize,
    /// Private cache size `M` in elements.
    pub m: usize,
}

/// Wall-clock nanoseconds of one primitive run over each storage backend.
///
/// The I/O *counts* are identical across backends by construction (the
/// harness asserts byte-identical access traces), so this is the one place
/// real time enters the benchmark: the same block schedule paid for in
/// memory moves (`ExtMem`), file system calls (`FileStore`), and decrypt +
/// re-encrypt work over the file (`EncryptedStore<FileStore>`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendNanos {
    /// The in-memory `ExtMem` simulator.
    pub extmem_ns: u64,
    /// The tempdir-backed `FileStore` doing real reads and writes.
    pub file_ns: u64,
    /// `EncryptedStore<FileStore>` — same file, plus the cipher work.
    pub encrypted_file_ns: u64,
}

/// Runs `f` once and returns its result plus the elapsed wall-clock
/// nanoseconds (saturated into `u64`, which holds ~584 years).
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (out, ns)
}

/// Wall-clock timings of one sort grid point (filled only when
/// [`run_sort_point`] is asked to exercise the file-backed backends).
#[derive(Clone, Copy, Debug, Default)]
pub struct SortTimings {
    /// The Lemma 2 engine over each backend.
    pub lemma2: BackendNanos,
    /// The bucket engine over each backend. Its `extmem_ns` and Lemma 2's
    /// are interleaved min-of-5 untraced runs, the pair behind the
    /// in-memory wall-clock headline gate.
    pub bucket: BackendNanos,
    /// The bucket engine over `PrefetchingStore<FileStore>` — the headline
    /// wall-clock comparison: shape-derived read-ahead against the plain
    /// file store's synchronous loads (`bucket.file_ns`).
    pub bucket_prefetch_ns: u64,
    /// The bucket engine over `Prefetching(Encrypted(FileStore))` — the
    /// span-pipeline comparison: decrypt-ahead workers and batched-keystream
    /// span writes against the plain encrypted store's synchronous
    /// decrypt-on-load (`bucket.encrypted_file_ns`), interleaved min-of-N
    /// like the plaintext pair.
    pub encrypted_prefetch_ns: u64,
}

/// Measured result of one grid point.
#[derive(Clone, Debug)]
pub struct SortBenchResult {
    /// The parameters measured.
    pub point: GridPoint,
    /// I/O statistics of the optimized external oblivious sort.
    pub optimized: IoStats,
    /// Structural report of the optimized sort.
    pub report: SortReport,
    /// I/Os of the identical sort over the re-encrypting store (always equal
    /// to `optimized` — the encryption layer costs zero extra I/Os).
    pub encrypted: IoStats,
    /// I/O statistics of the randomized bucket oblivious sort head-to-head.
    pub bucket: IoStats,
    /// Structural report of the bucket sort.
    pub bucket_report: BucketSortReport,
    /// I/Os of the bucket sort over the re-encrypting store (always equal to
    /// `bucket`; [`run_sort_point`] additionally asserts the plaintext and
    /// encrypted traces are byte-identical).
    pub bucket_encrypted: IoStats,
    /// The bucket bound `C_k · ⌈N/B⌉ · max(1, ⌈log_{M/B}(N/B)⌉)`.
    pub bucket_bound_total: u64,
    /// Whether the bucket sort's total I/Os satisfy its bound.
    pub bucket_within_bound: bool,
    /// I/O statistics of the naive full-depth baseline, if it was run.
    pub naive: Option<IoStats>,
    /// Levels the naive baseline executed, if it was run.
    pub naive_levels: Option<usize>,
    /// The bound `C · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉²)`.
    pub bound_total: u64,
    /// Whether the optimized sort's total I/Os satisfy the bound.
    pub within_bound: bool,
    /// Wall-clock timings over `ExtMem`, `FileStore` and
    /// `Encrypted(FileStore)` — `None` when the point was run I/O-count-only
    /// (`backends = false`). Every file-backed run's access trace is
    /// asserted byte-identical to the `ExtMem` reference before a timing is
    /// recorded.
    pub timings: Option<SortTimings>,
}

impl SortBenchResult {
    /// Naive-over-optimized I/O ratio (the headline speedup), if the naive
    /// baseline was run.
    pub fn speedup(&self) -> Option<f64> {
        self.naive
            .map(|n| n.total() as f64 / self.optimized.total().max(1) as f64)
    }

    /// Lemma-2-over-bucket I/O ratio — how many times fewer I/Os the
    /// randomized engine pays than the deterministic one at this point.
    pub fn bucket_speedup_vs_lemma2(&self) -> f64 {
        self.optimized.total() as f64 / self.bucket.total().max(1) as f64
    }

    /// Whether this point is subject to the "bucket strictly beats Lemma 2"
    /// gate (`N/M ≥ 4`; below that the randomized engine's fixed costs can
    /// legitimately lose to the near-in-cache bitonic sort).
    pub fn bucket_gate_applies(&self) -> bool {
        self.point.n >= 4 * self.point.m
    }
}

/// `⌈log2(⌈N/M⌉)⌉`, the shared "external levels" factor of every bound
/// checked by this harness (0 when the array fits in cache).
fn ceil_log2_ratio(n: usize, m: usize) -> u64 {
    let ratio = n.div_ceil(m);
    if ratio <= 1 {
        0
    } else {
        u64::from(usize::BITS - (ratio - 1).leading_zeros())
    }
}

/// The Lemma 2 bound with the explicit constant [`BOUND_CONSTANT`]:
/// `C · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉²)`.
pub fn sort_io_bound(n: usize, b: usize, m: usize) -> u64 {
    let lg = ceil_log2_ratio(n, m);
    BOUND_CONSTANT * n.div_ceil(b) as u64 * (1 + lg * lg)
}

/// `⌈log_{M/B}(N/B)⌉` computed exactly in integers: the smallest `t ≥ 1`
/// with `(M/B)^t ≥ ⌈N/B⌉`, the base clamped to `≥ 2` so the bound is
/// well-defined even at degenerate cache sizes.
fn ceil_log_base_ratio(n: usize, b: usize, m: usize) -> u64 {
    let nb = n.div_ceil(b) as u64;
    let base = (m / b).max(2) as u64;
    let mut t = 1u64;
    let mut pow = base;
    while pow < nb {
        pow = pow.saturating_mul(base);
        t += 1;
    }
    t
}

/// The bucket-sort bound with the explicit constant
/// [`BUCKET_BOUND_CONSTANT`]: `C_k · ⌈N/B⌉ · max(1, ⌈log_{M/B}(N/B)⌉)` —
/// the `log_{M/B}` gate of the optimal external sorting bound.
pub fn bucket_sort_io_bound(n: usize, b: usize, m: usize) -> u64 {
    BUCKET_BOUND_CONSTANT * n.div_ceil(b) as u64 * ceil_log_base_ratio(n, b, m)
}

/// Deterministic pseudo-random input used by every benchmark run, so results
/// are reproducible across machines and PRs.
pub fn bench_input(n: usize, salt: u64) -> Vec<Element> {
    (0..n)
        .map(|i| Element::keyed(extmem::util::hash64(i as u64, salt), i))
        .collect()
}

/// One timed run of the Lemma 2 sort over a re-encrypting store with any
/// backing (`ExtMem` or `FileStore`): asserts the output is sorted and
/// returns the layer's I/O count and the elapsed time.
fn run_encrypted_sort<S: extmem::BackingStore>(
    mut enc: EncryptedStore<S>,
    cells: &[Cell],
    m: usize,
    expected: &[Element],
) -> (IoStats, u64) {
    let eh = enc.alloc_array_from_cells(cells);
    let (ereport, ns) = timed(|| external_oblivious_sort(&mut enc, &eh, m, SortOrder::Ascending));
    assert_eq!(
        enc.snapshot_cells(&eh)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
        expected,
        "encrypted sort failed"
    );
    (ereport.io, ns)
}

/// One timed run of the bucket sort over a re-encrypting store with any
/// backing: asserts the output is sorted and returns the I/O count, the
/// access trace and the elapsed time.
fn run_encrypted_bucket_sort<S: extmem::BackingStore>(
    mut enc: EncryptedStore<S>,
    cells: &[Cell],
    m: usize,
    expected: &[Element],
    bcfg: &BucketSortConfig,
) -> (IoStats, extmem::AccessTrace, u64) {
    let beh = enc.alloc_array_from_cells(cells);
    enc.enable_trace();
    let (bereport, ns) = timed(|| {
        bucket_oblivious_sort(&mut enc, &beh, m, SortOrder::Ascending, bcfg)
            .unwrap_or_else(|e| panic!("encrypted bucket sort failed: {e}"))
    });
    assert_eq!(
        enc.snapshot_cells(&beh)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
        expected,
        "encrypted bucket sort mis-sorted"
    );
    let betrace = enc.take_trace().expect("tracing was enabled");
    (bereport.io, betrace, ns)
}

/// Measures one grid point. Runs the optimized sorter always, the naive
/// baseline when `run_naive` is set (it costs `Θ((N/B) log² N)` simulated
/// I/Os, which is cheap to simulate but noisy to read), and — when
/// `backends` is set — the wall-clock backend sweep: both engines over
/// `FileStore` and `Encrypted(FileStore)` plus the bucket engine over
/// `PrefetchingStore<FileStore>` and `Prefetching(Encrypted(FileStore))`
/// (decrypt-ahead workers against the batched-keystream span path), every
/// file-backed trace asserted byte-identical to the `ExtMem` reference. The
/// full `Prefetching(Auth(Encrypted(FileStore)))` stack also runs once on
/// two same-shape inputs and must produce identical logical traces and I/O
/// counts — the MAC arrays shift the address layout, so data-independence
/// rather than ExtMem byte-parity is the assertable property there. Panics
/// if any sorter fails to actually sort — a benchmark of a wrong algorithm
/// is meaningless.
pub fn run_sort_point(point: GridPoint, run_naive: bool, backends: bool) -> SortBenchResult {
    let GridPoint { n, b, m } = point;
    let input = bench_input(n, 0xB0B);
    let mut expected = input.clone();
    expected.sort_unstable();

    let mut mem = ExtMem::with_trace(b);
    let h = mem.alloc_array_from_elements(&input);
    let report = external_oblivious_sort(&mut mem, &h, m, SortOrder::Ascending);
    assert_eq!(
        mem.snapshot_elements(&h),
        expected,
        "optimized sort failed at N={n} B={b} M={m}"
    );
    let optimized = report.io;
    let l2trace = mem.take_trace().expect("tracing was enabled");

    // The same sort over the re-encrypting store: every block is decrypted on
    // read and re-encrypted (fresh nonce) on write, yet the I/O count is
    // identical — the trait-generic sort closes the ROADMAP's
    // sort-over-EncryptedStore item. In the backend sweep the ciphertext
    // lives in a real file, so the timing covers cipher + file system work.
    let ecells: Vec<Cell> = input.iter().copied().map(Some).collect();
    let (encrypted_io, lemma2_encfile_ns) = if backends {
        let fs = FileStore::temp(b).expect("tempdir-backed block file");
        run_encrypted_sort(
            EncryptedStore::with_backing(fs, 0x50F7),
            &ecells,
            m,
            &expected,
        )
    } else {
        run_encrypted_sort(EncryptedStore::new(b, 0x50F7), &ecells, m, &expected)
    };
    assert_eq!(
        encrypted_io, optimized,
        "the encryption layer must add zero I/Os to the sort at N={n} B={b} M={m}"
    );

    // The plain file-backed Lemma 2 sort: real reads and writes, and the
    // server-visible trace must match the simulator's byte for byte.
    let lemma2_file_ns = if backends {
        let mut fs = FileStore::temp(b).expect("tempdir-backed block file");
        let fh = fs.alloc_array_from_elements(&input);
        fs.enable_trace();
        let (frep, ns) = timed(|| external_oblivious_sort(&mut fs, &fh, m, SortOrder::Ascending));
        assert_eq!(
            fs.snapshot_elements(&fh),
            expected,
            "file-backed sort failed at N={n} B={b} M={m}"
        );
        assert_eq!(
            frep.io, optimized,
            "the file store must count the same I/Os at N={n} B={b} M={m}"
        );
        let ftrace = fs.take_trace().expect("tracing was enabled");
        assert_eq!(
            ftrace, l2trace,
            "FileStore sort trace must be byte-identical to ExtMem at N={n} B={b} M={m}"
        );
        ns
    } else {
        0
    };

    // The randomized bucket oblivious sort head-to-head, plaintext and
    // encrypted, with the access traces captured. Both runs use the same
    // fixed seed, so beyond equal outputs and equal I/O counts the two
    // traces must be *byte-identical* — the encryption layer may not perturb
    // the server-visible access pattern in any way.
    let bcfg = BucketSortConfig::seeded(BUCKET_SORT_SEED);
    let mut bmem = ExtMem::with_trace(b);
    let bh = bmem.alloc_array_from_elements(&input);
    let bucket_report = bucket_oblivious_sort(&mut bmem, &bh, m, SortOrder::Ascending, &bcfg)
        .unwrap_or_else(|e| panic!("bucket sort failed at N={n} B={b} M={m}: {e}"));
    assert_eq!(
        bmem.snapshot_elements(&bh),
        expected,
        "bucket sort mis-sorted at N={n} B={b} M={m}"
    );
    let bucket = bucket_report.io;
    let btrace = bmem.take_trace().expect("tracing was enabled");

    let (bucket_encrypted_io, betrace, bucket_encfile_ns) = if backends {
        let fs = FileStore::temp(b).expect("tempdir-backed block file");
        run_encrypted_bucket_sort(
            EncryptedStore::with_backing(fs, 0x50F8),
            &ecells,
            m,
            &expected,
            &bcfg,
        )
    } else {
        run_encrypted_bucket_sort(EncryptedStore::new(b, 0x50F8), &ecells, m, &expected, &bcfg)
    };
    assert_eq!(
        bucket_encrypted_io, bucket,
        "the encryption layer must add zero I/Os to the bucket sort at N={n} B={b} M={m}"
    );
    assert_eq!(
        btrace, betrace,
        "plaintext and encrypted bucket-sort traces must be byte-identical"
    );

    // The headline wall-clock pair: the bucket sort over the plain file
    // store (synchronous loads) versus the same sort over
    // `PrefetchingStore<FileStore>`, whose shape-derived hints let a worker
    // pool overlap reads with the oblivious routing work. The prefetching
    // run's *logical* trace — recorded in foreground request order — must
    // still match the simulator's byte for byte: read-ahead is a latency
    // optimization, never a visible access-pattern change.
    let (
        lemma2_extmem_ns,
        bucket_extmem_ns,
        bucket_file_ns,
        bucket_prefetch_ns,
        bucket_encfile_ns,
        encrypted_prefetch_ns,
    ) = if backends {
        // Min-of-N on the wall-clock-gated runs, with the repetitions
        // INTERLEAVED (plain, prefetch, plain, prefetch, ...) so both
        // backends sample the same noise windows — VM clock drift across a
        // bench run is larger than the margin under test, so back-to-back
        // batches would compare different weather, not different backends.
        // The logical work is identical across repetitions (same input,
        // same seed, asserted below), so the minimum is the cleanest
        // estimate of each backend's intrinsic cost.
        const WALL_CLOCK_REPS: usize = 5;
        let mut lemma2_extmem_ns = u64::MAX;
        let mut bucket_extmem_ns = u64::MAX;
        let mut file_ns = u64::MAX;
        let mut prefetch_ns = u64::MAX;
        let mut encfile_ns = u64::MAX;
        let mut enc_prefetch_ns = u64::MAX;
        for _ in 0..WALL_CLOCK_REPS {
            // The in-memory pair: both engines over untraced `ExtMem`,
            // where no store layer hides the client's in-cache work.
            let mut lmem = ExtMem::new(b);
            let lh = lmem.alloc_array_from_elements(&input);
            let (_, ns) =
                timed(|| external_oblivious_sort(&mut lmem, &lh, m, SortOrder::Ascending));
            lemma2_extmem_ns = lemma2_extmem_ns.min(ns);
            assert_eq!(
                lmem.snapshot_elements(&lh),
                expected,
                "Lemma 2 rerun mis-sorted"
            );
            let mut kmem = ExtMem::new(b);
            let kh = kmem.alloc_array_from_elements(&input);
            let (_, ns) = timed(|| {
                bucket_oblivious_sort(&mut kmem, &kh, m, SortOrder::Ascending, &bcfg)
                    .unwrap_or_else(|e| panic!("bucket sort rerun failed: {e}"))
            });
            bucket_extmem_ns = bucket_extmem_ns.min(ns);
            assert_eq!(
                kmem.snapshot_elements(&kh),
                expected,
                "bucket rerun mis-sorted"
            );

            let mut fs = FileStore::temp(b).expect("tempdir-backed block file");
            let fh = fs.alloc_array_from_elements(&input);
            fs.enable_trace();
            let (frep, ns) = timed(|| {
                bucket_oblivious_sort(&mut fs, &fh, m, SortOrder::Ascending, &bcfg)
                    .unwrap_or_else(|e| panic!("file-backed bucket sort failed: {e}"))
            });
            file_ns = file_ns.min(ns);
            assert_eq!(
                fs.snapshot_elements(&fh),
                expected,
                "file-backed bucket sort mis-sorted at N={n} B={b} M={m}"
            );
            assert_eq!(frep.io, bucket, "file-backed bucket I/Os diverged");
            let ftrace = fs.take_trace().expect("tracing was enabled");
            assert_eq!(
                ftrace, btrace,
                "FileStore bucket trace must be byte-identical to ExtMem at N={n} B={b} M={m}"
            );

            let mut pfs = FileStore::temp(b).expect("tempdir-backed block file");
            let ph = pfs.alloc_array_from_elements(&input);
            let mut ps = PrefetchingStore::new(pfs);
            ps.enable_trace();
            let (prep, ns) = timed(|| {
                let rep = bucket_oblivious_sort(&mut ps, &ph, m, SortOrder::Ascending, &bcfg)
                    .unwrap_or_else(|e| panic!("prefetching bucket sort failed: {e}"));
                // Durability is part of the measured cost: flush the
                // write-behind buffer inside the timed region.
                ps.flush_writes()
                    .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
                rep
            });
            prefetch_ns = prefetch_ns.min(ns);
            assert_eq!(
                ps.inner().snapshot_elements(&ph),
                expected,
                "prefetching bucket sort mis-sorted at N={n} B={b} M={m}"
            );
            assert_eq!(prep.io, bucket, "prefetching bucket I/Os diverged");
            let ptrace = ps.take_trace().expect("tracing was enabled");
            assert_eq!(
                ptrace, btrace,
                "PrefetchingStore bucket trace must be byte-identical to ExtMem at N={n} B={b} M={m}"
            );

            // The encrypted pair, interleaved the same way: the plain
            // `Encrypted(FileStore)` (synchronous decrypt-on-load) against
            // `Prefetching(Encrypted(FileStore))` — decrypt-ahead workers,
            // batched keystream, write-behind spans re-encrypted off the
            // foreground thread.
            let (eio, etrace, ns) = run_encrypted_bucket_sort(
                EncryptedStore::with_backing(
                    FileStore::temp(b).expect("tempdir-backed block file"),
                    0x50F8,
                ),
                &ecells,
                m,
                &expected,
                &bcfg,
            );
            encfile_ns = encfile_ns.min(ns);
            assert_eq!(eio, bucket, "encrypted bucket I/Os diverged");
            assert_eq!(etrace, btrace, "encrypted bucket trace diverged");

            let mut penc = EncryptedStore::with_backing(
                FileStore::temp(b).expect("tempdir-backed block file"),
                0x50F8,
            );
            let peh = penc.alloc_array_from_cells(&ecells);
            let mut pes = PrefetchingStore::new(penc);
            pes.enable_trace();
            let (perep, ns) = timed(|| {
                let rep = bucket_oblivious_sort(&mut pes, &peh, m, SortOrder::Ascending, &bcfg)
                    .unwrap_or_else(|e| panic!("encrypted prefetching bucket sort failed: {e}"));
                pes.flush_writes()
                    .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
                rep
            });
            enc_prefetch_ns = enc_prefetch_ns.min(ns);
            assert_eq!(
                pes.inner()
                    .snapshot_cells(&peh)
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>(),
                expected,
                "encrypted prefetching bucket sort mis-sorted at N={n} B={b} M={m}"
            );
            assert_eq!(
                perep.io, bucket,
                "encrypted prefetching bucket I/Os diverged"
            );
            let petrace = pes.take_trace().expect("tracing was enabled");
            assert_eq!(
                petrace, btrace,
                "Prefetching(Encrypted(FileStore)) bucket trace must be byte-identical to ExtMem \
                 at N={n} B={b} M={m}"
            );
        }

        // Full-stack obliviousness: a sort through
        // `Prefetching(Auth(Encrypted(FileStore)))` — spans MACed as a
        // batch on write, verified ahead on worker threads. The auth layer
        // interleaves MAC arrays into the address space, so its layout (and
        // hence its trace) cannot be compared to ExtMem's; instead the
        // logical trace is asserted *data-independent*: two different
        // same-shape inputs must produce byte-identical traces and I/Os.
        // The Lemma 2 engine is the right probe here — its trace is a
        // function of shape alone, while the bucket engine's is a
        // deterministic function of (shape, seed, data).
        {
            use extmem::{AuthenticatedStore, BlockStore};
            let run_full_stack = |cells: &[Cell]| {
                let enc = EncryptedStore::with_backing(
                    FileStore::temp(b).expect("tempdir-backed block file"),
                    0x50F8,
                );
                let mut auth = AuthenticatedStore::new(enc, 0x4D4143);
                let ah = BlockStore::alloc_array(&mut auth, cells.len());
                auth.try_store_span(&ah, 0, cells)
                    .unwrap_or_else(|e| panic!("full-stack populate failed: {e}"));
                let mut ps = PrefetchingStore::new(auth);
                ps.enable_trace();
                let rep = external_oblivious_sort(&mut ps, &ah, m, SortOrder::Ascending);
                ps.flush_writes()
                    .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
                let trace = ps.take_trace().expect("tracing was enabled");
                let mut sorted = Vec::with_capacity(cells.len());
                for i in 0..ah.n_blocks() {
                    let blk = ps.load_block(&ah, i);
                    sorted.extend(blk.slots().iter().flatten().copied());
                    ps.recycle(blk);
                }
                (rep.io, trace, sorted)
            };
            let (io_a, trace_a, sorted_a) = run_full_stack(&ecells);
            assert_eq!(
                sorted_a, expected,
                "full-stack sort mis-sorted at N={n} B={b} M={m}"
            );
            let other_input = bench_input(n, 0xB0C);
            let other_cells: Vec<Cell> = other_input.iter().copied().map(Some).collect();
            let (io_b, trace_b, _) = run_full_stack(&other_cells);
            assert_eq!(
                io_a, io_b,
                "full-stack I/O counts must be input-independent at N={n} B={b} M={m}"
            );
            assert_eq!(
                trace_a, trace_b,
                "Prefetching(Auth(Encrypted(FileStore))) traces must be byte-identical across \
                 same-shape inputs at N={n} B={b} M={m}"
            );
        }
        (
            lemma2_extmem_ns,
            bucket_extmem_ns,
            file_ns,
            prefetch_ns,
            encfile_ns,
            enc_prefetch_ns,
        )
    } else {
        (0, 0, 0, 0, bucket_encfile_ns, 0)
    };

    let (naive, naive_levels) = if run_naive {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_elements(&input);
        let nrep = naive_external_bitonic_sort(&mut mem, &h, m, SortOrder::Ascending);
        assert_eq!(
            mem.snapshot_elements(&h),
            expected,
            "naive sort failed at N={n} B={b} M={m}"
        );
        (Some(nrep.io), Some(nrep.levels))
    } else {
        (None, None)
    };

    let bound_total = sort_io_bound(n, b, m);
    let bucket_bound_total = bucket_sort_io_bound(n, b, m);
    let timings = backends.then_some(SortTimings {
        lemma2: BackendNanos {
            extmem_ns: lemma2_extmem_ns,
            file_ns: lemma2_file_ns,
            encrypted_file_ns: lemma2_encfile_ns,
        },
        bucket: BackendNanos {
            extmem_ns: bucket_extmem_ns,
            file_ns: bucket_file_ns,
            encrypted_file_ns: bucket_encfile_ns,
        },
        bucket_prefetch_ns,
        encrypted_prefetch_ns,
    });
    SortBenchResult {
        point,
        optimized,
        report,
        encrypted: encrypted_io,
        bucket,
        bucket_report,
        bucket_encrypted: bucket_encrypted_io,
        bucket_bound_total,
        bucket_within_bound: bucket.total() <= bucket_bound_total,
        naive,
        naive_levels,
        bound_total,
        within_bound: optimized.total() <= bound_total,
        timings,
    }
}

/// The default grid: `B = 64`, `N ∈ {2^14, 2^16, 2^18}`,
/// `M ∈ {2^10, 2^13}` — the 3×2 grid the acceptance criteria call for,
/// including the headline point `(2^18, 64, 2^13)`.
pub fn default_grid() -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for &n in &[1usize << 14, 1 << 16, 1 << 18] {
        for &m in &[1usize << 10, 1 << 13] {
            grid.push(GridPoint { n, b: 64, m });
        }
    }
    grid
}

/// A small smoke grid (`N = 2^12`) cheap enough to run in CI on every push:
/// exercises the JSON emitters and the bound gates without the full-size
/// simulation.
pub fn smoke_grid() -> Vec<GridPoint> {
    vec![
        GridPoint {
            n: 1 << 12,
            b: 64,
            m: 1 << 9,
        },
        GridPoint {
            n: 1 << 12,
            b: 64,
            m: 1 << 10,
        },
    ]
}

/// The compaction bound `C_c · ⌈N/B⌉ · (1 + ⌈log_β(⌈N/M⌉)⌉)` with base
/// `β = max(2, M/(8B))` — one log factor, not two, and one whose base grows
/// with the cache. The measured count is
/// `⌈N/B⌉·(6 + 4·⌈(⌈log₂N⌉ − log₂W)/g⌉)` with `g = max(1, log₂(W/B))` and
/// `M/12 < W ≤ M/6`, which stays within `13·⌈N/B⌉·(1 + ⌈log_β(⌈N/M⌉)⌉)`.
pub fn compact_io_bound(n: usize, b: usize, m: usize) -> u64 {
    let ratio = n.div_ceil(m) as u64;
    let base = (m / (8 * b)).max(2) as u64;
    let (mut lg, mut pow) = (0u64, 1u64);
    while pow < ratio {
        pow = pow.saturating_mul(base);
        lg += 1;
    }
    COMPACT_BOUND_CONSTANT * n.div_ceil(b) as u64 * (1 + lg)
}

/// Deterministic pseudo-random occupancy (roughly half the cells occupied)
/// used by every compaction benchmark run.
pub fn bench_occupancy(n: usize, salt: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            if extmem::util::hash64(i as u64, salt).is_multiple_of(2) {
                Some(Element::keyed(i as u64, i))
            } else {
                None
            }
        })
        .collect()
}

/// Measured result of one compaction grid point.
#[derive(Clone, Debug)]
pub struct CompactBenchResult {
    /// The parameters measured.
    pub point: GridPoint,
    /// I/O statistics of the optimized external butterfly compaction.
    pub optimized: IoStats,
    /// Structural report of the optimized compaction.
    pub report: CompactReport,
    /// I/Os of the identical run over the re-encrypting store (always equal
    /// to `optimized` — the encryption layer costs zero extra I/Os).
    pub encrypted: IoStats,
    /// I/O statistics of the naive full-depth baseline, if it was run.
    pub naive: Option<IoStats>,
    /// Levels the naive baseline executed, if it was run.
    pub naive_levels: Option<usize>,
    /// The bound `C_c · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉)`.
    pub bound_total: u64,
    /// Whether the optimized compaction satisfies the bound.
    pub within_bound: bool,
    /// Wall-clock timings over `ExtMem`, `FileStore` and
    /// `Encrypted(FileStore)` — `None` when run I/O-count-only. The
    /// file-backed trace is asserted byte-identical to `ExtMem` first.
    pub elapsed: Option<BackendNanos>,
}

impl CompactBenchResult {
    /// Naive-over-optimized I/O ratio, if the naive baseline was run.
    pub fn speedup(&self) -> Option<f64> {
        self.naive
            .map(|n| n.total() as f64 / self.optimized.total().max(1) as f64)
    }
}

/// One timed run of the butterfly compaction over a re-encrypting store with
/// any backing: asserts the compacted output and returns the I/O count and
/// the elapsed time.
fn run_encrypted_compact<S: extmem::BackingStore>(
    mut enc: EncryptedStore<S>,
    cells: &[Cell],
    m: usize,
    expected: &[Cell],
) -> (IoStats, u64) {
    let eh = enc.alloc_array_from_cells(cells);
    let (ereport, ns) = timed(|| compact(&mut enc, &eh, m));
    assert_eq!(
        enc.snapshot_cells(&eh),
        expected,
        "encrypted compaction failed"
    );
    (ereport.io, ns)
}

/// Measures one compaction grid point: the optimized butterfly compaction on
/// a plain arena, the identical run over an [`EncryptedStore`] (asserting
/// equal I/O counts and equal output), optionally the naive full-depth
/// baseline, and — when `backends` is set — timed runs over `FileStore`
/// (trace asserted byte-identical to `ExtMem`) and `Encrypted(FileStore)`.
/// Panics if any of them mis-compacts — a benchmark of a wrong algorithm is
/// meaningless.
pub fn run_compact_point(point: GridPoint, run_naive: bool, backends: bool) -> CompactBenchResult {
    let GridPoint { n, b, m } = point;
    let cells = bench_occupancy(n, 0xC0);
    let mut expected: Vec<Cell> = cells.iter().filter(|c| c.is_some()).copied().collect();
    expected.resize(n, None);

    let mut mem = ExtMem::with_trace(b);
    let h = mem.alloc_array_from_cells(&cells);
    let (report, extmem_ns) = timed(|| compact(&mut mem, &h, m));
    assert_eq!(
        mem.snapshot_cells(&h),
        expected,
        "optimized compaction failed at N={n} B={b} M={m}"
    );
    let optimized = report.io;
    let trace = mem.take_trace().expect("tracing was enabled");

    // The same algorithm over the re-encrypting store: every block is
    // decrypted on read and re-encrypted (fresh nonce) on write, yet the I/O
    // count and the address trace are identical. In the backend sweep the
    // ciphertext lives in a real file.
    let (encrypted_io, encrypted_file_ns) = if backends {
        let fs = FileStore::temp(b).expect("tempdir-backed block file");
        run_encrypted_compact(
            EncryptedStore::with_backing(fs, 0x0D0_5EC),
            &cells,
            m,
            &expected,
        )
    } else {
        run_encrypted_compact(EncryptedStore::new(b, 0x0D0_5EC), &cells, m, &expected)
    };
    assert_eq!(
        encrypted_io, optimized,
        "the encryption layer must add zero I/Os"
    );

    // The plain file-backed run, its trace checked against the simulator's.
    let file_ns = if backends {
        let mut fs = FileStore::temp(b).expect("tempdir-backed block file");
        let fh = fs.alloc_array_from_cells(&cells);
        fs.enable_trace();
        let (frep, ns) = timed(|| compact(&mut fs, &fh, m));
        assert_eq!(
            fs.snapshot_cells(&fh),
            expected,
            "file-backed compaction failed at N={n} B={b} M={m}"
        );
        assert_eq!(frep.io, optimized, "file-backed compaction I/Os diverged");
        let ftrace = fs.take_trace().expect("tracing was enabled");
        assert_eq!(
            ftrace, trace,
            "FileStore compaction trace must be byte-identical to ExtMem at N={n} B={b} M={m}"
        );
        ns
    } else {
        0
    };

    let (naive, naive_levels) = if run_naive {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        let nrep = naive_external_butterfly_compact(&mut mem, &h, m);
        assert_eq!(
            mem.snapshot_cells(&h),
            expected,
            "naive compaction failed at N={n} B={b} M={m}"
        );
        (Some(nrep.io), Some(nrep.levels))
    } else {
        (None, None)
    };

    let bound_total = compact_io_bound(n, b, m);
    CompactBenchResult {
        point,
        optimized,
        report,
        encrypted: encrypted_io,
        naive,
        naive_levels,
        bound_total,
        within_bound: optimized.total() <= bound_total,
        elapsed: backends.then_some(BackendNanos {
            extmem_ns,
            file_ns,
            encrypted_file_ns,
        }),
    }
}

/// The selection bound `C_s · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉)` — the single-log
/// form selection inherits from prune-and-compact.
pub fn select_io_bound(n: usize, b: usize, m: usize) -> u64 {
    SELECT_BOUND_CONSTANT * n.div_ceil(b) as u64 * (1 + ceil_log2_ratio(n, m))
}

/// Measured result of one selection grid point.
#[derive(Clone, Debug)]
pub struct SelectBenchResult {
    /// The parameters measured.
    pub point: GridPoint,
    /// The rank selected (the median, `k = N/2`).
    pub k: usize,
    /// I/O statistics of the optimized external selection.
    pub optimized: IoStats,
    /// Structural report of the optimized selection.
    pub report: SelectReport,
    /// I/Os of the identical run over the re-encrypting store (always equal
    /// to `optimized` — the encryption layer costs zero extra I/Os, and
    /// [`run_select_point`] asserts the traces are byte-identical too).
    pub encrypted: IoStats,
    /// I/O statistics of the naive sort-then-index baseline, if it was run.
    pub naive: Option<IoStats>,
    /// Levels the naive baseline's full-depth sort executed, if it was run.
    pub naive_levels: Option<usize>,
    /// The bound `C_s · ⌈N/B⌉ · (1 + ⌈log2(⌈N/M⌉)⌉)`.
    pub bound_total: u64,
    /// Whether the optimized selection satisfies the bound.
    pub within_bound: bool,
    /// Wall-clock timings over `ExtMem`, `FileStore` and
    /// `Encrypted(FileStore)` — `None` when run I/O-count-only. The
    /// file-backed trace is asserted byte-identical to `ExtMem` first.
    pub elapsed: Option<BackendNanos>,
}

impl SelectBenchResult {
    /// Naive-over-optimized I/O ratio, if the naive baseline was run.
    pub fn speedup(&self) -> Option<f64> {
        self.naive
            .map(|n| n.total() as f64 / self.optimized.total().max(1) as f64)
    }
}

/// Measures one selection grid point at `k = N/2` (the median): the optimized
/// selection on a plain arena with its trace captured, the identical run over
/// an [`EncryptedStore`] (asserting an equal result, equal I/O counts **and a
/// byte-identical access trace**), and optionally the naive sort-then-index
/// baseline. When `backends` is set the encrypted run is file-backed and a
/// plain `FileStore` run is added, both timed, the file trace asserted
/// byte-identical to `ExtMem`. Panics if any of them mis-selects — a
/// benchmark of a wrong algorithm is meaningless.
pub fn run_select_point(point: GridPoint, run_naive: bool, backends: bool) -> SelectBenchResult {
    let GridPoint { n, b, m } = point;
    let input = bench_input(n, 0x5E1);
    let k = n / 2;
    let mut reference: Vec<(u64, usize)> =
        input.iter().enumerate().map(|(j, e)| (e.key, j)).collect();
    reference.sort_unstable();
    let expected = input[reference[k].1];

    let mut mem = ExtMem::with_trace(b);
    let h = mem.alloc_array_from_elements(&input);
    let ((got, report), extmem_ns) = timed(|| select_kth(&mut mem, &h, m, k));
    let trace = mem.take_trace().expect("trace was enabled");
    assert_eq!(
        got, expected,
        "optimized selection failed at N={n} B={b} M={m}"
    );
    let optimized = report.io;

    // The same selection over the re-encrypting store: equal answer, equal
    // I/O count, and the adversary's view — the address trace — is identical
    // byte for byte. In the backend sweep the ciphertext lives in a real
    // file.
    let ecells: Vec<Cell> = input.iter().copied().map(Some).collect();
    let (egot, encrypted_io, etrace, encrypted_file_ns) = if backends {
        let fs = FileStore::temp(b).expect("tempdir-backed block file");
        let mut enc = EncryptedStore::with_backing(fs, 0x5EC_5E1);
        let eh = enc.alloc_array_from_cells(&ecells);
        enc.enable_trace();
        let ((egot, ereport), ns) = timed(|| select_kth(&mut enc, &eh, m, k));
        let etrace = enc.take_trace().expect("trace was enabled");
        (egot, ereport.io, etrace, ns)
    } else {
        let mut enc = EncryptedStore::new(b, 0x5EC_5E1);
        let eh = enc.alloc_array_from_cells(&ecells);
        enc.enable_trace();
        let ((egot, ereport), ns) = timed(|| select_kth(&mut enc, &eh, m, k));
        let etrace = enc.take_trace().expect("trace was enabled");
        (egot, ereport.io, etrace, ns)
    };
    assert_eq!(
        egot, expected,
        "encrypted selection failed at N={n} B={b} M={m}"
    );
    assert_eq!(
        encrypted_io, optimized,
        "the encryption layer must add zero I/Os to selection"
    );
    assert_eq!(
        trace, etrace,
        "plaintext and encrypted selection traces must be byte-identical at N={n} B={b} M={m}"
    );

    // The plain file-backed run, its trace checked against the simulator's.
    let file_ns = if backends {
        let mut fs = FileStore::temp(b).expect("tempdir-backed block file");
        let fh = fs.alloc_array_from_elements(&input);
        fs.enable_trace();
        let ((fgot, frep), ns) = timed(|| select_kth(&mut fs, &fh, m, k));
        assert_eq!(
            fgot, expected,
            "file-backed selection failed at N={n} B={b} M={m}"
        );
        assert_eq!(frep.io, optimized, "file-backed selection I/Os diverged");
        let ftrace = fs.take_trace().expect("tracing was enabled");
        assert_eq!(
            ftrace, trace,
            "FileStore selection trace must be byte-identical to ExtMem at N={n} B={b} M={m}"
        );
        ns
    } else {
        0
    };

    let (naive, naive_levels) = if run_naive {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_elements(&input);
        let (ngot, nrep) = naive_select_kth(&mut mem, &h, m, k);
        assert_eq!(
            ngot, expected,
            "naive selection failed at N={n} B={b} M={m}"
        );
        (Some(nrep.io), Some(nrep.levels))
    } else {
        (None, None)
    };

    let bound_total = select_io_bound(n, b, m);
    SelectBenchResult {
        point,
        k,
        optimized,
        report,
        encrypted: encrypted_io,
        naive,
        naive_levels,
        bound_total,
        within_bound: optimized.total() <= bound_total,
        elapsed: backends.then_some(BackendNanos {
            extmem_ns,
            file_ns,
            encrypted_file_ns,
        }),
    }
}

/// Emits one point's `"elapsed_ns"` JSON line: a per-backend object when the
/// wall-clock sweep ran, `null` otherwise. When timings are present the
/// emitting `run_*_point` has already asserted the file-backed trace is
/// byte-identical to `ExtMem`, so a `"file_trace_identical": true` line
/// rides along.
fn emit_elapsed(s: &mut String, elapsed: Option<&BackendNanos>) {
    match elapsed {
        Some(t) => {
            let _ = writeln!(
                s,
                "      \"elapsed_ns\": {{\"extmem\": {}, \"file\": {}, \"encrypted_file\": {}}},",
                t.extmem_ns, t.file_ns, t.encrypted_file_ns
            );
            s.push_str("      \"file_trace_identical\": true,\n");
        }
        None => s.push_str("      \"elapsed_ns\": null,\n"),
    }
}

/// Renders the selection results as the `BENCH_select.json` document
/// (hand-rolled JSON; the workspace deliberately has no external
/// dependencies).
pub fn select_to_json(results: &[SelectBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"external_oblivious_selection\",\n");
    s.push_str("  \"io_model\": \"1 I/O per block read or write, ExtMem::stats\",\n");
    s.push_str("  \"bound\": \"C * ceil(N/B) * (1 + ceil(log2(ceil(N/M))))\",\n");
    let _ = writeln!(s, "  \"bound_constant\": {SELECT_BOUND_CONSTANT},");
    s.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let GridPoint { n, b, m } = r.point;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"n\": {n},");
        let _ = writeln!(s, "      \"b\": {b},");
        let _ = writeln!(s, "      \"m\": {m},");
        let _ = writeln!(s, "      \"k\": {},", r.k);
        let _ = writeln!(s, "      \"optimized_reads\": {},", r.optimized.reads);
        let _ = writeln!(s, "      \"optimized_writes\": {},", r.optimized.writes);
        let _ = writeln!(s, "      \"optimized_total\": {},", r.optimized.total());
        let _ = writeln!(s, "      \"encrypted_total\": {},", r.encrypted.total());
        // run_select_point asserts the byte-identical plaintext/encrypted
        // trace before a result is ever constructed.
        s.push_str("      \"encrypted_trace_identical\": true,\n");
        emit_elapsed(&mut s, r.elapsed.as_ref());
        let _ = writeln!(s, "      \"rounds\": {},", r.report.rounds);
        let _ = writeln!(s, "      \"chunk_elems\": {},", r.report.chunk_elems);
        let _ = writeln!(s, "      \"final_window\": {},", r.report.final_window);
        let _ = writeln!(s, "      \"bound_total\": {},", r.bound_total);
        match (r.naive, r.naive_levels, r.speedup()) {
            (Some(naive), Some(levels), Some(speedup)) => {
                let _ = writeln!(s, "      \"naive_total\": {},", naive.total());
                let _ = writeln!(s, "      \"naive_levels\": {levels},");
                let _ = writeln!(s, "      \"speedup_vs_naive\": {speedup:.2},");
            }
            _ => {
                s.push_str("      \"naive_total\": null,\n");
            }
        }
        let _ = writeln!(s, "      \"within_bound\": {}", r.within_bound);
        s.push_str("    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders a human-readable table of the selection results.
pub fn select_to_table(results: &[SelectBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "N", "B", "M", "opt I/Os", "naive I/Os", "bound", "speedup", "file ms", "encf ms", "ok"
    );
    for r in results {
        let GridPoint { n, b, m } = r.point;
        let naive = r
            .naive
            .map(|x| x.total().to_string())
            .unwrap_or_else(|| "-".into());
        let speedup = r
            .speedup()
            .map(|x| format!("{x:.2}x"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            s,
            "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
            n,
            b,
            m,
            r.optimized.total(),
            naive,
            r.bound_total,
            speedup,
            fmt_ms(r.elapsed.as_ref().map(|t| t.file_ns)),
            fmt_ms(r.elapsed.as_ref().map(|t| t.encrypted_file_ns)),
            if r.within_bound { "yes" } else { "NO" }
        );
    }
    s
}

/// Renders the results as the `BENCH_sort.json` document (hand-rolled JSON;
/// the workspace deliberately has no external dependencies).
pub fn to_json(results: &[SortBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"external_oblivious_sort\",\n");
    s.push_str("  \"io_model\": \"1 I/O per block read or write, ExtMem::stats\",\n");
    s.push_str("  \"bound\": \"C * ceil(N/B) * (1 + ceil(log2(ceil(N/M)))^2)\",\n");
    let _ = writeln!(s, "  \"bound_constant\": {BOUND_CONSTANT},");
    s.push_str("  \"bucket_bound\": \"C_k * ceil(N/B) * max(1, ceil(log_{M/B}(N/B)))\",\n");
    let _ = writeln!(s, "  \"bucket_bound_constant\": {BUCKET_BOUND_CONSTANT},");
    let _ = writeln!(s, "  \"bucket_seed\": {BUCKET_SORT_SEED},");
    s.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let GridPoint { n, b, m } = r.point;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"n\": {n},");
        let _ = writeln!(s, "      \"b\": {b},");
        let _ = writeln!(s, "      \"m\": {m},");
        let _ = writeln!(s, "      \"optimized_reads\": {},", r.optimized.reads);
        let _ = writeln!(s, "      \"optimized_writes\": {},", r.optimized.writes);
        let _ = writeln!(s, "      \"optimized_total\": {},", r.optimized.total());
        let _ = writeln!(s, "      \"encrypted_total\": {},", r.encrypted.total());
        match &r.timings {
            Some(t) => {
                let _ = writeln!(
                    s,
                    "      \"lemma2_elapsed_ns\": {{\"extmem\": {}, \"file\": {}, \"encrypted_file\": {}}},",
                    t.lemma2.extmem_ns, t.lemma2.file_ns, t.lemma2.encrypted_file_ns
                );
                let _ = writeln!(
                    s,
                    "      \"bucket_elapsed_ns\": {{\"extmem\": {}, \"file\": {}, \"encrypted_file\": {}}},",
                    t.bucket.extmem_ns, t.bucket.file_ns, t.bucket.encrypted_file_ns
                );
                let _ = writeln!(s, "      \"bucket_prefetch_ns\": {},", t.bucket_prefetch_ns);
                let _ = writeln!(
                    s,
                    "      \"encrypted_prefetch_ns\": {},",
                    t.encrypted_prefetch_ns
                );
                // run_sort_point asserts every file-backed trace is
                // byte-identical to the ExtMem reference before a timing is
                // ever recorded.
                s.push_str("      \"file_trace_identical\": true,\n");
            }
            None => {
                s.push_str("      \"lemma2_elapsed_ns\": null,\n");
                s.push_str("      \"bucket_elapsed_ns\": null,\n");
                s.push_str("      \"bucket_prefetch_ns\": null,\n");
                s.push_str("      \"encrypted_prefetch_ns\": null,\n");
            }
        }
        let _ = writeln!(s, "      \"region_elems\": {},", r.report.region_elems);
        let _ = writeln!(
            s,
            "      \"external_levels\": {},",
            r.report.external_levels
        );
        let _ = writeln!(s, "      \"finish_passes\": {},", r.report.finish_passes);
        let _ = writeln!(s, "      \"bucket_reads\": {},", r.bucket.reads);
        let _ = writeln!(s, "      \"bucket_writes\": {},", r.bucket.writes);
        let _ = writeln!(s, "      \"bucket_total\": {},", r.bucket.total());
        let _ = writeln!(
            s,
            "      \"bucket_encrypted_total\": {},",
            r.bucket_encrypted.total()
        );
        let _ = writeln!(s, "      \"bucket_z\": {},", r.bucket_report.z);
        let _ = writeln!(s, "      \"bucket_levels\": {},", r.bucket_report.levels);
        let _ = writeln!(
            s,
            "      \"bucket_superlevels\": {},",
            r.bucket_report.superlevels
        );
        let _ = writeln!(
            s,
            "      \"bucket_merge_passes\": {},",
            r.bucket_report.merge_passes
        );
        let _ = writeln!(s, "      \"bucket_bound_total\": {},", r.bucket_bound_total);
        let _ = writeln!(
            s,
            "      \"bucket_within_bound\": {},",
            r.bucket_within_bound
        );
        let _ = writeln!(
            s,
            "      \"bucket_speedup_vs_lemma2\": {:.2},",
            r.bucket_speedup_vs_lemma2()
        );
        let _ = writeln!(
            s,
            "      \"bucket_gate_applies\": {},",
            r.bucket_gate_applies()
        );
        let _ = writeln!(s, "      \"bound_total\": {},", r.bound_total);
        match (r.naive, r.naive_levels, r.speedup()) {
            (Some(naive), Some(levels), Some(speedup)) => {
                let _ = writeln!(s, "      \"naive_total\": {},", naive.total());
                let _ = writeln!(s, "      \"naive_levels\": {levels},");
                let _ = writeln!(s, "      \"speedup_vs_naive\": {speedup:.2},");
            }
            _ => {
                s.push_str("      \"naive_total\": null,\n");
            }
        }
        let _ = writeln!(s, "      \"within_bound\": {}", r.within_bound);
        s.push_str("    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders the compaction results as the `BENCH_compact.json` document
/// (hand-rolled JSON; the workspace deliberately has no external
/// dependencies).
pub fn compact_to_json(results: &[CompactBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"external_butterfly_compaction\",\n");
    s.push_str("  \"io_model\": \"1 I/O per block read or write, ExtMem::stats\",\n");
    s.push_str(
        "  \"bound\": \"C * ceil(N/B) * (1 + ceil(log_base(ceil(N/M)))), base = max(2, M/(8B))\",\n",
    );
    let _ = writeln!(s, "  \"bound_constant\": {COMPACT_BOUND_CONSTANT},");
    s.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let GridPoint { n, b, m } = r.point;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"n\": {n},");
        let _ = writeln!(s, "      \"b\": {b},");
        let _ = writeln!(s, "      \"m\": {m},");
        let _ = writeln!(s, "      \"optimized_reads\": {},", r.optimized.reads);
        let _ = writeln!(s, "      \"optimized_writes\": {},", r.optimized.writes);
        let _ = writeln!(s, "      \"optimized_total\": {},", r.optimized.total());
        let _ = writeln!(s, "      \"encrypted_total\": {},", r.encrypted.total());
        emit_elapsed(&mut s, r.elapsed.as_ref());
        let _ = writeln!(s, "      \"window_elems\": {},", r.report.window_elems);
        let _ = writeln!(
            s,
            "      \"in_cache_levels\": {},",
            r.report.in_cache_levels
        );
        let _ = writeln!(
            s,
            "      \"external_levels\": {},",
            r.report.external_levels
        );
        let _ = writeln!(
            s,
            "      \"external_passes\": {},",
            r.report.external_passes
        );
        let _ = writeln!(s, "      \"occupied\": {},", r.report.occupied);
        let _ = writeln!(s, "      \"bound_total\": {},", r.bound_total);
        match (r.naive, r.naive_levels, r.speedup()) {
            (Some(naive), Some(levels), Some(speedup)) => {
                let _ = writeln!(s, "      \"naive_total\": {},", naive.total());
                let _ = writeln!(s, "      \"naive_levels\": {levels},");
                let _ = writeln!(s, "      \"speedup_vs_naive\": {speedup:.2},");
            }
            _ => {
                s.push_str("      \"naive_total\": null,\n");
            }
        }
        let _ = writeln!(s, "      \"within_bound\": {}", r.within_bound);
        s.push_str("    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders a human-readable table of the compaction results.
pub fn compact_to_table(results: &[CompactBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "N", "B", "M", "opt I/Os", "naive I/Os", "bound", "speedup", "file ms", "encf ms", "ok"
    );
    for r in results {
        let GridPoint { n, b, m } = r.point;
        let naive = r
            .naive
            .map(|x| x.total().to_string())
            .unwrap_or_else(|| "-".into());
        let speedup = r
            .speedup()
            .map(|x| format!("{x:.2}x"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            s,
            "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
            n,
            b,
            m,
            r.optimized.total(),
            naive,
            r.bound_total,
            speedup,
            fmt_ms(r.elapsed.as_ref().map(|t| t.file_ns)),
            fmt_ms(r.elapsed.as_ref().map(|t| t.encrypted_file_ns)),
            if r.within_bound { "yes" } else { "NO" }
        );
    }
    s
}

/// Formats nanoseconds as milliseconds with one decimal, `"-"` for a timing
/// that was not measured.
fn fmt_ms(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".into(),
    }
}

/// Renders a human-readable table of the results for terminal output.
pub fn to_table(results: &[SortBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "N",
        "B",
        "M",
        "opt I/Os",
        "bkt I/Os",
        "naive I/Os",
        "bkt bound",
        "bkt/L2",
        "speedup",
        "file ms",
        "pf ms",
        "ok"
    );
    for r in results {
        let GridPoint { n, b, m } = r.point;
        let naive = r
            .naive
            .map(|x| x.total().to_string())
            .unwrap_or_else(|| "-".into());
        let speedup = r
            .speedup()
            .map(|x| format!("{x:.2}x"))
            .unwrap_or_else(|| "-".into());
        let ok = r.within_bound
            && r.bucket_within_bound
            && (!r.bucket_gate_applies() || r.bucket.total() < r.optimized.total());
        let _ = writeln!(
            s,
            "{:>8} {:>4} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}",
            n,
            b,
            m,
            r.optimized.total(),
            r.bucket.total(),
            naive,
            r.bucket_bound_total,
            format!("{:.2}x", r.bucket_speedup_vs_lemma2()),
            speedup,
            fmt_ms(r.timings.as_ref().map(|t| t.bucket.file_ns)),
            fmt_ms(r.timings.as_ref().map(|t| t.bucket_prefetch_ns)),
            if ok { "yes" } else { "NO" }
        );
    }
    s
}

// ---------------------------------------------------------------------------
// The untrusted-server fault benchmark (`BENCH_faults.json`)
// ---------------------------------------------------------------------------

/// One scenario of the fault benchmark: a store stack (authenticated or
/// plain) plus a deterministic fault specification injected underneath it.
#[derive(Clone, Copy, Debug)]
pub struct FaultScenario {
    /// Scenario name as emitted into the JSON.
    pub name: &'static str,
    /// Whether an [`AuthenticatedStore`] sits between the client and the
    /// faulty server.
    pub authenticated: bool,
    /// Fault rates injected during the sort (populate and verification run
    /// fault-free).
    pub spec: FaultSpec,
}

/// The fixed scenario list of the fault benchmark. The rates are chosen so
/// every fault lane fires reliably even on the `N = 2^12` smoke grid; the
/// stale lane runs hotter because replays are only *material* on blocks
/// already rewritten with new content.
pub fn fault_scenarios() -> Vec<FaultScenario> {
    let none = FaultSpec::none();
    vec![
        FaultScenario {
            name: "plain_no_faults",
            authenticated: false,
            spec: none,
        },
        FaultScenario {
            name: "auth_no_faults",
            authenticated: true,
            spec: none,
        },
        FaultScenario {
            name: "auth_transient",
            authenticated: true,
            spec: FaultSpec {
                transient_read_ppm: 20_000,
                ..none
            },
        },
        FaultScenario {
            name: "auth_corrupt",
            authenticated: true,
            spec: FaultSpec {
                corrupt_read_ppm: 2_000,
                ..none
            },
        },
        FaultScenario {
            name: "auth_stale",
            authenticated: true,
            spec: FaultSpec {
                stale_read_ppm: 8_000,
                ..none
            },
        },
        FaultScenario {
            name: "auth_drop",
            authenticated: true,
            spec: FaultSpec {
                drop_write_ppm: 2_000,
                ..none
            },
        },
        // The motivation row: the same corrupting server *without* the
        // authentication layer completes the sort and hands back silently
        // wrong data.
        FaultScenario {
            name: "plain_corrupt_silent",
            authenticated: false,
            spec: FaultSpec {
                corrupt_read_ppm: 2_000,
                ..none
            },
        },
    ]
}

/// Which store sits at the bottom of the fault stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultBackend {
    /// `Auth ∘ Faulty ∘ Encrypted(ExtMem)` — the in-memory simulator.
    ExtMem,
    /// `Auth ∘ Faulty ∘ Encrypted(FileStore)` — a tempdir-backed block file
    /// doing real reads and writes under the whole software stack.
    File,
}

impl FaultBackend {
    /// The backend name emitted into the JSON rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultBackend::ExtMem => "extmem",
            FaultBackend::File => "file",
        }
    }
}

/// Measured result of one fault scenario at one grid point.
#[derive(Clone, Debug)]
pub struct FaultBenchResult {
    /// The parameters measured.
    pub point: GridPoint,
    /// The scenario that produced this row.
    pub scenario: FaultScenario,
    /// The bottom-level store backing this row (`"extmem"` or `"file"`).
    pub backend: &'static str,
    /// Wall-clock nanoseconds of the sort window (including retries).
    pub elapsed_ns: u64,
    /// Bottom-level (server-side) I/Os of the sort window, including MAC
    /// traffic and the final MAC flush when authenticated.
    pub sort_io: IoStats,
    /// Transient retries performed by the retry layer.
    pub retries: u64,
    /// Abstract backoff units slept across those retries.
    pub backoff_units: u64,
    /// Faults actually injected during the sort window.
    pub faults: FaultStats,
    /// The typed error the sort returned, if any (rendered).
    pub run_error: Option<String>,
    /// The typed error the fault-free verified read-back returned, if any.
    pub readback_error: Option<String>,
    /// Whether the read-back matched the expected sorted output (only
    /// meaningful when no error preempted it).
    pub output_correct: Option<bool>,
    /// Bottom-level I/O overhead of this scenario relative to the
    /// `plain_no_faults` baseline at the same point (filled by
    /// [`run_fault_grid`]).
    pub overhead_vs_plain: Option<f64>,
}

impl FaultBenchResult {
    /// Whether tampering surfaced as a typed error (at run time or on the
    /// verified read-back).
    pub fn detected(&self) -> bool {
        self.run_error.is_some() || self.readback_error.is_some()
    }

    /// The row's outcome classification: `"correct"`, `"detected"`, or the
    /// forbidden-under-authentication `"silent_wrong"`.
    pub fn outcome(&self) -> &'static str {
        if self.detected() {
            "detected"
        } else if self.output_correct == Some(true) {
            "correct"
        } else {
            "silent_wrong"
        }
    }
}

/// Measures one fault scenario at one grid point over the chosen backend:
/// populate fault-free, sort with the scenario's faults injected, then
/// verify fault-free. The measured I/O window covers the sort plus (when
/// authenticated) the final MAC flush — exactly the traffic a client pays
/// per operation against an untrusted server.
pub fn run_fault_point(
    point: GridPoint,
    scenario: FaultScenario,
    backend: FaultBackend,
) -> FaultBenchResult {
    match backend {
        FaultBackend::ExtMem => run_fault_point_on(
            point,
            scenario,
            EncryptedStore::new(point.b, 0xFA17_0001),
            backend,
        ),
        FaultBackend::File => {
            let fs = FileStore::temp(point.b).expect("tempdir-backed block file");
            run_fault_point_on(
                point,
                scenario,
                EncryptedStore::with_backing(fs, 0xFA17_0001),
                backend,
            )
        }
    }
}

fn run_fault_point_on<S: extmem::BackingStore>(
    point: GridPoint,
    scenario: FaultScenario,
    enc: EncryptedStore<S>,
    backend: FaultBackend,
) -> FaultBenchResult {
    use extmem::{AuthenticatedStore, BlockStore, FaultyStore, RetryPolicy};
    use odo_core::try_sort;

    let GridPoint { n, b: _, m } = point;
    let input = bench_input(n, 0xFA17);
    let mut expected = input.clone();
    expected.sort_unstable();
    let cells: Vec<Cell> = input.iter().copied().map(Some).collect();
    let policy = RetryPolicy::default();

    let faulty = FaultyStore::new(enc, 0xFA17_0002, FaultSpec::none());

    let check = |got: Result<Vec<Cell>, extmem::StoreError>| match got {
        Ok(out) => {
            let flat: Vec<Element> = out.into_iter().flatten().collect();
            (None, Some(flat == expected))
        }
        Err(e) => (Some(e.to_string()), None),
    };

    if scenario.authenticated {
        let mut auth = AuthenticatedStore::new(faulty, 0xFA17_0003);
        let h = BlockStore::alloc_array(&mut auth, n);
        auth.try_store_span(&h, 0, &cells)
            .expect("fault-free populate");
        auth.flush_macs().expect("fault-free flush");

        let before = auth.inner().inner().io_stats();
        auth.inner_mut().set_spec(scenario.spec);
        let faults_before = auth.inner().fault_stats();
        let (run, elapsed_ns) = timed(|| try_sort(&mut auth, &h, m, SortOrder::Ascending, policy));
        auth.inner_mut().set_spec(FaultSpec::none());
        let faults = auth.inner().fault_stats();
        let _ = auth.flush_macs();
        let after = auth.inner().inner().io_stats();

        let (retries, backoff_units, run_error) = match run {
            Ok((_, retry)) => (retry.retries, retry.backoff_units, None),
            Err(e) => (0, 0, Some(e.to_string())),
        };
        let (readback_error, output_correct) = if run_error.is_some() {
            (None, None)
        } else {
            check(auth.try_load_span(&h, 0, n))
        };
        FaultBenchResult {
            point,
            scenario,
            backend: backend.name(),
            elapsed_ns,
            sort_io: IoStats {
                reads: after.reads - before.reads,
                writes: after.writes - before.writes,
            },
            retries,
            backoff_units,
            faults: FaultStats {
                transient_reads: faults.transient_reads - faults_before.transient_reads,
                corrupt_reads: faults.corrupt_reads - faults_before.corrupt_reads,
                stale_reads: faults.stale_reads - faults_before.stale_reads,
                dropped_writes: faults.dropped_writes - faults_before.dropped_writes,
            },
            run_error,
            readback_error,
            output_correct,
            overhead_vs_plain: None,
        }
    } else {
        let mut faulty = faulty;
        let h = BlockStore::alloc_array(&mut faulty, n);
        faulty
            .try_store_span(&h, 0, &cells)
            .expect("fault-free populate");

        let before = faulty.inner().io_stats();
        faulty.set_spec(scenario.spec);
        let (run, elapsed_ns) =
            timed(|| try_sort(&mut faulty, &h, m, SortOrder::Ascending, policy));
        faulty.set_spec(FaultSpec::none());
        let faults = faulty.fault_stats();
        let after = faulty.inner().io_stats();

        let (retries, backoff_units, run_error) = match run {
            Ok((_, retry)) => (retry.retries, retry.backoff_units, None),
            Err(e) => (0, 0, Some(e.to_string())),
        };
        let (readback_error, output_correct) = if run_error.is_some() {
            (None, None)
        } else {
            check(faulty.try_load_span(&h, 0, n))
        };
        FaultBenchResult {
            point,
            scenario,
            backend: backend.name(),
            elapsed_ns,
            sort_io: IoStats {
                reads: after.reads - before.reads,
                writes: after.writes - before.writes,
            },
            retries,
            backoff_units,
            faults,
            run_error,
            readback_error,
            output_correct,
            overhead_vs_plain: None,
        }
    }
}

/// Runs every [`fault_scenarios`] row at `point` over one backend and fills
/// each result's overhead relative to the same backend's `plain_no_faults`
/// baseline (the fault schedules are seeded per scenario, so the I/O counts
/// — and hence the overheads — are identical across backends; only
/// `elapsed_ns` differs).
pub fn run_fault_scenarios(point: GridPoint, backend: FaultBackend) -> Vec<FaultBenchResult> {
    let mut results: Vec<FaultBenchResult> = fault_scenarios()
        .into_iter()
        .map(|s| run_fault_point(point, s, backend))
        .collect();
    let baseline = results
        .iter()
        .find(|r| r.scenario.name == "plain_no_faults")
        .map(|r| r.sort_io.total())
        .expect("the scenario list starts with the plain baseline");
    for r in &mut results {
        r.overhead_vs_plain = Some(r.sort_io.total() as f64 / baseline.max(1) as f64 - 1.0);
    }
    results
}

/// Runs every [`fault_scenarios`] row at `point` over *both* backends —
/// `Encrypted(ExtMem)` and `Encrypted(FileStore)` — so each JSON row carries
/// a backend tag and a wall-clock column next to its I/O counts.
pub fn run_fault_grid(point: GridPoint) -> Vec<FaultBenchResult> {
    let mut results = run_fault_scenarios(point, FaultBackend::ExtMem);
    results.extend(run_fault_scenarios(point, FaultBackend::File));
    results
}

/// Checks the fault-model acceptance gates over one grid point's results.
/// Returns every violated gate as a message; an empty vector means the point
/// passes.
pub fn check_fault_gates(results: &[FaultBenchResult]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut push = |cond: bool, msg: String| {
        if !cond {
            violations.push(msg);
        }
    };
    for r in results {
        let GridPoint { n, b, m } = r.point;
        let at = format!("{}[{}] at N={n} B={b} M={m}", r.scenario.name, r.backend);
        match r.scenario.name {
            "plain_no_faults" => {
                push(
                    r.outcome() == "correct",
                    format!("{at}: baseline must sort correctly"),
                );
            }
            "auth_no_faults" => {
                push(
                    r.outcome() == "correct",
                    format!("{at}: must sort correctly"),
                );
                let overhead = r.overhead_vs_plain.unwrap_or(f64::INFINITY);
                push(
                    overhead <= 0.15,
                    format!(
                        "{at}: authentication overhead {:.1}% > 15% ({} vs baseline I/Os)",
                        overhead * 100.0,
                        r.sort_io.total()
                    ),
                );
            }
            "auth_transient" => {
                push(
                    r.outcome() == "correct",
                    format!(
                        "{at}: transients must retry to the correct result, got {:?}",
                        r.run_error
                    ),
                );
                push(
                    r.retries > 0,
                    format!("{at}: the transient lane never fired"),
                );
                push(
                    r.faults.tampering() == 0,
                    format!("{at}: transients are not tampering"),
                );
            }
            "auth_corrupt" | "auth_stale" | "auth_drop" => {
                push(
                    r.faults.tampering() > 0,
                    format!("{at}: the tamper lane never fired — raise the rate"),
                );
                push(
                    r.outcome() == "detected",
                    format!(
                        "{at}: tampering must surface as a typed error, got {}",
                        r.outcome()
                    ),
                );
            }
            "plain_corrupt_silent" => {
                push(
                    r.faults.tampering() > 0,
                    format!("{at}: the corrupt lane never fired — raise the rate"),
                );
                push(
                    r.outcome() == "silent_wrong",
                    format!(
                        "{at}: without authentication corruption should yield a silently \
                         wrong answer (the motivation row), got {}",
                        r.outcome()
                    ),
                );
            }
            other => push(false, format!("unknown scenario {other:?}")),
        }
    }
    violations
}

/// Renders the fault results as the `BENCH_faults.json` document
/// (hand-rolled JSON; the workspace deliberately has no external
/// dependencies).
pub fn faults_to_json(results: &[FaultBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"untrusted_server_faults\",\n");
    s.push_str(
        "  \"io_model\": \"1 I/O per bottom-level block read or write; sort window incl. MAC traffic\",\n",
    );
    s.push_str("  \"workload\": \"external_oblivious_sort\",\n");
    s.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        let GridPoint { n, b, m } = r.point;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"scenario\": \"{}\",", r.scenario.name);
        let _ = writeln!(s, "      \"backend\": \"{}\",", r.backend);
        let _ = writeln!(s, "      \"n\": {n},");
        let _ = writeln!(s, "      \"b\": {b},");
        let _ = writeln!(s, "      \"m\": {m},");
        let _ = writeln!(s, "      \"authenticated\": {},", r.scenario.authenticated);
        let _ = writeln!(
            s,
            "      \"fault_ppm\": {{\"transient\": {}, \"corrupt\": {}, \"stale\": {}, \"drop\": {}}},",
            r.scenario.spec.transient_read_ppm,
            r.scenario.spec.corrupt_read_ppm,
            r.scenario.spec.stale_read_ppm,
            r.scenario.spec.drop_write_ppm
        );
        let _ = writeln!(s, "      \"sort_reads\": {},", r.sort_io.reads);
        let _ = writeln!(s, "      \"sort_writes\": {},", r.sort_io.writes);
        let _ = writeln!(s, "      \"sort_total\": {},", r.sort_io.total());
        let _ = writeln!(s, "      \"elapsed_ns\": {},", r.elapsed_ns);
        match r.overhead_vs_plain {
            Some(o) => {
                let _ = writeln!(s, "      \"overhead_vs_plain\": {o:.4},");
            }
            None => s.push_str("      \"overhead_vs_plain\": null,\n"),
        }
        let _ = writeln!(s, "      \"retries\": {},", r.retries);
        let _ = writeln!(s, "      \"backoff_units\": {},", r.backoff_units);
        let _ = writeln!(
            s,
            "      \"faults_injected\": {{\"transient\": {}, \"corrupt\": {}, \"stale\": {}, \"drop\": {}}},",
            r.faults.transient_reads,
            r.faults.corrupt_reads,
            r.faults.stale_reads,
            r.faults.dropped_writes
        );
        match &r.run_error {
            Some(e) => {
                let _ = writeln!(s, "      \"run_error\": \"{}\",", e.replace('"', "'"));
            }
            None => s.push_str("      \"run_error\": null,\n"),
        }
        match &r.readback_error {
            Some(e) => {
                let _ = writeln!(s, "      \"readback_error\": \"{}\",", e.replace('"', "'"));
            }
            None => s.push_str("      \"readback_error\": null,\n"),
        }
        let _ = writeln!(s, "      \"outcome\": \"{}\"", r.outcome());
        s.push_str("    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders a human-readable table of the fault results.
pub fn faults_to_table(results: &[FaultBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>22} {:>8} {:>8} {:>12} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "scenario", "backend", "N", "sort I/Os", "overhead", "retries", "faults", "ms", "outcome"
    );
    for r in results {
        let overhead = r
            .overhead_vs_plain
            .map(|o| format!("{:+.1}%", o * 100.0))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            s,
            "{:>22} {:>8} {:>8} {:>12} {:>9} {:>8} {:>8} {:>8} {:>12}",
            r.scenario.name,
            r.backend,
            r.point.n,
            r.sort_io.total(),
            overhead,
            r.retries,
            r.faults.total(),
            fmt_ms(Some(r.elapsed_ns)),
            r.outcome()
        );
    }
    s
}

/// One parameter point of the ORAM benchmark grid: the `(N, B, M)` model
/// plus the ORAM's own two knobs — the flush period `P` and the length of
/// the measured access sequence (the amortization window).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OramGridPoint {
    /// Address-space size `n`.
    pub n: usize,
    /// Block size `B` in elements.
    pub b: usize,
    /// Private client cache `M` in elements (the rebuilds' sort and
    /// compaction budget).
    pub m: usize,
    /// Flush period `P` (a power of two): the client cache drains into the
    /// hierarchy every `P` accesses.
    pub period: usize,
    /// Accesses measured.
    pub accesses: usize,
}

/// Fixed seed of every benchmarked ORAM, so the epoch salts — and with them
/// the probe schedule and each rebuild's bucket-sort bin assignment — are
/// reproducible across machines and PRs.
pub const ORAM_BENCH_SEED: u64 = 0x04A7_0B5E;

/// The engine-appropriate per-pass sort bound: Lemma 2's squared-log form
/// for the bitonic engine, the `log_{M/B}` form for the bucket engine.
fn sorter_pass_bound(engine: SortEngine, n: usize, b: usize, m: usize) -> u64 {
    match engine {
        SortEngine::Bitonic => sort_io_bound(n, b, m),
        SortEngine::Bucket => bucket_sort_io_bound(n, b, m),
    }
}

/// Analytic I/O bound of one rebuild into level `j`, composed pass by pass
/// from the pipeline's fixed structure: collect (client span + every source
/// table streamed once), two full sorts of the scratch region, two
/// read-modify-write sweeps, one filler block per bucket, one §3
/// order-preserving compaction, and the prefix copy into the table.
fn oram_rebuild_bound(
    geo: &[LevelGeometry],
    client_blocks: usize,
    b: usize,
    m: usize,
    j: usize,
    engine: SortEngine,
) -> u64 {
    let g = &geo[j];
    let scratch_cells = g.scratch_blocks * b;
    let mut io = client_blocks as u64;
    for src in &geo[..j] {
        io += 2 * src.table_blocks as u64;
    }
    if j + 1 == geo.len() {
        // The deepest level rebuilds into itself, consuming its own table.
        io += 2 * g.table_blocks as u64;
    }
    io += 2 * sorter_pass_bound(engine, scratch_cells, b, m);
    io += 4 * g.scratch_blocks as u64;
    io += g.table_blocks as u64;
    io += compact_io_bound(scratch_cells, b, m);
    io += 2 * g.table_blocks as u64;
    io
}

/// The composed analytic I/O bound for a run of `accesses` ORAM accesses:
/// one probe read per level per access, plus [`oram_rebuild_bound`] for the
/// level each flush actually targets (the binary-counter rule
/// [`Oram::target_level`]). Every term is an explicit-constant upper bound
/// on its pass, so the total upper-bounds the measured count — and since
/// level `j` is rebuilt every `2^(j+1)` flushes at `O(sort(cap_j))` I/Os,
/// the sum telescopes to the paper's `O(log² n)` amortized block I/Os per
/// access.
pub fn oram_io_bound(
    geo: &[LevelGeometry],
    client_blocks: usize,
    b: usize,
    m: usize,
    period: u64,
    accesses: u64,
    engine: SortEngine,
) -> u64 {
    let levels = geo.len();
    let mut total = accesses * levels as u64;
    for f in 1..=accesses / period {
        let j = Oram::target_level(f, levels);
        total += oram_rebuild_bound(geo, client_blocks, b, m, j, engine);
    }
    total
}

/// Measured result of one ORAM grid point.
#[derive(Clone, Debug)]
pub struct OramBenchResult {
    /// The parameters measured.
    pub point: OramGridPoint,
    /// Levels in the hierarchy (`O(log n)`).
    pub levels: usize,
    /// Rebuilds triggered during the window (`accesses / period`).
    pub flushes: u64,
    /// Server-side I/Os of the whole access sequence (probes + rebuilds).
    pub io: IoStats,
    /// The composed analytic bound [`oram_io_bound`].
    pub bound_total: u64,
    /// Whether the measured total satisfies the bound.
    pub within_bound: bool,
    /// Client stash size after the window (bucket-overflow reals).
    pub stash_len: usize,
    /// Wall clock of the identical sequence over `ExtMem`, `FileStore` and
    /// `EncryptedStore<FileStore>` — `None` when run I/O-count-only. Every
    /// file-backed run's trace is asserted byte-identical to `ExtMem`'s.
    pub timings: Option<BackendNanos>,
    /// Wall clock of the identical sequence over
    /// `Prefetching(Encrypted(FileStore))` — decrypt-ahead workers plus
    /// write-behind span encryption, flushed inside the timed region. Its
    /// logical trace is asserted byte-identical to `ExtMem`'s. `None` when
    /// run I/O-count-only.
    pub encrypted_prefetch_ns: Option<u64>,
}

impl OramBenchResult {
    /// Measured amortized I/Os per access — the headline `O(log² n)` number.
    pub fn amortized_ios(&self) -> f64 {
        self.io.total() as f64 / self.point.accesses.max(1) as f64
    }

    /// The analytic bound, amortized per access.
    pub fn bound_amortized(&self) -> f64 {
        self.bound_total as f64 / self.point.accesses.max(1) as f64
    }
}

/// Drives one ORAM through a request sequence, returning the read results
/// in order.
fn run_oram_requests<S: extmem::BlockStore>(
    store: &mut S,
    oram: &mut Oram,
    reqs: &[(u64, Option<u64>)],
) -> Vec<u64> {
    let mut out = Vec::with_capacity(reqs.len());
    for &(addr, write) in reqs {
        match write {
            Some(v) => oram.write(store, addr, v),
            None => out.push(oram.read(store, addr)),
        }
    }
    out
}

/// Measures one ORAM grid point: a deterministic mixed read/write sequence
/// (hash-spread addresses, one write in three) over `ExtMem`, checked
/// against a client-side mirror and gated by [`oram_io_bound`]. When
/// `backends` is set the identical sequence replays over `FileStore`,
/// `EncryptedStore<FileStore>` and `Prefetching(Encrypted(FileStore))`
/// (decrypt-ahead workers, write-behind flushed on the clock), each timed,
/// each trace asserted byte-identical to the simulator's — same seed, same
/// salts, same schedule, on disk and under encryption.
pub fn run_oram_point(point: OramGridPoint, backends: bool) -> OramBenchResult {
    use extmem::BlockStore;
    let OramGridPoint {
        n,
        b,
        m,
        period,
        accesses,
    } = point;
    let cfg = OramConfig::new(period, m, ORAM_BENCH_SEED);
    let reqs: Vec<(u64, Option<u64>)> = (0..accesses as u64)
        .map(|k| {
            let addr = extmem::util::hash64(k, 0x0AC7) % n as u64;
            if k.is_multiple_of(3) {
                // Values shifted under 63 bits: the EncryptedStore contract.
                (addr, Some(extmem::util::hash64(k, 0x7A1) >> 1))
            } else {
                (addr, None)
            }
        })
        .collect();
    let mut mirror = std::collections::HashMap::new();
    let mut expected = Vec::new();
    for &(addr, write) in &reqs {
        match write {
            Some(v) => {
                mirror.insert(addr, v);
            }
            None => expected.push(mirror.get(&addr).copied().unwrap_or(0)),
        }
    }

    let mut mem = ExtMem::new(b);
    let mut oram = Oram::new(&mut mem, n as u64, &cfg);
    let geo = oram.geometry();
    let levels = oram.level_count();
    let client_blocks = oram.client_slots() / b;
    mem.enable_trace();
    let before = mem.io_stats();
    let (out, extmem_ns) = timed(|| run_oram_requests(&mut mem, &mut oram, &reqs));
    let io = mem.io_stats() - before;
    assert_eq!(
        out, expected,
        "ORAM read results diverged from the mirror at n={n} B={b} M={m} P={period}"
    );
    let mem_trace = mem.take_trace().expect("tracing was enabled");
    let bound_total = oram_io_bound(
        &geo,
        client_blocks,
        b,
        m,
        period as u64,
        accesses as u64,
        cfg.sorter.engine(),
    );

    let timings = backends.then(|| {
        let mut fs = FileStore::temp(b).expect("tempdir-backed block file");
        let mut foram = Oram::new(&mut fs, n as u64, &cfg);
        fs.enable_trace();
        let (fout, file_ns) = timed(|| run_oram_requests(&mut fs, &mut foram, &reqs));
        assert_eq!(fout, expected, "file-backed ORAM results diverged at n={n}");
        let ftrace = fs.take_trace().expect("tracing was enabled");
        assert_eq!(
            ftrace, mem_trace,
            "FileStore ORAM trace must be byte-identical to ExtMem at n={n} B={b} M={m} P={period}"
        );

        let inner = FileStore::temp(b).expect("tempdir-backed block file");
        let mut enc = EncryptedStore::with_backing(inner, 0x04A7_0002);
        let mut eoram = Oram::new(&mut enc, n as u64, &cfg);
        enc.enable_trace();
        let (eout, encrypted_file_ns) = timed(|| run_oram_requests(&mut enc, &mut eoram, &reqs));
        assert_eq!(eout, expected, "encrypted ORAM results diverged at n={n}");
        let etrace = enc.take_trace().expect("tracing was enabled");
        assert_eq!(
            etrace, mem_trace,
            "EncryptedStore<FileStore> ORAM trace must be byte-identical to ExtMem at n={n} B={b} M={m} P={period}"
        );
        BackendNanos {
            extmem_ns,
            file_ns,
            encrypted_file_ns,
        }
    });

    let encrypted_prefetch_ns = backends.then(|| {
        let inner = FileStore::temp(b).expect("tempdir-backed block file");
        let enc = EncryptedStore::with_backing(inner, 0x04A7_0002);
        let mut ps = PrefetchingStore::new(enc);
        let mut poram = Oram::new(&mut ps, n as u64, &cfg);
        ps.enable_trace();
        // The flush belongs inside the timed region: write-behind only
        // counts as a win if the encrypt-and-land cost is paid on the clock.
        let (pout, ns) = timed(|| {
            let out = run_oram_requests(&mut ps, &mut poram, &reqs);
            ps.flush_writes()
                .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
            out
        });
        assert_eq!(pout, expected, "prefetched ORAM results diverged at n={n}");
        let ptrace = ps.take_trace().expect("tracing was enabled");
        assert_eq!(
            ptrace, mem_trace,
            "Prefetching(Encrypted(FileStore)) ORAM logical trace must be \
             byte-identical to ExtMem at n={n} B={b} M={m} P={period}"
        );
        ns
    });

    OramBenchResult {
        point,
        levels,
        flushes: oram.flushes(),
        io,
        bound_total,
        within_bound: io.total() <= bound_total,
        stash_len: oram.stash_len(),
        timings,
        encrypted_prefetch_ns,
    }
}

/// The full ORAM grid: three shapes, each deep enough that the deepest
/// level's self-consuming rebuild fires at least once — except the last
/// point, whose window stops short of it, pinning the partially-filled
/// hierarchy's cost too.
pub fn oram_default_grid() -> Vec<OramGridPoint> {
    vec![
        OramGridPoint {
            n: 1 << 10,
            b: 64,
            m: 1 << 10,
            period: 64,
            accesses: 4096,
        },
        OramGridPoint {
            n: 1 << 12,
            b: 64,
            m: 1 << 13,
            period: 64,
            accesses: 8192,
        },
        OramGridPoint {
            n: 1 << 14,
            b: 64,
            m: 1 << 13,
            period: 128,
            accesses: 8192,
        },
    ]
}

/// The CI smoke grid: two small shapes (one with a deliberately tiny block
/// size) cheap enough for every push, both reaching the deepest level's
/// rebuild.
pub fn oram_smoke_grid() -> Vec<OramGridPoint> {
    vec![
        OramGridPoint {
            n: 1 << 10,
            b: 64,
            m: 1 << 10,
            period: 64,
            accesses: 2048,
        },
        OramGridPoint {
            n: 1 << 10,
            b: 8,
            m: 1 << 8,
            period: 16,
            accesses: 2048,
        },
    ]
}

/// Renders the ORAM results as the `BENCH_oram.json` document (hand-rolled
/// JSON; the workspace deliberately has no external dependencies).
pub fn oram_to_json(results: &[OramBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"hierarchical_oram\",\n");
    s.push_str("  \"io_model\": \"1 I/O per block read or write, ExtMem::stats\",\n");
    s.push_str(
        "  \"bound\": \"probes + per-flush rebuild bounds composed from the sort/compact bounds (O(log^2 n) amortized per access)\",\n",
    );
    s.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let OramGridPoint {
            n,
            b,
            m,
            period,
            accesses,
        } = r.point;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"n\": {n},");
        let _ = writeln!(s, "      \"b\": {b},");
        let _ = writeln!(s, "      \"m\": {m},");
        let _ = writeln!(s, "      \"period\": {period},");
        let _ = writeln!(s, "      \"accesses\": {accesses},");
        let _ = writeln!(s, "      \"levels\": {},", r.levels);
        let _ = writeln!(s, "      \"flushes\": {},", r.flushes);
        let _ = writeln!(s, "      \"reads\": {},", r.io.reads);
        let _ = writeln!(s, "      \"writes\": {},", r.io.writes);
        let _ = writeln!(s, "      \"total_ios\": {},", r.io.total());
        let _ = writeln!(
            s,
            "      \"amortized_ios_per_access\": {:.2},",
            r.amortized_ios()
        );
        let _ = writeln!(s, "      \"bound_total\": {},", r.bound_total);
        let _ = writeln!(
            s,
            "      \"bound_amortized_per_access\": {:.2},",
            r.bound_amortized()
        );
        let _ = writeln!(s, "      \"stash_len\": {},", r.stash_len);
        emit_elapsed(&mut s, r.timings.as_ref());
        match r.encrypted_prefetch_ns {
            Some(ns) => {
                let _ = writeln!(s, "      \"encrypted_prefetch_ns\": {ns},");
            }
            None => s.push_str("      \"encrypted_prefetch_ns\": null,\n"),
        }
        let _ = writeln!(s, "      \"within_bound\": {}", r.within_bound);
        s.push_str("    }");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders a human-readable table of the ORAM results.
pub fn oram_to_table(results: &[OramBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>4} {:>6} {:>4} {:>8} {:>6} {:>10} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "n",
        "B",
        "M",
        "P",
        "accesses",
        "levels",
        "I/Os",
        "amort",
        "bound/ac",
        "file ms",
        "enc ms",
        "ok"
    );
    for r in results {
        let OramGridPoint {
            n,
            b,
            m,
            period,
            accesses,
        } = r.point;
        let _ = writeln!(
            s,
            "{:>8} {:>4} {:>6} {:>4} {:>8} {:>6} {:>10} {:>9.1} {:>9.1} {:>8} {:>8} {:>6}",
            n,
            b,
            m,
            period,
            accesses,
            r.levels,
            r.io.total(),
            r.amortized_ios(),
            r.bound_amortized(),
            fmt_ms(r.timings.map(|t| t.file_ns)),
            fmt_ms(r.timings.map(|t| t.encrypted_file_ns)),
            if r.within_bound { "yes" } else { "NO" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_formula_matches_hand_computation() {
        // N = 2^18, B = 64, M = 2^13: 4 * 4096 * (1 + 25) = 425,984.
        assert_eq!(sort_io_bound(1 << 18, 64, 1 << 13), 425_984);
        // N <= M: scan-bound only.
        assert_eq!(sort_io_bound(1 << 10, 64, 1 << 12), 4 * 16);
    }

    #[test]
    fn small_point_is_within_bound_and_beats_naive_3x() {
        // Debug-friendly miniature of the acceptance criterion: the in-cache
        // finishing + stride batching must beat full depth by ≥ 3×.
        let point = GridPoint {
            n: 1 << 12,
            b: 16,
            m: 1 << 8,
        };
        let r = run_sort_point(point, true, false);
        assert!(r.within_bound, "optimized sort exceeded the bound: {r:?}");
        let speedup = r.speedup().unwrap();
        assert!(speedup >= 3.0, "speedup only {speedup:.2}x");
    }

    #[test]
    fn bucket_bound_formula_matches_hand_computation() {
        // N = 2^18, B = 64, M = 2^13: base M/B = 128, N/B = 4096 = 128^1.71…,
        // so the ceil log is 2: 12 * 4096 * 2 = 98,304.
        assert_eq!(bucket_sort_io_bound(1 << 18, 64, 1 << 13), 98_304);
        // N = 2^12, B = 64, M = 2^9: base 8, N/B = 64 = 8^2: 12 * 64 * 2.
        assert_eq!(bucket_sort_io_bound(1 << 12, 64, 1 << 9), 12 * 64 * 2);
        // In-cache ratio clamps to the scan term `max(1, …)`.
        assert_eq!(bucket_sort_io_bound(1 << 10, 64, 1 << 12), 12 * 16);
    }

    #[test]
    fn grid_is_three_by_two() {
        let grid = default_grid();
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|p| p.b == 64));
    }

    #[test]
    fn json_has_all_points_and_fields() {
        let results: Vec<SortBenchResult> = [
            GridPoint {
                n: 256,
                b: 8,
                m: 64,
            },
            GridPoint {
                n: 512,
                b: 8,
                m: 64,
            },
        ]
        .into_iter()
        .map(|p| run_sort_point(p, true, true))
        .collect();
        let json = to_json(&results);
        assert_eq!(json.matches("\"optimized_total\"").count(), 2);
        assert!(json.contains("\"bound_constant\": 4"));
        assert!(json.contains("\"encrypted_total\""));
        assert!(json.contains("\"speedup_vs_naive\""));
        assert!(json.contains("\"within_bound\": true"));
        assert!(json.contains("\"bucket_bound_constant\": 12"));
        assert_eq!(json.matches("\"bucket_total\"").count(), 2);
        assert!(json.contains("\"bucket_encrypted_total\""));
        assert!(json.contains("\"bucket_z\""));
        assert!(json.contains("\"bucket_within_bound\": true"));
        assert!(json.contains("\"bucket_speedup_vs_lemma2\""));
        assert_eq!(json.matches("\"lemma2_elapsed_ns\"").count(), 2);
        assert_eq!(json.matches("\"bucket_elapsed_ns\"").count(), 2);
        assert_eq!(json.matches("\"bucket_prefetch_ns\"").count(), 2);
        assert_eq!(json.matches("\"encrypted_prefetch_ns\"").count(), 2);
        assert!(json.contains("\"file_trace_identical\": true"));
        assert!(!json.contains("\"encrypted_prefetch_ns\": null"));
        assert!(!json.contains("\"lemma2_elapsed_ns\": null"));
    }

    #[test]
    fn compact_bound_formula_matches_hand_computation() {
        // N = 2^18, B = 64, M = 2^13: base 16, ⌈log_16 32⌉ = 2, so
        // 16 * 4096 * (1 + 2) = 196,608.
        assert_eq!(compact_io_bound(1 << 18, 64, 1 << 13), 196_608);
        // M = 2^10: base max(2, 2) = 2, ⌈log_2 256⌉ = 8.
        assert_eq!(compact_io_bound(1 << 18, 64, 1 << 10), 16 * 4096 * 9);
        // N <= M: scan bound only.
        assert_eq!(compact_io_bound(1 << 10, 64, 1 << 12), 16 * 16);
        // The bound also holds off the grid, at the cache sizes where the
        // fused sweeps run fewest levels per pass (M = 8B .. 12B) and where
        // the base M/(8B) is not a power of two.
        for (n, m) in [
            (4097, 512),
            (40_000, 704),
            (40_000, 768),
            (40_000, 4096),
            (40_000, 6144),
        ] {
            let r = run_compact_point(GridPoint { n, b: 64, m }, false, false);
            assert!(
                r.within_bound,
                "N={n} M={m}: {} > {}",
                r.optimized.total(),
                r.bound_total
            );
        }
    }

    #[test]
    fn compact_small_point_is_within_bound_and_beats_naive() {
        let point = GridPoint {
            n: 1 << 12,
            b: 16,
            m: 1 << 8,
        };
        let r = run_compact_point(point, true, false);
        assert!(r.within_bound, "compaction exceeded the bound: {r:?}");
        let speedup = r.speedup().unwrap();
        assert!(speedup > 1.0, "naive baseline not beaten: {speedup:.2}x");
        assert_eq!(r.encrypted, r.optimized);
    }

    #[test]
    fn compact_json_has_all_points_and_fields() {
        let results: Vec<CompactBenchResult> = [
            GridPoint {
                n: 256,
                b: 8,
                m: 64,
            },
            GridPoint {
                n: 512,
                b: 8,
                m: 64,
            },
        ]
        .into_iter()
        .map(|p| run_compact_point(p, true, true))
        .collect();
        let json = compact_to_json(&results);
        assert_eq!(json.matches("\"optimized_total\"").count(), 2);
        assert!(json.contains("\"bound_constant\": 16"));
        assert!(json.contains("\"encrypted_total\""));
        assert!(json.contains("\"external_passes\""));
        assert!(json.contains("\"speedup_vs_naive\""));
        assert!(json.contains("\"within_bound\": true"));
        assert_eq!(json.matches("\"elapsed_ns\"").count(), 2);
        assert!(json.contains("\"file_trace_identical\": true"));
        assert!(!json.contains("\"elapsed_ns\": null"));
    }

    /// The I/O-bound regression gate: if a future refactor pushes the sort
    /// past `C·(N/B)(1 + log²(N/M))`, the compaction past
    /// `C_c·(N/B)(1 + log_β(N/M))`, or the selection past
    /// `C_s·(N/B)(1 + log(N/M))` at any benchmark grid point, this test
    /// fails — without needing the release-mode bench binary. (The naive
    /// baselines are skipped here, and the `N = 2^18` points are left to the
    /// release-mode bench binary, which gates them on every CI push — debug
    /// builds simulate them too slowly for the unit-test suite.)
    #[test]
    fn io_bound_regression_at_grid_points() {
        let test_sized = default_grid().into_iter().filter(|p| p.n <= 1 << 16);
        for point in smoke_grid().into_iter().chain(test_sized) {
            let s = run_sort_point(point, false, false);
            assert!(
                s.within_bound,
                "sort exceeded its I/O bound at N={} B={} M={}: {} > {}",
                point.n,
                point.b,
                point.m,
                s.optimized.total(),
                s.bound_total
            );
            assert_eq!(
                s.encrypted, s.optimized,
                "re-encryption added I/Os to the sort at N={} B={} M={}",
                point.n, point.b, point.m
            );
            assert!(
                s.bucket_within_bound,
                "bucket sort exceeded its I/O bound at N={} B={} M={}: {} > {}",
                point.n,
                point.b,
                point.m,
                s.bucket.total(),
                s.bucket_bound_total
            );
            assert_eq!(
                s.bucket_encrypted, s.bucket,
                "re-encryption added I/Os to the bucket sort at N={} B={} M={}",
                point.n, point.b, point.m
            );
            if s.bucket_gate_applies() {
                assert!(
                    s.bucket.total() < s.optimized.total(),
                    "bucket sort did not beat Lemma 2 at N={} B={} M={}: {} >= {}",
                    point.n,
                    point.b,
                    point.m,
                    s.bucket.total(),
                    s.optimized.total()
                );
            }
            let c = run_compact_point(point, false, false);
            assert!(
                c.within_bound,
                "compaction exceeded its I/O bound at N={} B={} M={}: {} > {}",
                point.n,
                point.b,
                point.m,
                c.optimized.total(),
                c.bound_total
            );
            assert_eq!(
                c.encrypted, c.optimized,
                "re-encryption added I/Os at N={} B={} M={}",
                point.n, point.b, point.m
            );
            let sel = run_select_point(point, false, false);
            assert!(
                sel.within_bound,
                "selection exceeded its I/O bound at N={} B={} M={}: {} > {}",
                point.n,
                point.b,
                point.m,
                sel.optimized.total(),
                sel.bound_total
            );
            // run_select_point itself asserts the byte-identical
            // plaintext/encrypted trace; re-check the I/O equality here for a
            // readable failure.
            assert_eq!(
                sel.encrypted, sel.optimized,
                "re-encryption added I/Os to selection at N={} B={} M={}",
                point.n, point.b, point.m
            );
        }
    }

    #[test]
    fn select_small_point_is_within_bound_and_beats_naive() {
        let point = GridPoint {
            n: 1 << 12,
            b: 16,
            m: 1 << 8,
        };
        let r = run_select_point(point, true, false);
        assert!(r.within_bound, "selection exceeded the bound: {r:?}");
        let speedup = r.speedup().unwrap();
        assert!(speedup > 1.0, "naive baseline not beaten: {speedup:.2}x");
        assert_eq!(r.encrypted, r.optimized);
        assert!(r.report.rounds >= 1, "the external path must iterate");
    }

    #[test]
    fn select_json_has_all_points_and_fields() {
        let results: Vec<SelectBenchResult> = [
            GridPoint {
                n: 512,
                b: 8,
                m: 64,
            },
            GridPoint {
                n: 1024,
                b: 8,
                m: 64,
            },
        ]
        .into_iter()
        .map(|p| run_select_point(p, true, true))
        .collect();
        let json = select_to_json(&results);
        assert_eq!(json.matches("\"optimized_total\"").count(), 2);
        assert!(json.contains("\"bound_constant\": 64"));
        assert!(json.contains("\"encrypted_trace_identical\": true"));
        assert!(json.contains("\"speedup_vs_naive\""));
        assert!(json.contains("\"within_bound\": true"));
        assert_eq!(json.matches("\"elapsed_ns\"").count(), 2);
        assert!(json.contains("\"file_trace_identical\": true"));
        assert!(!json.contains("\"elapsed_ns\": null"));
    }

    #[test]
    fn fault_gates_pass_at_the_smoke_point() {
        extmem::install_quiet_abort_hook();
        let results = run_fault_scenarios(
            GridPoint {
                n: 1 << 12,
                b: 64,
                m: 1 << 9,
            },
            FaultBackend::ExtMem,
        );
        assert_eq!(results.len(), fault_scenarios().len());
        let violations = check_fault_gates(&results);
        assert!(
            violations.is_empty(),
            "fault gates violated: {violations:#?}"
        );
    }

    /// The same gates with a real file at the bottom of the stack: the fault
    /// schedule is seeded above the backing store, so detection, retries and
    /// I/O counts must not care whether blocks live in memory or on disk.
    #[test]
    fn fault_gates_pass_over_the_file_backend() {
        extmem::install_quiet_abort_hook();
        let point = GridPoint {
            n: 1 << 12,
            b: 64,
            m: 1 << 9,
        };
        let file = run_fault_scenarios(point, FaultBackend::File);
        let violations = check_fault_gates(&file);
        assert!(
            violations.is_empty(),
            "file-backed fault gates violated: {violations:#?}"
        );
        // Backend equivalence row by row: identical I/Os, retries, faults
        // and outcomes — only the wall clock may differ.
        let mem = run_fault_scenarios(point, FaultBackend::ExtMem);
        for (f, m) in file.iter().zip(&mem) {
            assert_eq!(f.scenario.name, m.scenario.name);
            assert_eq!(f.sort_io, m.sort_io, "{}: I/Os diverged", f.scenario.name);
            assert_eq!(
                f.retries, m.retries,
                "{}: retries diverged",
                f.scenario.name
            );
            assert_eq!(
                f.outcome(),
                m.outcome(),
                "{}: outcome diverged",
                f.scenario.name
            );
        }
    }

    /// Strips the wall-clock lines — the only legitimately nondeterministic
    /// part of a fault row — so the rest can be compared byte for byte.
    fn strip_timing(json: &str) -> String {
        json.lines()
            .filter(|l| !l.contains("\"elapsed_ns\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The seeded-determinism satellite at the benchmark level: two
    /// independent runs of the same grid produce byte-identical JSON — fault
    /// schedules, retry counts and I/O totals included — once the wall-clock
    /// column is stripped.
    #[test]
    fn faults_json_is_deterministic_across_runs() {
        extmem::install_quiet_abort_hook();
        let point = GridPoint {
            n: 1 << 12,
            b: 64,
            m: 1 << 9,
        };
        let a = faults_to_json(&run_fault_grid(point));
        let b = faults_to_json(&run_fault_grid(point));
        assert_eq!(
            strip_timing(&a),
            strip_timing(&b),
            "BENCH_faults.json must be reproducible modulo wall clock"
        );
        assert_eq!(
            a.matches("\"scenario\"").count(),
            2 * fault_scenarios().len(),
            "every scenario must appear once per backend"
        );
        assert_eq!(
            a.matches("\"backend\": \"file\"").count(),
            fault_scenarios().len()
        );
        assert!(a.contains("\"backend\": \"extmem\""));
        assert!(a.contains("\"elapsed_ns\""));
        assert!(a.contains("\"outcome\": \"detected\""));
        assert!(a.contains("\"outcome\": \"silent_wrong\""));
        assert!(a.contains("\"overhead_vs_plain\""));
    }

    #[test]
    fn exact_io_counts_at_a_reference_point() {
        // N = 2^12, B = 16, M = 2^8: F = 256, passes = presort(1) +
        // external(1+2+3+4) + finishing(4) = 15, each 2·256 I/Os.
        let r = run_sort_point(
            GridPoint {
                n: 1 << 12,
                b: 16,
                m: 1 << 8,
            },
            false,
            false,
        );
        assert_eq!(r.optimized.total(), 15 * 2 * 256);
        assert_eq!(r.report.external_levels, 10);
        assert_eq!(r.report.finish_passes, 4);
    }

    /// The ORAM's amortized-cost regression gate at the CI smoke points:
    /// measured I/Os within the composed analytic bound, with the deepest
    /// level's self-consuming rebuild exercised (`flushes` reaches
    /// `2^(levels-1)`).
    #[test]
    fn oram_amortized_cost_is_within_the_composed_bound() {
        for point in oram_smoke_grid() {
            let r = run_oram_point(point, false);
            assert!(
                r.within_bound,
                "ORAM exceeded its composed bound at n={} B={} M={} P={}: {} > {}",
                point.n,
                point.b,
                point.m,
                point.period,
                r.io.total(),
                r.bound_total
            );
            assert!(r.levels >= 2);
            assert!(
                r.flushes >= 1 << (r.levels - 1),
                "the smoke window must reach the deepest level's rebuild"
            );
        }
    }

    #[test]
    fn oram_json_has_all_points_and_fields() {
        let results = vec![run_oram_point(
            OramGridPoint {
                n: 256,
                b: 8,
                m: 128,
                period: 16,
                accesses: 512,
            },
            true,
        )];
        let json = oram_to_json(&results);
        assert!(json.contains("\"benchmark\": \"hierarchical_oram\""));
        assert!(json.contains("\"amortized_ios_per_access\""));
        assert!(json.contains("\"bound_amortized_per_access\""));
        assert!(json.contains("\"within_bound\": true"));
        assert!(json.contains("\"file_trace_identical\": true"));
        assert!(!json.contains("\"elapsed_ns\": null"));
        assert!(json.contains("\"encrypted_prefetch_ns\""));
        assert!(!json.contains("\"encrypted_prefetch_ns\": null"));
        assert!(json.contains("\"stash_len\""));
    }
}

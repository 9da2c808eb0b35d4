//! Integration battery for the randomized bucket oblivious sort:
//!
//! * differential oracle — the Lemma 2 deterministic sort is ground truth
//!   across ≥ 20 datasets (shapes × salts × occupancy × order);
//! * the 0-1 principle at the MergeSplit level — every 0/1 tag pattern
//!   routes exactly;
//! * seeded determinism — the same `(shape, seed, data)` yields a
//!   byte-identical server-visible trace across two fresh runs;
//! * backend parity — plaintext [`ExtMem`] and [`EncryptedStore`] runs share
//!   one byte-identical trace;
//! * the full untrusted stack — Auth ∘ Faulty ∘ Encrypted with transient
//!   faults retries to the exact sorted result, and a corrupting server
//!   surfaces as a typed error, never a silently wrong answer; without the
//!   auth layer, a server that drops writes still gets a typed error, never
//!   a panic.

use extmem::element::Cell;
use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};
use extmem::util::hash64;
use extmem::{
    AccessTrace, ArrayHandle, AuthenticatedStore, BlockStore, Element, EncryptedStore, ExtMem,
    FaultSpec, FaultyStore, RetryPolicy, RetryStats, RetryingStore, StoreError,
};
use obliv_net::bucket_sort::{
    bucket_oblivious_sort, merge_split, BucketSortConfig, BucketSortError, BucketSortReport,
};
use obliv_net::external_sort::{try_external_oblivious_sort_by, SortOrder};

/// The bucket sort of `h`, ascending, over a [`RetryingStore`] with the
/// default policy: transient faults are retried, every other error returns.
fn retrying_bucket_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    m: usize,
    seed: u64,
) -> Result<(BucketSortReport, RetryStats), BucketSortError> {
    let mut rs = RetryingStore::new(store, RetryPolicy::default());
    let cfg = BucketSortConfig::seeded(seed);
    let report = bucket_oblivious_sort(&mut rs, h, m, SortOrder::Ascending, &cfg)?;
    Ok((report, rs.stats()))
}

fn bucket_run(
    cells: &[Cell],
    b: usize,
    m: usize,
    order: SortOrder,
    seed: u64,
) -> (Vec<Cell>, AccessTrace) {
    let mut mem = ExtMem::with_trace(b);
    let h = mem.alloc_array_from_cells(cells);
    bucket_oblivious_sort(&mut mem, &h, m, order, &BucketSortConfig::seeded(seed))
        .expect("bucket sort failed");
    let trace = mem.take_trace().expect("trace was enabled");
    (mem.snapshot_cells(&h), trace)
}

fn oracle_run(cells: &[Cell], b: usize, m: usize, order: SortOrder) -> Vec<Cell> {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    let cmp = match order {
        SortOrder::Ascending => cell_cmp_none_last,
        SortOrder::Descending => cell_cmp_none_last_desc,
    };
    try_external_oblivious_sort_by(&mut mem, &h, m, &cmp).unwrap();
    mem.snapshot_cells(&h)
}

/// Dataset generator: occupancy pattern and key distribution vary with the
/// salt, so the grid covers dense, sparse, duplicate-heavy, pre-sorted and
/// reversed inputs. Payloads stay distinct, so the full `Element` order is
/// strict and the unstable bucket sort must agree with the oracle byte for
/// byte.
fn dataset(n: usize, salt: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            let occupied = match salt % 4 {
                0 => true,                                      // dense
                1 => !hash64(i as u64, salt).is_multiple_of(3), // sparse
                2 => i % 2 == 0,                                // alternating
                _ => i < n / 3,                                 // occupied prefix
            };
            occupied.then(|| {
                let key = match salt % 3 {
                    0 => hash64(i as u64, salt),      // random, distinct whp
                    1 => hash64(i as u64, salt) % 13, // duplicate-heavy
                    _ => i as u64,                    // pre-sorted
                };
                Element::keyed(key, i)
            })
        })
        .collect()
}

#[test]
fn bucket_agrees_with_the_lemma2_oracle_across_twenty_datasets() {
    // Caches of at least 512 elements keep the auto-picked bucket capacity
    // at Z ≥ 128, where the per-bucket overflow probability (≤ exp(−Z/6))
    // is negligible; tiny-cache geometries are covered by the unit tests,
    // where overflow is a legitimate typed outcome.
    let shapes = [
        (1024usize, 8usize, 512usize),
        (2048, 16, 512),
        (4000, 16, 1024),
        (4096, 32, 1024),
    ];
    let mut cases = 0;
    for (n, b, m) in shapes {
        for salt in 0..5u64 {
            let cells = dataset(n, salt.wrapping_mul(0x9E37).wrapping_add(salt));
            let order = if salt % 2 == 0 {
                SortOrder::Ascending
            } else {
                SortOrder::Descending
            };
            let (got, _) = bucket_run(&cells, b, m, order, 0xD1F5 ^ salt);
            let want = oracle_run(&cells, b, m, order);
            assert_eq!(got, want, "N={n} B={b} M={m} salt={salt} {order:?}");
            cases += 1;
        }
    }
    assert!(cases >= 20, "the battery must cover at least 20 datasets");
}

#[test]
fn merge_split_satisfies_the_zero_one_principle() {
    // Every 0/1 pattern of 8 tagged items across two input buckets: the
    // bit-clear items land on side 0 and the bit-set items on side 1, with
    // nothing lost and nothing invented — the 0-1 principle instance that
    // makes the whole butterfly a permutation network.
    for pattern in 0u32..256 {
        let tagged: Vec<(u64, u32)> = (0..8).map(|i| (i as u64, (pattern >> i) & 1)).collect();
        let (a, b) = tagged.split_at(4);
        let (zeros, ones) =
            merge_split(a.to_vec(), b.to_vec(), 0, 8).expect("capacity 8 cannot overflow");
        assert!(
            zeros.iter().all(|&(_, t)| t & 1 == 0),
            "pattern {pattern:#b}"
        );
        assert!(
            ones.iter().all(|&(_, t)| t & 1 == 1),
            "pattern {pattern:#b}"
        );
        let mut all: Vec<u64> = zeros.iter().chain(&ones).map(|&(v, _)| v).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).map(|i| i as u64).collect::<Vec<_>>());
        assert_eq!(zeros.len() as u32, 8 - pattern.count_ones());
    }
}

#[test]
fn same_seed_same_data_is_byte_identical_across_runs() {
    let cells = dataset(1024, 7);
    let (out_a, trace_a) = bucket_run(&cells, 16, 128, SortOrder::Ascending, 99);
    let (out_b, trace_b) = bucket_run(&cells, 16, 128, SortOrder::Ascending, 99);
    assert!(!trace_a.is_empty());
    assert_eq!(out_a, out_b);
    assert_eq!(
        trace_a, trace_b,
        "the same (shape, seed, data) must replay a byte-identical trace"
    );
}

#[test]
fn plaintext_and_encrypted_traces_are_byte_identical() {
    for (n, b, m, seed) in [(512usize, 8usize, 64usize, 3u64), (2048, 16, 256, 4)] {
        let cells = dataset(n, 2); // dense lane of the generator
        let (plain_out, plain_trace) = bucket_run(&cells, b, m, SortOrder::Ascending, seed);

        let mut enc = EncryptedStore::new(b, 0xC1F4);
        let h = enc.alloc_array_from_cells(&cells);
        enc.enable_trace();
        let report = bucket_oblivious_sort(
            &mut enc,
            &h,
            m,
            SortOrder::Ascending,
            &BucketSortConfig::seeded(seed),
        )
        .expect("encrypted bucket sort failed");
        let etrace = enc.take_trace().expect("trace was enabled");
        assert_eq!(enc.snapshot_cells(&h), plain_out, "N={n}");
        assert_eq!(etrace.len() as u64, report.io.total());
        assert_eq!(
            plain_trace, etrace,
            "re-encryption must not perturb the access pattern at N={n}"
        );
    }
}

type Stack = AuthenticatedStore<FaultyStore<EncryptedStore>>;

fn stack(seed: u64) -> Stack {
    let enc = EncryptedStore::new(8, 0xA11CE ^ seed);
    let faulty = FaultyStore::new(enc, seed, FaultSpec::none());
    AuthenticatedStore::new(faulty, 0x4D41_4353 ^ seed)
}

fn populate(auth: &mut Stack, cells: &[Cell]) -> extmem::ArrayHandle {
    let h = BlockStore::alloc_array(auth, cells.len());
    auth.try_store_span(&h, 0, cells).unwrap();
    auth.flush_macs().unwrap();
    h
}

#[test]
fn transient_faults_on_the_full_stack_retry_to_the_sorted_result() {
    let cells: Vec<Cell> = (0..1024)
        .map(|i| Some(Element::keyed(hash64(i as u64, 0xFA) >> 16, i as usize)))
        .collect();
    let mut auth = stack(11);
    let h = populate(&mut auth, &cells);
    auth.inner_mut().set_spec(FaultSpec {
        transient_read_ppm: 30_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
    });
    let (report, retry) =
        retrying_bucket_sort(&mut auth, &h, 128, 5).expect("transients must be ridden out");
    assert!(retry.retries > 0, "3% transients must cause retries");
    assert!(report.io.total() > 0);

    auth.inner_mut().set_spec(FaultSpec::none());
    let got = auth.try_load_span(&h, 0, 1024).unwrap();
    let mut want: Vec<Element> = cells.iter().flatten().copied().collect();
    want.sort_unstable();
    let got: Vec<Element> = got.into_iter().flatten().collect();
    assert_eq!(got, want);
}

#[test]
fn a_corrupting_server_surfaces_as_a_typed_error() {
    let cells: Vec<Cell> = (0..1024)
        .map(|i| Some(Element::keyed(hash64(i as u64, 0xC0), i as usize)))
        .collect();
    let mut auth = stack(13);
    let h = populate(&mut auth, &cells);
    auth.inner_mut().set_spec(FaultSpec {
        transient_read_ppm: 0,
        corrupt_read_ppm: 1_000_000,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
    });
    let err = retrying_bucket_sort(&mut auth, &h, 128, 5).unwrap_err();
    assert!(
        matches!(
            err,
            BucketSortError::Store(StoreError::Corrupted { .. } | StoreError::Stale { .. })
        ),
        "got {err:?}"
    );
}

/// A misbehaving server with no authentication layer (dropped writes leave
/// dummies where a merge run expects its items) must turn into a typed
/// error, never a panic.
#[test]
fn dropped_writes_without_authentication_are_a_typed_error_not_a_panic() {
    let (n, b, m) = (4096, 8, 128);
    let cells: Vec<Cell> = (0..n)
        .map(|i| Some(Element::keyed(hash64(i as u64, 0xD20) >> 16, i)))
        .collect();
    for seed in 1..=8u64 {
        let mut faulty = FaultyStore::new(ExtMem::new(b), seed, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut faulty, n);
        faulty.try_store_span(&h, 0, &cells).unwrap();
        faulty.set_spec(FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 0,
            stale_read_ppm: 0,
            drop_write_ppm: 6000,
        });
        let res = retrying_bucket_sort(&mut faulty, &h, m, seed);
        assert!(
            matches!(
                res,
                Err(BucketSortError::Store(StoreError::Corrupted { .. }))
            ),
            "seed {seed}: got {:?}",
            res.map(|_| ())
        );
    }
}

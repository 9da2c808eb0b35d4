//! Obliviousness test-suite for the external selection: at a fixed shape
//! `(N, B, M)` the server-visible block access sequence must be
//! *byte-identical* no matter what the data values are **and no matter which
//! rank `k` is requested** — selection leaks neither the keys nor which order
//! statistic the client was after. The battery covers both external paths,
//! the pure in-cache path, the quantiles entry point and the
//! plaintext/encrypted backend pair:
//!
//! * `(512, 8, 64)` and `(1000, 16, 128)` take the multi-round path: one
//!   prune round (sample, mark, §3 compaction), then the filter over the
//!   compacted window (`s = 8`) and the recovery pass;
//! * `(4096, 16, 1024)` takes the one-round filter path with `s = 32 < g`:
//!   two streaming passes over the input around one sample sort;
//! * `(2^14, 8, 128)` admits no filter over the input, so it prunes three
//!   times before the filter.

use odo_core::extmem::element::Cell;
use odo_core::extmem::trace::{assert_oblivious, TraceSummary};
use odo_core::extmem::{AccessTrace, Element, EncryptedStore, ExtMem};
use odo_core::select::{try_quantiles, try_select_kth, SelectReport};
use odo_core::RetryPolicy;

/// Pseudo-random dataset: keys in `[0, key_range)`, payloads arbitrary.
fn dataset(n: usize, salt: u64, key_range: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            Some(Element::new(
                odo_core::extmem::util::hash64(i as u64, salt) % key_range,
                odo_core::extmem::util::hash64(i as u64, salt ^ 0xABC) % 500,
            ))
        })
        .collect()
}

fn select_trace(cells: &[Cell], b: usize, m: usize, k: usize) -> AccessTrace {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    mem.enable_trace();
    try_select_kth(&mut mem, &h, m, k, RetryPolicy::default()).unwrap();
    mem.take_trace().expect("trace was enabled")
}

#[test]
fn select_trace_is_identical_across_20_datasets() {
    // The acceptance criterion: ≥ 20 datasets at a fixed (N, B, M, k)
    // produce byte-identical traces. Both shapes take the multi-round path
    // (sampling + sample sort + mark + compact, then the filter over the
    // window and the recovery pass).
    for (n, b, m) in [(512usize, 8usize, 64usize), (1000, 16, 128)] {
        let k = n / 2;
        let report = select_report(&dataset(n, 0, 1000), b, m, k);
        assert_eq!((report.rounds, report.samples_per_chunk), (2, 8));
        let reference = select_trace(&dataset(n, 0, 1000), b, m, k);
        assert!(!reference.is_empty());
        for salt in 1..=20u64 {
            // Vary both the key distribution and the duplication density.
            let key_range = [2u64, 7, 100, u64::MAX][salt as usize % 4];
            let t = select_trace(&dataset(n, salt, key_range), b, m, k);
            assert_oblivious(
                &reference,
                &t,
                &format!("selection N={n} B={b} M={m} k={k} salt={salt}"),
            );
        }
    }
}

#[test]
fn select_trace_is_independent_of_k() {
    // k must not leak: every rank at a fixed shape produces the identical
    // trace, including the extremes.
    let (n, b, m) = (512usize, 8usize, 64usize);
    let cells = dataset(n, 5, 300);
    let reference = select_trace(&cells, b, m, 0);
    for k in [1usize, 2, 17, n / 4, n / 2, n - 2, n - 1] {
        assert_oblivious(
            &reference,
            &select_trace(&cells, b, m, k),
            &format!("selection rank k={k} vs k=0"),
        );
    }
}

#[test]
fn select_trace_ignores_occupancy_and_extreme_datasets() {
    // Same shape, different occupancy patterns and degenerate values: the
    // dummies' positions and all-equal keys shape only block contents.
    let (n, b, m) = (512usize, 8usize, 64usize);
    let dense = dataset(n, 1, 100);
    let sparse: Vec<Cell> = (0..n)
        .map(|i| (i % 3 != 1).then(|| Element::keyed(i as u64, i)))
        .collect();
    let constant: Vec<Cell> = (0..n).map(|i| Some(Element::keyed(42, i))).collect();
    let reference = select_trace(&dense, b, m, 100);
    assert_oblivious(
        &reference,
        &select_trace(&sparse, b, m, 100),
        "dense vs sparse",
    );
    assert_oblivious(
        &reference,
        &select_trace(&constant, b, m, 100),
        "dense vs all-equal keys",
    );
}

#[test]
fn encrypted_store_shares_the_exact_trace() {
    // The identical selection over the re-encrypting store: the adversary's
    // view (addresses AND I/O count) is the same, only the bytes differ.
    let (n, b, m) = (512usize, 8usize, 64usize);
    let cells = dataset(n, 7, 50);
    let k = 123;
    let plain = select_trace(&cells, b, m, k);

    let mut enc = EncryptedStore::new(b, 0x5EC);
    let h = enc.alloc_array_from_cells(&cells);
    enc.enable_trace();
    let (_, report, _) = try_select_kth(&mut enc, &h, m, k, RetryPolicy::default()).unwrap();
    let etrace = enc.take_trace().expect("trace was enabled");
    assert_oblivious(&plain, &etrace, "plaintext vs encrypted store");
    assert_eq!(etrace.len() as u64, report.io.total());
}

#[test]
fn in_cache_path_is_oblivious_too() {
    // N ≤ M: the collapsed one-pass path still may not leak values or k.
    let (n, b, m) = (128usize, 8usize, 256usize);
    let reference = select_trace(&dataset(n, 1, 10), b, m, 0);
    for (salt, k) in [(2u64, 127usize), (3, 64), (4, 1)] {
        let t = select_trace(&dataset(n, salt, 1 << salt), b, m, k);
        assert_oblivious(&reference, &t, &format!("in-cache path salt={salt} k={k}"));
    }
}

#[test]
fn select_trace_length_matches_reported_io() {
    let (n, b, m) = (700usize, 16usize, 128usize);
    let cells = dataset(n, 11, 90);
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(&cells);
    mem.enable_trace();
    let (_, report, _) = try_select_kth(&mut mem, &h, m, 350, RetryPolicy::default()).unwrap();
    let trace = mem.take_trace().unwrap();
    let summary = TraceSummary::of(&trace);
    assert_eq!(summary.len as u64, report.io.total());
    assert_eq!(summary.reads as u64, report.io.reads);
    assert_eq!(summary.writes as u64, report.io.writes);
}

#[test]
fn quantiles_trace_is_independent_of_data_and_ranks() {
    let (n, b, m) = (512usize, 8usize, 64usize);
    let trace_of = |cells: &[Cell], ranks: &[usize]| -> AccessTrace {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        mem.enable_trace();
        try_quantiles(&mut mem, &h, m, ranks, RetryPolicy::default()).unwrap();
        mem.take_trace().expect("trace was enabled")
    };
    let reference = trace_of(&dataset(n, 1, 64), &[0, 128, 256, 384, 511]);
    for salt in 2..=6u64 {
        let t = trace_of(&dataset(n, salt, 9), &[3, 50, 200, 410, 500]);
        assert_oblivious(&reference, &t, &format!("quantiles salt={salt}"));
    }
}

/// The one-round filter shape: `g = 512`, `s = 32`.
const FILTER: (usize, usize, usize) = (4096, 16, 1024);

fn select_report(cells: &[Cell], b: usize, m: usize, k: usize) -> SelectReport {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    try_select_kth(&mut mem, &h, m, k, RetryPolicy::default())
        .unwrap()
        .1
}

#[test]
fn filter_path_takes_one_round_with_fewer_samples_than_slots() {
    let (n, b, m) = FILTER;
    let r = select_report(&dataset(n, 1, 100), b, m, n / 2);
    assert_eq!(r.rounds, 1);
    assert!(r.samples_per_chunk > 0 && r.samples_per_chunk < r.chunk_elems);
    assert_eq!(r.final_window, n);
    // Two passes over the input dominate: reads of the array twice plus the
    // sample array and its sort.
    assert!(r.io.total() < 3 * (n / b) as u64, "{r:?}");
}

#[test]
fn filter_path_trace_is_identical_across_20_datasets() {
    let (n, b, m) = FILTER;
    let k = n / 2;
    let reference = select_trace(&dataset(n, 0, 1000), b, m, k);
    for salt in 1..=20u64 {
        let key_range = [2u64, 7, 100, u64::MAX][salt as usize % 4];
        let t = select_trace(&dataset(n, salt, key_range), b, m, k);
        assert_oblivious(&reference, &t, &format!("filter path salt={salt}"));
    }
}

#[test]
fn filter_path_trace_is_independent_of_k() {
    let (n, b, m) = FILTER;
    let cells = dataset(n, 5, 300);
    let reference = select_trace(&cells, b, m, 0);
    for k in [
        1usize,
        31,
        32,
        511,
        512,
        n / 3,
        n / 2,
        n - 513,
        n - 2,
        n - 1,
    ] {
        assert_oblivious(
            &reference,
            &select_trace(&cells, b, m, k),
            &format!("filter path k={k} vs k=0"),
        );
    }
}

#[test]
fn filter_path_encrypted_store_shares_the_exact_trace() {
    let (n, b, m) = FILTER;
    let cells = dataset(n, 7, 50);
    let k = 1234;
    let plain = select_trace(&cells, b, m, k);
    let mut enc = EncryptedStore::new(b, 0x5EC);
    let h = enc.alloc_array_from_cells(&cells);
    enc.enable_trace();
    let (_, report, _) = try_select_kth(&mut enc, &h, m, k, RetryPolicy::default()).unwrap();
    let etrace = enc.take_trace().expect("trace was enabled");
    assert_oblivious(&plain, &etrace, "filter path: plaintext vs encrypted");
    assert_eq!(etrace.len() as u64, report.io.total());
}

#[test]
fn filter_path_trace_ignores_extreme_inputs() {
    // All-equal keys, sorted and reverse-sorted keys, and an array whose
    // chunks are all dummies except one leave the dense random trace.
    let (n, b, m) = FILTER;
    let k = 300;
    let reference = select_trace(&dataset(n, 3, 1000), b, m, k);
    let extremes: [(&str, Vec<Cell>); 4] = [
        (
            "all-equal keys",
            (0..n).map(|i| Some(Element::keyed(9, i))).collect(),
        ),
        (
            "sorted",
            (0..n).map(|i| Some(Element::keyed(i as u64, i))).collect(),
        ),
        (
            "reverse-sorted",
            (0..n)
                .map(|i| Some(Element::keyed((n - i) as u64, i)))
                .collect(),
        ),
        (
            "one occupied chunk",
            (0..n)
                .map(|i| (i / 512 == 3).then(|| Element::keyed(i as u64 % 37, i)))
                .collect(),
        ),
    ];
    for (what, cells) in &extremes {
        assert_oblivious(&reference, &select_trace(cells, b, m, k), what);
    }
}

#[test]
fn multi_round_path_trace_is_identical_across_datasets_and_ranks() {
    // No s ≤ g/4 fits at N = 2^14, M = 128: three prune rounds, then the
    // filter over the window and the recovery pass.
    let (n, b, m) = (1usize << 14, 8usize, 128usize);
    let cells = dataset(n, 0, 1000);
    let report = select_report(&cells, b, m, 0);
    assert_eq!(report.rounds, 4);
    let reference = select_trace(&cells, b, m, 0);
    for (salt, k) in [(1u64, n / 2), (2, n - 1), (3, 77)] {
        let key_range = [2u64, u64::MAX, 5][salt as usize - 1];
        let t = select_trace(&dataset(n, salt, key_range), b, m, k);
        assert_oblivious(
            &reference,
            &t,
            &format!("multi-round path salt={salt} k={k}"),
        );
    }
}

#[test]
fn cutover_takes_each_path_on_its_side() {
    // At B = 16, M = 1024 (g = 512) the filter admits 61 chunks over the
    // input (s = 128 = g/4), but not 62. Both sides stay oblivious.
    let (b, m) = (16usize, 1024usize);
    for (n, rounds) in [(61 * 512, 1usize), (61 * 512 + 1, 2)] {
        let r = select_report(&dataset(n, 4, 1 << 20), b, m, n / 2);
        assert_eq!(r.rounds, rounds, "N={n}");
        let a = select_trace(&dataset(n, 5, 3), b, m, 0);
        let z = select_trace(&dataset(n, 6, u64::MAX), b, m, n - 1);
        assert_oblivious(&a, &z, &format!("cutover N={n}"));
    }
}

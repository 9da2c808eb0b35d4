//! Property tests pinning `try_select_kth` (and `try_quantiles`) against a
//! sorted-reference oracle across the edge cases selection is notorious for:
//! heavy duplication, extreme ranks, dummy-riddled arrays, non-power-of-two
//! lengths and the pure in-cache regime — plus the typed errors of the
//! fallible entry points, on bad arguments and on a misbehaving server.

use odo_core::extmem::element::Cell;
use odo_core::extmem::util::hash64;
use odo_core::extmem::{
    BlockStore, Element, EncryptedStore, ExtMem, FaultSpec, FaultyStore, RetryPolicy,
};
use odo_core::select::{try_quantiles, try_select_kth};
use odo_core::OdoError;

/// The contract's reference: position `k` of the occupied cells stably
/// sorted by key — i.e. rank by key, ties broken by original position.
fn oracle(cells: &[Cell], k: usize) -> Element {
    let mut live: Vec<(usize, Element)> = cells
        .iter()
        .enumerate()
        .filter_map(|(j, c)| c.map(|e| (j, e)))
        .collect();
    live.sort_by_key(|&(j, e)| (e.key, j));
    live[k].1
}

fn check(cells: &[Cell], b: usize, m: usize, k: usize, label: &str) {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    let (got, report, _) = try_select_kth(&mut mem, &h, m, k, RetryPolicy::default()).unwrap();
    assert_eq!(got, oracle(cells, k), "{label}: wrong element");
    assert_eq!(report.rank, k, "{label}: report rank");
    assert_eq!(
        cells[report.index],
        Some(got),
        "{label}: report index does not point at the returned element"
    );
    // Selection must never disturb the input array.
    assert_eq!(mem.snapshot_cells(&h), cells, "{label}: input modified");
}

fn full(n: usize, salt: u64, key_range: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            Some(Element::new(
                odo_core::extmem::util::hash64(i as u64, salt) % key_range,
                odo_core::extmem::util::hash64(i as u64, salt ^ 1) % 100,
            ))
        })
        .collect()
}

#[test]
fn matches_oracle_across_shapes_and_seeds() {
    for (n, b, m) in [
        (512usize, 8usize, 64usize),
        (1024, 16, 128),
        (2048, 32, 256),
        (768, 8, 64),
    ] {
        for salt in 0..4u64 {
            let cells = full(n, salt, 1 << 20);
            for k in [0, n / 2, n - 1] {
                check(
                    &cells,
                    b,
                    m,
                    k,
                    &format!("N={n} B={b} M={m} salt={salt} k={k}"),
                );
            }
        }
    }
}

#[test]
fn extreme_ranks_k0_and_k_n_minus_1() {
    // k = 0 (minimum) and k = N−1 (maximum) drive the bracket clamps: the
    // lower splitter degenerates to −∞ and the upper to +∞ respectively.
    let n = 1024;
    let cells = full(n, 9, 1 << 30);
    check(&cells, 8, 64, 0, "k=0");
    check(&cells, 8, 64, 1, "k=1");
    check(&cells, 8, 64, n - 2, "k=N-2");
    check(&cells, 8, 64, n - 1, "k=N-1");
}

#[test]
fn all_equal_keys() {
    // Every key identical: only the (key, original index) working order keeps
    // the pruning window shrinking; the answer is the element at position k.
    let n = 900;
    let cells: Vec<Cell> = (0..n)
        .map(|i| Some(Element::new(7, i as u64 * 3)))
        .collect();
    for k in [0, 1, n / 2, n - 1] {
        check(&cells, 8, 64, k, &format!("all-equal k={k}"));
    }
}

#[test]
fn heavy_duplicates() {
    // Key ranges far smaller than N: every pruning bracket lands inside a
    // run of duplicates.
    let n = 1000;
    for key_range in [2u64, 3, 5, 16] {
        let cells = full(n, 13, key_range);
        for k in [0, n / 4, n / 2, 3 * n / 4, n - 1] {
            check(&cells, 8, 128, k, &format!("range={key_range} k={k}"));
        }
    }
}

#[test]
fn non_power_of_two_lengths() {
    for n in [3usize, 100, 500, 999, 1025] {
        let cells = full(n, 21, 64);
        let m = 64;
        for k in [0, n / 2, n - 1] {
            check(&cells, 8, m, k, &format!("N={n} k={k}"));
        }
    }
}

#[test]
fn pure_in_cache_path() {
    // N ≤ M: one read pass, no filtering rounds, no writes.
    for (n, b, m) in [(64usize, 8usize, 64usize), (200, 8, 256), (1, 4, 32)] {
        let cells = full(n, 2, 10);
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        let (got, report, _) =
            try_select_kth(&mut mem, &h, m, n / 2, RetryPolicy::default()).unwrap();
        assert_eq!(got, oracle(&cells, n / 2), "N={n}");
        assert!(report.in_cache);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.io.writes, 0, "the in-cache path never writes");
    }
}

#[test]
fn dummy_riddled_arrays() {
    // Ranks are over occupied cells only; dummy placement is irrelevant.
    let n = 800;
    for density in [1usize, 2, 5] {
        let cells: Vec<Cell> = (0..n)
            .map(|i| {
                (odo_core::extmem::util::hash64(i as u64, 31) as usize % 6 >= density)
                    .then(|| Element::keyed((i as u64 * 37) % 97, i))
            })
            .collect();
        let live = cells.iter().filter(|c| c.is_some()).count();
        for k in [0, live / 2, live - 1] {
            check(&cells, 8, 64, k, &format!("density={density} k={k}"));
        }
    }
}

#[test]
fn selection_agrees_between_plain_and_encrypted_stores() {
    let cells = full(600, 4, 50);
    for k in [0usize, 300, 599] {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let (plain, preport, _) =
            try_select_kth(&mut mem, &h, 64, k, RetryPolicy::default()).unwrap();

        let mut enc = EncryptedStore::new(8, 0xE);
        let eh = enc.alloc_array_from_cells(&cells).unwrap();
        let (encd, ereport, _) =
            try_select_kth(&mut enc, &eh, 64, k, RetryPolicy::default()).unwrap();

        assert_eq!(plain, encd, "k={k}");
        assert_eq!(preport.io, ereport.io, "k={k}: encryption added I/Os");
    }
}

#[test]
fn quantiles_match_the_oracle_at_every_requested_rank() {
    let n = 1100;
    for key_range in [4u64, 1 << 16] {
        let cells = full(n, 8, key_range);
        let ranks = [0usize, 1, n / 4, n / 2, 3 * n / 4, n - 2, n - 1];
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let (got, io, _) =
            try_quantiles(&mut mem, &h, 128, &ranks, RetryPolicy::default()).unwrap();
        assert!(io.total() > 0);
        for (i, &rk) in ranks.iter().enumerate() {
            assert_eq!(got[i], oracle(&cells, rk), "range={key_range} rank={rk}");
        }
        assert_eq!(mem.snapshot_cells(&h), cells, "input modified");
    }
}

#[test]
fn quantiles_and_select_kth_agree() {
    let cells = full(512, 77, 9);
    let ranks = [0usize, 100, 255, 256, 511];
    let mut mem = ExtMem::new(8);
    let h = mem.alloc_array_from_cells(&cells);
    let (qs, _, _) = try_quantiles(&mut mem, &h, 64, &ranks, RetryPolicy::default()).unwrap();
    for (i, &rk) in ranks.iter().enumerate() {
        let mut mem2 = ExtMem::new(8);
        let h2 = mem2.alloc_array_from_cells(&cells);
        let (sel, _, _) = try_select_kth(&mut mem2, &h2, 64, rk, RetryPolicy::default()).unwrap();
        assert_eq!(qs[i], sel, "rank {rk}");
    }
}

#[test]
fn filter_path_matches_the_oracle_on_extreme_inputs() {
    // N = 4096, B = 16, M = 1024: one filtering round, g = 512, s = 32.
    let (n, b, m) = (4096usize, 16usize, 1024usize);
    let inputs: [(&str, Vec<Cell>); 5] = [
        ("random", full(n, 3, 1 << 20)),
        (
            "all-equal keys",
            (0..n)
                .map(|i| Some(Element::new(5, i as u64 * 7)))
                .collect(),
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
                .map(|i| (i / 512 == 5).then(|| Element::keyed(i as u64 % 11, i)))
                .collect(),
        ),
    ];
    for (what, cells) in &inputs {
        let live = cells.iter().flatten().count();
        for k in [
            0,
            1,
            31,
            32,
            live / 3,
            live / 2,
            live - 33,
            live - 2,
            live - 1,
        ] {
            check(cells, b, m, k, &format!("{what} k={k}"));
        }
    }
}

#[test]
fn multi_round_path_matches_the_oracle() {
    // N = 2^14, B = 8, M = 128: no filter fits the input, three prune
    // rounds shrink the window first.
    let n = 1 << 14;
    for (salt, key_range) in [(1u64, 3u64), (2, 1 << 30)] {
        let cells = full(n, salt, key_range);
        for k in [0, n / 3, n - 1] {
            check(&cells, 8, 128, k, &format!("range={key_range} k={k}"));
        }
    }
}

#[test]
fn the_filter_never_costs_more_than_pruning_to_the_cache() {
    // Reference totals of the prune-only schedule: s = 8 every round while
    // the window exceeds M, a working-copy pass before the first round, a
    // window copy after each, and a sort + scan + recovery finish. The
    // filter, on either side of its cutover, must never cost more.
    for (n, b, m, prune_only) in [
        (4096usize, 16usize, 1024usize, 7096u64),
        (61 * 512, 16, 1024, 60110),
        (61 * 512 + 1, 16, 1024, 60288),
        (4096, 16, 128, 15244),
        (512, 8, 64, 3101),
        (1000, 16, 128, 2980),
    ] {
        let cells = full(n, 6, 1 << 20);
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        let (_, report, _) =
            try_select_kth(&mut mem, &h, m, n / 2, RetryPolicy::default()).unwrap();
        assert!(
            report.io.total() <= prune_only,
            "N={n} B={b} M={m}: {} I/Os > {prune_only}",
            report.io.total()
        );
    }
}

#[test]
fn try_quantiles_matches_the_oracle_and_types_its_argument_errors() {
    let cells = full(1000, 0x9A, 50);
    let (b, m) = (8, 128);
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(&cells);
    let ranks = [0, 250, 499, 999];
    let (got, io, retry) = try_quantiles(&mut mem, &h, m, &ranks, RetryPolicy::default()).unwrap();
    let want: Vec<Element> = ranks.iter().map(|&k| oracle(&cells, k)).collect();
    assert_eq!(got, want);
    assert!(io.total() > 0);
    assert_eq!(retry.retries, 0);

    // A rank past the occupied count, and more ranks than a quarter of the
    // cache holds, are argument errors, not panics.
    let past = try_quantiles(&mut mem, &h, m, &[3, 1000], RetryPolicy::default());
    assert!(
        matches!(past, Err(OdoError::InvalidArgument { reason }) if reason.contains("out of range")),
        "got {past:?}"
    );
    let too_many: Vec<usize> = (0..m / 4 + 1).collect();
    let crowded = try_quantiles(&mut mem, &h, m, &too_many, RetryPolicy::default());
    assert!(
        matches!(crowded, Err(OdoError::InvalidArgument { reason }) if reason.contains("private cache")),
        "got {crowded:?}"
    );
    assert_eq!(mem.snapshot_cells(&h), cells, "the input is never modified");
}

/// A server that drops writes, with no authentication layer, hands the
/// splitter step a sample array with holes, so the bracket can miss the
/// target. Every run must return: a failed invariant is a typed,
/// tampering-classified error, and a bracket the lost samples left intact
/// still yields the oracle's element, never a wrong one. At this shape the
/// only writes are the 8 sample blocks, so the drop rate is high enough that
/// drops fire at every seed.
#[test]
fn dropped_writes_without_authentication_never_panic_selection() {
    let (n, b, m) = (4096usize, 16usize, 1024usize);
    let cells: Vec<Cell> = (0..n)
        .map(|i| Some(Element::new(hash64(i as u64, 0x5E1) >> 16, i as u64)))
        .collect();
    let mut corrupted = 0;
    for seed in [14u64, 15, 22, 31] {
        let mut faulty = FaultyStore::new(ExtMem::new(b), seed, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut faulty, n);
        faulty.try_store_span(&h, 0, &cells).unwrap();
        faulty.set_spec(FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 0,
            stale_read_ppm: 0,
            drop_write_ppm: 300_000,
            transient_write_ppm: 0,
        });
        let res = try_select_kth(&mut faulty, &h, m, n / 2, RetryPolicy::default());
        assert!(faulty.fault_stats().dropped_writes > 0, "seed {seed}");
        match res {
            Err(OdoError::CorruptedRouting { .. }) => corrupted += 1,
            Ok((got, _, _)) => assert_eq!(got, oracle(&cells, n / 2), "seed {seed}"),
            Err(e) => panic!("seed {seed}: got {e:?}"),
        }
    }
    // Seed 15 drops one sample block whose loss leaves the bracket intact.
    assert_eq!(corrupted, 3);
}

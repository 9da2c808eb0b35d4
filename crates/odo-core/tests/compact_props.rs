//! Property tests for the external butterfly compaction: across seeded
//! random inputs and shapes, the external-memory execution must agree with
//! the in-memory circuit (`obliv_net::butterfly`) and with a plain
//! `Vec`-retain reference — stability, tightness and order preservation
//! included — and expansion must invert compaction.

use odo_core::compact::{try_compact, try_expand};
use odo_core::extmem::element::Cell;
use odo_core::extmem::{Element, EncryptedStore, ExtMem};
use odo_core::obliv_net::butterfly;
use odo_core::RetryPolicy;

fn occupancy(n: usize, salt: u64, num: u64, den: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            if odo_core::extmem::util::hash64(i as u64, salt) % den < num {
                Some(Element::keyed(
                    odo_core::extmem::util::hash64(i as u64, !salt),
                    i,
                ))
            } else {
                None
            }
        })
        .collect()
}

/// The plain reference: `Vec::retain` of the occupied cells, dummy-padded.
fn retain_reference(cells: &[Cell]) -> Vec<Cell> {
    let mut kept: Vec<Cell> = cells.to_vec();
    kept.retain(|c| c.is_some());
    kept.resize(cells.len(), None);
    kept
}

fn external_compact(cells: &[Cell], b: usize, m: usize) -> Vec<Cell> {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    try_compact(&mut mem, &h, m, RetryPolicy::default()).unwrap();
    mem.snapshot_cells(&h)
}

#[test]
fn external_equals_circuit_equals_retain_across_seeds_and_shapes() {
    for salt in 0..8u64 {
        for &(n, b, m) in &[
            (129usize, 8usize, 64usize), // n not a power of two
            (256, 8, 64),
            (500, 16, 128),
            (1024, 32, 256),
            (64, 8, 512),  // fully in cache
            (100, 4, 512), // fully in cache, n not a power of two
        ] {
            let cells = occupancy(n, salt, 1 + salt % 4, 5);
            let external = external_compact(&cells, b, m);
            assert_eq!(
                external,
                butterfly::compact(&cells),
                "external vs circuit at n={n} b={b} m={m} salt={salt}"
            );
            assert_eq!(
                external,
                retain_reference(&cells),
                "external vs retain at n={n} b={b} m={m} salt={salt}"
            );
        }
    }
}

#[test]
fn edge_occupancies_are_preserved_exactly() {
    for &(n, b, m) in &[(256usize, 8usize, 64usize), (100, 4, 32), (1usize, 4, 32)] {
        let all_empty: Vec<Cell> = vec![None; n];
        assert_eq!(external_compact(&all_empty, b, m), all_empty);

        let all_full: Vec<Cell> = (0..n).map(|i| Some(Element::keyed(9, i))).collect();
        assert_eq!(external_compact(&all_full, b, m), all_full);

        let mut single: Vec<Cell> = vec![None; n];
        single[n - 1] = Some(Element::keyed(42, n - 1));
        let compacted = external_compact(&single, b, m);
        assert_eq!(compacted[0], Some(Element::keyed(42, n - 1)));
        assert!(compacted[1..].iter().all(|c| c.is_none()));
    }
}

#[test]
fn stability_keeps_equal_keys_in_position_order() {
    // Every occupied cell has the same key; the payload records the original
    // position, so any instability would be visible.
    let cells: Vec<Cell> = (0..400)
        .map(|i| (i % 7 < 3).then(|| Element::new(5, i as u64)))
        .collect();
    let compacted = external_compact(&cells, 16, 128);
    let payloads: Vec<u64> = compacted.iter().flatten().map(|e| e.payload).collect();
    let mut sorted = payloads.clone();
    sorted.sort_unstable();
    assert_eq!(payloads, sorted, "compaction reordered equal-keyed items");
}

#[test]
fn expand_inverts_compact_across_seeds() {
    for salt in 0..6u64 {
        for &(n, b, m) in &[(256usize, 8usize, 64usize), (129, 8, 64), (64, 4, 512)] {
            let cells = occupancy(n, salt, 2, 5);
            let targets: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(j, _)| j)
                .collect();
            let mut mem = ExtMem::new(b);
            let h = mem.alloc_array_from_cells(&cells);
            try_compact(&mut mem, &h, m, RetryPolicy::default()).unwrap();
            try_expand(&mut mem, &h, &targets, m, RetryPolicy::default()).unwrap();
            assert_eq!(
                mem.snapshot_cells(&h),
                cells,
                "round trip at n={n} b={b} m={m} salt={salt}"
            );
        }
    }
}

#[test]
fn external_expand_matches_circuit_expand() {
    for salt in 0..4u64 {
        let n = 256;
        let cells = occupancy(n, salt, 1, 4);
        let r = cells.iter().filter(|c| c.is_some()).count();
        let prefix: Vec<Cell> = cells
            .iter()
            .filter(|c| c.is_some())
            .copied()
            .chain(std::iter::repeat(None))
            .take(n)
            .collect();
        let targets: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(j, _)| j)
            .collect();
        assert_eq!(targets.len(), r);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&prefix);
        try_expand(&mut mem, &h, &targets, 64, RetryPolicy::default()).unwrap();
        assert_eq!(
            mem.snapshot_cells(&h),
            butterfly::expand(&prefix, &targets),
            "salt={salt}"
        );
    }
}

#[test]
fn encrypted_store_computes_the_same_compaction_with_equal_io() {
    let cells = occupancy(500, 13, 1, 2);
    let mut mem = ExtMem::new(16);
    let h = mem.alloc_array_from_cells(&cells);
    let plain = try_compact(&mut mem, &h, 128, RetryPolicy::default())
        .unwrap()
        .0;

    let mut enc = EncryptedStore::new(16, 0x5EC_2E7);
    let eh = enc.alloc_array_from_cells(&cells);
    let encrypted = try_compact(&mut enc, &eh, 128, RetryPolicy::default())
        .unwrap()
        .0;

    assert_eq!(enc.snapshot_cells(&eh), mem.snapshot_cells(&h));
    assert_eq!(encrypted.io, plain.io, "re-encryption must add zero I/Os");
    assert_eq!(encrypted.occupied, plain.occupied);
}

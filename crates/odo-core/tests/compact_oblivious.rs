//! Obliviousness test-suite for the external butterfly compaction: at a
//! fixed shape `(N, B, M)` the server-visible block access sequence must be
//! *byte-identical* no matter which cells are occupied, what the items are,
//! or (for expansion) where they are routed — the address trace, not the
//! encrypted data, is all the honest-but-curious server sees (Goodrich &
//! Mitzenmacher's ORAM simulation argument, and the premise this paper's
//! compaction inherits).

use odo_core::compact::{compact, expand, CompactReport};
use odo_core::extmem::element::Cell;
use odo_core::extmem::trace::{assert_oblivious, TraceSummary};
use odo_core::extmem::util::hash64;
use odo_core::extmem::{AccessTrace, Element, EncryptedStore, ExtMem};

fn occupancy(n: usize, salt: u64, num: u64, den: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            if odo_core::extmem::util::hash64(i as u64, salt) % den < num {
                Some(Element::keyed(i as u64, i))
            } else {
                None
            }
        })
        .collect()
}

fn compact_trace(cells: &[Cell], b: usize, m: usize) -> AccessTrace {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    mem.enable_trace();
    compact(&mut mem, &h, m);
    mem.take_trace().expect("trace was enabled")
}

/// A seeded, std-only sweep of external shapes `(N, B, M)`. Every block
/// size meets every cache `M ∈ {8B, 11B, 12B, 64B, 128B}` (`11B` leaves the
/// window at one block, so each column sweep runs a single level), once
/// with `N` just above `M` — where the top level groups hold strides of
/// more blocks than the array has — and once with `N` a random multiple of
/// `M` plus a random remainder, usually not a multiple of `B`.
fn shape_sweep(seed: u64) -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for b in [2usize, 4, 8, 16] {
        for mb in [8usize, 11, 12, 64, 128] {
            let m = mb * b;
            let r = hash64((b * 1000 + mb) as u64, seed) as usize;
            shapes.push((m + 1 + r % b, b, m));
            shapes.push((m * (2 + (r >> 8) % 15) + (r >> 16) % b, b, m));
        }
    }
    shapes
}

/// The I/O count of an external compaction or expansion, from the shape
/// alone: `⌈N/B⌉·(2 + 4 + 4·⌈(⌈log₂N⌉ − log₂W)/g⌉)` — a label pass, the
/// head window, and one column sweep per `g = max(1, log₂(W/B))` external
/// levels, with `W` the largest power of two such that `6W ≤ M`.
fn external_ios(n: usize, b: usize, m: usize) -> u64 {
    let lv = (usize::BITS - (n - 1).leading_zeros()) as usize;
    let mut w = 1usize;
    while 12 * w <= m {
        w *= 2;
    }
    let g = ((w / b).trailing_zeros() as usize).max(1);
    let passes = (lv - w.trailing_zeros() as usize).div_ceil(g);
    n.div_ceil(b) as u64 * (6 + 4 * passes as u64)
}

/// Compacts `cells`, then expands the prefix back to the occupied
/// positions, asserting both results; returns each pass's trace and report.
fn round_trip(cells: &[Cell], b: usize, m: usize) -> [(AccessTrace, CompactReport); 2] {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    mem.enable_trace();
    let compacted = compact(&mut mem, &h, m);
    let compact_trace = mem.take_trace().expect("trace was enabled");
    let mut expected: Vec<Cell> = cells.iter().flatten().map(|&e| Some(e)).collect();
    expected.resize(cells.len(), None);
    assert_eq!(
        mem.snapshot_cells(&h),
        expected,
        "compaction N={} B={b} M={m}",
        cells.len()
    );

    let targets: Vec<usize> = (0..cells.len()).filter(|&j| cells[j].is_some()).collect();
    mem.enable_trace();
    let expanded = expand(&mut mem, &h, &targets, m);
    let expand_trace = mem.take_trace().expect("trace was enabled");
    assert_eq!(
        mem.snapshot_cells(&h),
        cells,
        "expansion N={} B={b} M={m}",
        cells.len()
    );
    [(compact_trace, compacted), (expand_trace, expanded)]
}

#[test]
fn compact_trace_is_identical_across_20_random_occupancies() {
    // The acceptance criterion: ≥ 20 random inputs/occupancies at a fixed
    // (N, B, M) produce byte-identical traces. N > M so the external path
    // (label pass + window sweep + block-pair levels) is exercised.
    for (n, b, m) in [(512usize, 8usize, 64usize), (300, 16, 128)] {
        let reference = compact_trace(&occupancy(n, 0, 1, 2), b, m);
        assert!(!reference.is_empty());
        for salt in 1..=20u64 {
            // Vary both the occupancy density and the pattern.
            let cells = occupancy(n, salt, 1 + salt % 5, 6);
            let t = compact_trace(&cells, b, m);
            assert_oblivious(
                &reference,
                &t,
                &format!("compaction N={n} B={b} M={m} salt={salt}"),
            );
        }
    }
    // Across the seeded shape sweep, two occupancies per shape: correct
    // results in both directions, byte-identical traces, and exactly the
    // shape's I/O count.
    for (n, b, m) in shape_sweep(0x5EED) {
        let sparse = round_trip(&occupancy(n, 1, 1, 6), b, m);
        let dense = round_trip(&occupancy(n, 2, 5, 6), b, m);
        for ((ts, rs), (td, rd)) in sparse.iter().zip(&dense) {
            let context = format!(
                "N={n} B={b} M={m} occupied {} vs {}",
                rs.occupied, rd.occupied
            );
            assert_oblivious(ts, td, &context);
            assert_eq!(rs.io.total(), external_ios(n, b, m), "{context}");
            assert_eq!(TraceSummary::of(ts).len as u64, rs.io.total(), "{context}");
        }
    }
}

#[test]
fn compact_trace_ignores_extreme_occupancies() {
    let (n, b, m) = (512usize, 8usize, 64usize);
    let reference = compact_trace(&occupancy(n, 3, 1, 2), b, m);
    let empty = compact_trace(&vec![None; n], b, m);
    let full = compact_trace(
        &(0..n)
            .map(|i| Some(Element::keyed(0, i)))
            .collect::<Vec<_>>(),
        b,
        m,
    );
    assert_oblivious(&reference, &empty, "random vs all-empty");
    assert_oblivious(&reference, &full, "random vs all-full");
}

#[test]
fn expand_trace_is_independent_of_targets() {
    // Same shape, same prefix length irrelevant too: traces must agree even
    // across different prefix lengths and target sets, because the target
    // data only steers in-cache moves.
    let (n, b, m) = (256usize, 8usize, 64usize);
    let trace_of = |r: usize, spread: usize| -> AccessTrace {
        let cells: Vec<Cell> = (0..n)
            .map(|i| (i < r).then(|| Element::keyed(i as u64, i)))
            .collect();
        let targets: Vec<usize> = (0..r).map(|i| i * spread).collect();
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        mem.enable_trace();
        expand(&mut mem, &h, &targets, m);
        mem.take_trace().expect("trace was enabled")
    };
    let reference = trace_of(64, 4);
    for (r, spread) in [(64usize, 2usize), (32, 8), (85, 3), (0, 1), (256, 1)] {
        assert_oblivious(
            &reference,
            &trace_of(r, spread),
            &format!("expansion N={n} r={r} spread={spread}"),
        );
    }
}

#[test]
fn encrypted_store_shares_the_exact_trace() {
    // The identical algorithm over the re-encrypting store: the adversary's
    // view (addresses AND I/O count) is the same, only the bytes differ.
    let (n, b, m) = (512usize, 8usize, 64usize);
    let cells = occupancy(n, 7, 1, 3);
    let plain = compact_trace(&cells, b, m);

    let mut enc = EncryptedStore::new(b, 0xB0B);
    let h = enc.alloc_array_from_cells(&cells);
    enc.enable_trace();
    compact(&mut enc, &h, m);
    let etrace = enc.take_trace().expect("trace was enabled");
    assert_oblivious(&plain, &etrace, "plaintext vs encrypted store");
}

#[test]
fn compact_trace_length_matches_reported_io() {
    let (n, b, m) = (500usize, 16usize, 128usize);
    let cells = occupancy(n, 11, 2, 5);
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(&cells);
    mem.enable_trace();
    let report = compact(&mut mem, &h, m);
    let trace = mem.take_trace().unwrap();
    let summary = TraceSummary::of(&trace);
    assert_eq!(summary.len as u64, report.io.total());
    assert_eq!(summary.reads as u64, report.io.reads);
    assert_eq!(summary.writes as u64, report.io.writes);
}

#[test]
fn in_cache_path_is_oblivious_too() {
    // N <= M: the collapsed one-sweep path still may not leak occupancy.
    let (n, b, m) = (128usize, 8usize, 256usize);
    let reference = compact_trace(&occupancy(n, 1, 1, 2), b, m);
    for salt in 2..=6u64 {
        let t = compact_trace(&occupancy(n, salt, salt % 4, 4), b, m);
        assert_oblivious(&reference, &t, &format!("in-cache path salt={salt}"));
    }
}

//! Obliviousness test-suite for the external butterfly compaction: at a
//! fixed shape `(N, B, M)` the server-visible block access sequence must be
//! *byte-identical* no matter which cells are occupied, what the items are,
//! or (for expansion) where they are routed — the address trace, not the
//! encrypted data, is all the honest-but-curious server sees (Goodrich &
//! Mitzenmacher's ORAM simulation argument, and the premise this paper's
//! compaction inherits).

use odo_core::compact::{try_compact, try_expand, CompactReport};
use odo_core::extmem::element::Cell;
use odo_core::extmem::trace::{assert_oblivious, TraceSummary};
use odo_core::extmem::util::hash64;
use odo_core::extmem::{AccessTrace, Element, EncryptedStore, ExtMem};
use odo_core::RetryPolicy;

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
    try_compact(&mut mem, &h, m, RetryPolicy::default()).unwrap();
    mem.take_trace().expect("trace was enabled")
}

/// A seeded, std-only sweep of external shapes `(N, B, M)`. Every block
/// size meets every cache `M ∈ {8B, 11B, 12B, 64B, 128B}` (`8B` leaves the
/// window at four blocks, so each column sweep runs two levels), once
/// with `N` just above `M` — where the top level groups hold strides of
/// more blocks than the array has — and once with `N` a random multiple of
/// `M` plus a random remainder, usually not a multiple of `B`. One more
/// shape at `B = 64`, `M = 8B`, `N ≈ 2^15` has a row table too large for
/// the cache, so it streams from the server.
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
    shapes.push(((1 << 15) + hash64(64, seed) as usize % 64, 64, 512));
    shapes
}

/// The I/O count of an external compaction or expansion, from the shape
/// alone. `W` is the largest power of two such that `W + B` plus two row
/// tables of up to `min(⌈⌈N/B⌉·B/W⌉, B)` words fit in `M`; there are
/// `S = 1 + ⌈(⌈log₂N⌉ − log₂W)/g⌉` sweeps — the head window and one column
/// sweep per `g = log₂(W/B)` external levels, of strides `(W/B)^j` — and
/// each reads and writes the data once. Expansion takes its ranks from the
/// targets and costs exactly that. Compaction reads them from row tables:
/// one of stride `K` that does not fit in half the cache the ring leaves
/// streams from the server, and each column of the sweep that reads it (of
/// stride `K`) and of the sweep that fills it (of stride `K·B/W`) reads and
/// writes the table blocks holding the rows of its blocks once.
fn external_ios(n: usize, b: usize, m: usize, expanding: bool) -> u64 {
    let nb = n.div_ceil(b);
    let lv = (usize::BITS - (n - 1).leading_zeros()) as usize;
    let fits = |w: usize| w + b + 2 * nb.div_ceil(w / b).min(b) <= m;
    let mut w = 4 * b;
    while fits(2 * w) {
        w *= 2;
    }
    let q = w / b;
    let columns = (lv - w.trailing_zeros() as usize).div_ceil(q.trailing_zeros() as usize);
    let mut ios = 2 * nb * (1 + columns);
    if expanding {
        return ios as u64;
    }
    let room = (m - w - b) / 2;
    // Table blocks column c of a sweep of stride k touches in a table of
    // the given stride.
    let touched = |c: usize, k: usize, stride: usize| {
        let rows = ((nb - c).div_ceil(k) - 1) * k / stride;
        rows / b + 1
    };
    for j in 1..=columns {
        let stride = q.pow(j as u32);
        if nb.div_ceil(stride) > room {
            ios += (0..stride)
                .map(|c| 2 * touched(c, stride, stride))
                .sum::<usize>();
            ios += (0..stride / q)
                .map(|c| 2 * touched(c, stride / q, stride))
                .sum::<usize>();
        }
    }
    ios as u64
}

/// Compacts `cells`, then expands the prefix back to the occupied
/// positions, asserting both results; returns each pass's trace and report.
fn round_trip(cells: &[Cell], b: usize, m: usize) -> [(AccessTrace, CompactReport); 2] {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    mem.enable_trace();
    let compacted = try_compact(&mut mem, &h, m, RetryPolicy::default())
        .unwrap()
        .0;
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
    let expanded = try_expand(&mut mem, &h, &targets, m, RetryPolicy::default())
        .unwrap()
        .0;
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
    // (head-window sweep + column sweeps) is exercised.
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
        for (((ts, rs), (td, rd)), expanding) in sparse.iter().zip(&dense).zip([false, true]) {
            let context = format!(
                "N={n} B={b} M={m} occupied {} vs {}",
                rs.occupied, rd.occupied
            );
            assert_oblivious(ts, td, &context);
            assert_eq!(rs.io.total(), external_ios(n, b, m, expanding), "{context}");
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
        try_expand(&mut mem, &h, &targets, m, RetryPolicy::default()).unwrap();
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
    let h = enc.alloc_array_from_cells(&cells).unwrap();
    enc.enable_trace();
    try_compact(&mut enc, &h, m, RetryPolicy::default()).unwrap();
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
    let report = try_compact(&mut mem, &h, m, RetryPolicy::default())
        .unwrap()
        .0;
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

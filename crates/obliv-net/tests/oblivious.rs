//! Obliviousness test-suite for the external sort: the server-visible block
//! access sequence must be *identical* for any two inputs of the same shape.

use extmem::element::Cell;
use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};
use extmem::trace::{assert_oblivious, TraceSummary};
use extmem::{AccessTrace, ArrayHandle, BlockStore, Element, EncryptedStore, ExtMem};
use obliv_net::external_sort::{try_external_oblivious_sort_by, SortOrder, SortReport};

/// The Lemma 2 sort of `h` in `order`, dummies last.
fn lemma2_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    m: usize,
    order: SortOrder,
) -> SortReport {
    let cmp = match order {
        SortOrder::Ascending => cell_cmp_none_last,
        SortOrder::Descending => cell_cmp_none_last_desc,
    };
    try_external_oblivious_sort_by(store, h, m, &cmp).expect("an honest store never fails")
}

fn trace_of(cells: &[Cell], b: usize, m: usize, order: SortOrder) -> AccessTrace {
    let mut mem = ExtMem::new(b);
    let h = mem.alloc_array_from_cells(cells);
    mem.enable_trace();
    lemma2_sort(&mut mem, &h, m, order);
    mem.take_trace().expect("trace was enabled")
}

fn keyed(vals: impl IntoIterator<Item = u64>) -> Vec<Cell> {
    vals.into_iter()
        .enumerate()
        .map(|(i, k)| Some(Element::keyed(k, i)))
        .collect()
}

fn pseudo_random(n: usize, salt: u64) -> Vec<Cell> {
    keyed((0..n as u64).map(|i| extmem::util::hash64(i, salt) % 1000))
}

#[test]
fn external_sort_trace_is_input_independent() {
    for (n, b, m) in [
        (256usize, 8usize, 32usize),
        (256, 8, 256),
        (1024, 16, 64),
        (100, 7, 21), // padded, non-power-of-two B
    ] {
        let sorted = keyed(0..n as u64);
        let reversed = keyed((0..n as u64).rev());
        let random = pseudo_random(n, 0xFEED);
        let constant = keyed(std::iter::repeat_n(42, n));

        let t0 = trace_of(&sorted, b, m, SortOrder::Ascending);
        for (label, input) in [
            ("reversed", &reversed),
            ("random", &random),
            ("constant", &constant),
        ] {
            let t = trace_of(input, b, m, SortOrder::Ascending);
            assert_oblivious(
                &t0,
                &t,
                &format!("external sort N={n} B={b} M={m} vs {label}"),
            );
        }
    }
}

#[test]
fn trace_is_also_independent_of_dummy_placement() {
    // Same shape, different occupancy pattern: the adversary must not be
    // able to tell where the dummies are.
    let n = 128;
    let dense: Vec<Cell> = (0..n).map(|i| Some(Element::keyed(i as u64, i))).collect();
    let sparse: Vec<Cell> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                Some(Element::keyed(1000 - i as u64, i))
            } else {
                None
            }
        })
        .collect();
    let a = trace_of(&dense, 8, 32, SortOrder::Ascending);
    let b = trace_of(&sparse, 8, 32, SortOrder::Ascending);
    assert_oblivious(&a, &b, "dense vs sparse occupancy");
}

#[test]
fn descending_and_ascending_share_the_access_pattern() {
    // The comparator direction is computed inside the private cache; the
    // server-visible sequence is identical either way.
    let input = pseudo_random(256, 3);
    let a = trace_of(&input, 8, 64, SortOrder::Ascending);
    let d = trace_of(&input, 8, 64, SortOrder::Descending);
    assert_oblivious(&a, &d, "ascending vs descending");
}

#[test]
fn encrypted_store_shares_the_exact_sort_trace() {
    // The trait-generic sort over the re-encrypting store: the adversary's
    // view (addresses AND I/O count) is identical to the plaintext run, and
    // the output still comes back sorted after the decrypt round trips.
    for (n, b, m) in [(512usize, 8usize, 64usize), (300, 16, 128)] {
        let cells = pseudo_random(n, 0xE7C);
        let plain = trace_of(&cells, b, m, SortOrder::Ascending);

        let mut enc = EncryptedStore::new(b, 0x50F7);
        let h = enc.alloc_array_from_cells(&cells);
        enc.enable_trace();
        let report = lemma2_sort(&mut enc, &h, m, SortOrder::Ascending);
        let etrace = enc.take_trace().expect("trace was enabled");
        assert_oblivious(&plain, &etrace, "plaintext vs encrypted sort");
        assert_eq!(etrace.len() as u64, report.io.total());

        let got: Vec<Element> = enc.snapshot_cells(&h).into_iter().flatten().collect();
        let mut expected: Vec<Element> = cells.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "N={n} B={b} M={m}");
    }
}

#[test]
fn trace_length_matches_reported_io() {
    let input = pseudo_random(512, 9);
    let mut mem = ExtMem::new(16);
    let h = mem.alloc_array_from_cells(&input);
    mem.enable_trace();
    let report = lemma2_sort(&mut mem, &h, 64, SortOrder::Ascending);
    let trace = mem.take_trace().unwrap();
    let summary = TraceSummary::of(&trace);
    assert_eq!(summary.len as u64, report.io.total());
    assert_eq!(summary.reads as u64, report.io.reads);
    assert_eq!(summary.writes as u64, report.io.writes);
}

#[test]
fn external_sort_matches_std_sort_on_random_inputs() {
    // Property test: across shapes and seeds, the oblivious sort agrees
    // with the standard library sort.
    for salt in 0..8u64 {
        for (n, b, m) in [
            (64usize, 4usize, 16usize),
            (129, 8, 32),
            (500, 16, 64),
            (1024, 32, 256),
        ] {
            let input: Vec<Element> = (0..n)
                .map(|i| Element::keyed(extmem::util::hash64(i as u64, salt) % 64, i))
                .collect();
            let mut mem = ExtMem::new(b);
            let h = mem.alloc_array_from_elements(&input);
            lemma2_sort(&mut mem, &h, m, SortOrder::Ascending);
            let mut expected = input;
            expected.sort_unstable();
            assert_eq!(
                mem.snapshot_elements(&h),
                expected,
                "mismatch at n={n} b={b} m={m} salt={salt}"
            );
        }
    }
}

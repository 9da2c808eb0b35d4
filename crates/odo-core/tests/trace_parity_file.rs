//! Backend trace-parity battery for the file-backed store stack.
//!
//! `FileStore` mirrors `ExtMem`'s global block addressing exactly (arrays are
//! laid out back to back, block `i` of a handle is global block
//! `start_block + i`), so every primitive must produce a *byte-identical*
//! server-visible access trace over `ExtMem`, `FileStore`, and
//! `PrefetchingStore<FileStore>` — the prefetching wrapper records its
//! logical trace in foreground request order, so read-ahead must be
//! invisible in the trace by construction. Each case also checks that the
//! final array contents agree across backends.

use odo_core::compact::{try_compact, try_expand};
use odo_core::extmem::element::Cell;
use odo_core::extmem::trace::assert_oblivious;
use odo_core::extmem::util::hash64;
use odo_core::{
    try_select_kth, AccessTrace, ArrayHandle, BlockStore, Element, EncryptedStore, ExtMem,
    FileStore, OblivSorter, PrefetchConfig, PrefetchingStore, RetryPolicy, SortOrder,
};

const SEED: u64 = 0x0B0C;

#[derive(Clone, Copy)]
enum Prim {
    SortBitonic,
    SortBucket,
    Compact,
    Expand,
    Select,
}

struct Case {
    name: &'static str,
    prim: Prim,
    cells: Vec<Cell>,
    b: usize,
    m: usize,
    targets: Vec<usize>,
    k: usize,
}

fn occupancy(n: usize, salt: u64, num: u64, den: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            (hash64(i as u64, salt) % den < num)
                .then(|| Element::keyed(hash64(i as u64, salt.wrapping_add(99)), i))
        })
        .collect()
}

fn cases() -> Vec<Case> {
    let expand_r = 64usize;
    let expand_cells: Vec<Cell> = (0..256)
        .map(|i| (i < expand_r).then(|| Element::keyed(i as u64, i)))
        .collect();
    vec![
        Case {
            name: "sort/bitonic",
            prim: Prim::SortBitonic,
            cells: occupancy(512, 3, 2, 3),
            b: 8,
            m: 64,
            targets: Vec::new(),
            k: 0,
        },
        Case {
            name: "sort/bucket",
            prim: Prim::SortBucket,
            cells: occupancy(1024, 5, 1, 2),
            b: 8,
            m: 512,
            targets: Vec::new(),
            k: 0,
        },
        Case {
            name: "compact",
            prim: Prim::Compact,
            cells: occupancy(512, 7, 1, 3),
            b: 8,
            m: 64,
            targets: Vec::new(),
            k: 0,
        },
        Case {
            name: "expand",
            prim: Prim::Expand,
            cells: expand_cells,
            b: 8,
            m: 64,
            targets: (0..expand_r).map(|i| i * 3).collect(),
            k: 0,
        },
        Case {
            name: "select",
            prim: Prim::Select,
            cells: occupancy(512, 11, 3, 4),
            b: 8,
            m: 64,
            targets: Vec::new(),
            k: 0, // patched below to occupied / 2
        },
    ]
}

fn run_prim<S: BlockStore>(store: &mut S, h: &ArrayHandle, case: &Case) {
    let (order, policy) = (SortOrder::Ascending, RetryPolicy::default());
    let done = match case.prim {
        Prim::SortBitonic => OblivSorter::Bitonic
            .try_sort(store, h, case.m, order, policy)
            .map(drop),
        Prim::SortBucket => OblivSorter::bucket(SEED)
            .try_sort(store, h, case.m, order, policy)
            .map(drop),
        Prim::Compact => try_compact(store, h, case.m, policy).map(drop),
        Prim::Expand => try_expand(store, h, &case.targets, case.m, policy).map(drop),
        Prim::Select => try_select_kth(store, h, case.m, case.k, policy).map(drop),
    };
    done.expect("the backends under test are honest");
}

fn patched(mut case: Case) -> Case {
    if matches!(case.prim, Prim::Select) {
        case.k = case.cells.iter().filter(|c| c.is_some()).count() / 2;
    }
    case
}

fn run_extmem(case: &Case) -> (AccessTrace, Vec<Cell>) {
    let mut mem = ExtMem::new(case.b);
    let h = mem.alloc_array_from_cells(&case.cells);
    mem.enable_trace();
    run_prim(&mut mem, &h, case);
    (mem.take_trace().expect("trace"), mem.snapshot_cells(&h))
}

fn run_file(case: &Case) -> (AccessTrace, Vec<Cell>) {
    let mut fs = FileStore::temp(case.b).expect("temp file store");
    let h = fs.alloc_array_from_cells(&case.cells);
    fs.enable_trace();
    run_prim(&mut fs, &h, case);
    (fs.take_trace().expect("trace"), fs.snapshot_cells(&h))
}

fn run_prefetch(case: &Case, cfg: PrefetchConfig) -> (AccessTrace, Vec<Cell>) {
    let mut fs = FileStore::temp(case.b).expect("temp file store");
    let h = fs.alloc_array_from_cells(&case.cells);
    let mut ps = PrefetchingStore::with_config(fs, cfg);
    ps.enable_trace();
    run_prim(&mut ps, &h, case);
    let trace = ps.take_trace().expect("trace");
    // inner_mut flushes the write-behind buffer before the snapshot.
    let cells = ps.inner_mut().snapshot_cells(&h);
    (trace, cells)
}

#[test]
fn file_store_traces_are_byte_identical_to_extmem() {
    for case in cases().into_iter().map(patched) {
        let (reference, ref_cells) = run_extmem(&case);
        assert!(
            !reference.is_empty(),
            "{}: empty reference trace",
            case.name
        );
        let (ft, f_cells) = run_file(&case);
        assert_oblivious(
            &reference,
            &ft,
            &format!("{}: ExtMem vs FileStore", case.name),
        );
        assert_eq!(ref_cells, f_cells, "{}: results diverged", case.name);
    }
}

#[test]
fn prefetching_file_store_traces_are_byte_identical_to_extmem() {
    for case in cases().into_iter().map(patched) {
        let (reference, ref_cells) = run_extmem(&case);
        let (pt, p_cells) = run_prefetch(&case, PrefetchConfig::default());
        assert_oblivious(
            &reference,
            &pt,
            &format!("{}: ExtMem vs PrefetchingStore<FileStore>", case.name),
        );
        assert_eq!(ref_cells, p_cells, "{}: results diverged", case.name);
    }
}

#[test]
fn prefetch_parity_holds_with_a_starved_pool() {
    // A tiny ready-set and write buffer maximize steals and flushes; the
    // logical trace must not notice.
    let cfg = PrefetchConfig {
        max_ready: 2,
        write_buffer: 2,
    };
    for case in cases().into_iter().map(patched) {
        let (reference, _) = run_extmem(&case);
        let (pt, _) = run_prefetch(&case, cfg);
        assert_oblivious(
            &reference,
            &pt,
            &format!("{}: starved prefetch pool", case.name),
        );
    }
}

#[test]
fn encrypted_file_store_shares_the_exact_trace() {
    // Encrypted(FileStore) vs plaintext ExtMem: the adversary's view
    // (addresses and I/O count) is unchanged; only the bytes at rest differ.
    let case = patched(Case {
        name: "compact/encrypted-file",
        prim: Prim::Compact,
        cells: occupancy(512, 13, 1, 2),
        b: 8,
        m: 64,
        targets: Vec::new(),
        k: 0,
    });
    let (reference, ref_cells) = run_extmem(&case);

    let fs = FileStore::temp(case.b).expect("temp file store");
    let mut enc = EncryptedStore::with_backing(fs, 0xB0B);
    let h = enc.alloc_array_from_cells(&case.cells);
    enc.enable_trace();
    run_prim(&mut enc, &h, &case);
    let etrace = enc.take_trace().expect("trace");
    assert_oblivious(&reference, &etrace, "ExtMem vs Encrypted(FileStore)");
    assert_eq!(ref_cells, enc.snapshot_cells(&h), "results diverged");
}

//! Quickstart: sort, compact and select over an outsourced array obliviously,
//! count the I/Os the honest-but-curious server observes, then serve online
//! point accesses through the hierarchical ORAM built from those primitives.
//!
//! Run with: `cargo run --release --example quickstart`

use odo::prelude::*;

fn main() {
    // The model: N elements outsourced to Bob in blocks of B, Alice owns a
    // private cache of M words.
    let (n, b, m) = (1 << 14, 64, 1 << 10);

    // Bob's store, with the adversary's trace captured.
    let mut mem = ExtMem::with_trace(b);
    let items: Vec<Element> = (0..n)
        .map(|i| Element::keyed((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40, i))
        .collect();
    let h = mem.alloc_array_from_elements(&items);

    // Every entry point is fallible: an honest store never fails, and the
    // default policy retries transient server faults.
    let policy = RetryPolicy::default();

    // The default sort engine is the paper's Lemma 2 sort:
    // O((N/B)(1 + log²(N/M))) I/Os.
    let (report, _) = OblivSorter::default()
        .try_sort(&mut mem, &h, m, SortOrder::Ascending, policy)
        .expect("honest store");

    let sorted = mem.snapshot_elements(&h);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "output is sorted");

    println!("sorted N={n} elements (B={b}, M={m})");
    println!(
        "I/Os: {} reads + {} writes = {} total",
        report.io.reads,
        report.io.writes,
        report.io.total()
    );
    let trace = mem.take_trace().expect("trace was enabled");
    println!(
        "adversary saw {} block accesses — and would see the identical sequence for ANY input of this shape",
        trace.len()
    );

    // The other sort engine: the randomized bucket oblivious sort drops the
    // squared log for the external-memory optimum O((N/B)·log_{M/B}(N/B)) —
    // the engine of choice once N ≫ M. Trade-off: its trace is a
    // deterministic function of (shape, seed, data) — reruns replay it byte
    // for byte, but it is not shape-only like the Lemma 2 trace above. See
    // DESIGN.md "Sorter strategy" for when to pick which.
    let mut bmem = ExtMem::new(b);
    let bh = bmem.alloc_array_from_elements(&items);
    let (breport, _) = OblivSorter::bucket(0xB0C_C1A0)
        .try_sort(&mut bmem, &bh, m, SortOrder::Ascending, policy)
        .expect("honest store");
    assert_eq!(bmem.snapshot_elements(&bh), sorted, "engines agree");
    println!(
        "bucket engine: {} I/Os vs Lemma 2 {} at N/M = {} — same sorted output",
        breport.io.total(),
        report.io.total(),
        n / m
    );

    // --- §3 tight order-preserving compaction, over an ENCRYPTED store ---
    // Delete ~half the records, then compact the survivors to a prefix in
    // O((N/B)(1 + log(N/M))) I/Os — one log factor, cheaper than sorting.
    // The identical algorithm runs over the re-encrypting store (fresh
    // ciphertext on every block write) with zero extra I/Os.
    let cells: Vec<Cell> = (0..n)
        .map(|i| (i % 5 != 0).then(|| Element::keyed(i as u64, i)))
        .collect();
    let survivors = cells.iter().filter(|c| c.is_some()).count();

    let mut store = EncryptedStore::new(b, 0xA11CE);
    let handle = store
        .alloc_array_from_cells(&cells)
        .expect("honest populate");
    let (report, _) = try_compact(&mut store, &handle, m, policy).expect("honest store");

    assert_eq!(report.occupied, survivors);
    println!(
        "compacted {survivors}/{n} occupied cells to a prefix (order preserved) on the encrypted store"
    );
    println!(
        "I/Os: {} reads + {} writes = {} total — {} levels in cache (window {}), {} external levels in {} column sweeps",
        report.io.reads,
        report.io.writes,
        report.io.total(),
        report.in_cache_levels,
        report.window_elems,
        report.external_levels,
        report.external_passes
    );

    // The network also runs in reverse: route the prefix back to the
    // original occupied positions, restoring the array exactly.
    let targets: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    try_expand(&mut store, &handle, &targets, m, policy).expect("honest store");
    assert_eq!(store.snapshot_cells(&handle), cells);
    println!("expansion (the network in reverse) restored the original layout");

    // --- §4 selection: the median, without the server learning it ---
    // try_select_kth brackets the median between weighted splitters drawn from
    // cache-sized chunks and keeps the candidates between them in the
    // private cache: at this shape one filtering round — two streaming
    // passes around a sample array small enough to sort in cache, far
    // cheaper than sorting — and the trace hides the data AND the requested
    // rank k. Runs over the same
    // encrypted store; the input array is left untouched.
    let survivors_arr: Vec<Cell> = cells.iter().flatten().map(|e| Some(*e)).collect();
    let sel_handle = store
        .alloc_array_from_cells(&survivors_arr)
        .expect("honest populate");
    let k = survivors / 2;
    let (median, report, _) =
        try_select_kth(&mut store, &sel_handle, m, k, policy).expect("honest store");
    println!(
        "selected the median (rank {k} of {survivors}) on the encrypted store: key {}",
        median.key
    );
    println!(
        "I/Os: {} reads + {} writes = {} total — {} filtering round(s), {} samples per chunk",
        report.io.reads,
        report.io.writes,
        report.io.total(),
        report.rounds,
        report.samples_per_chunk
    );
    println!("the server saw the SAME trace it would for any dataset and any rank k of this shape");

    // Several order statistics at once: one oblivious sort of a working
    // copy serves any number of quantiles.
    let ranks = [
        0,
        survivors / 4,
        survivors / 2,
        3 * survivors / 4,
        survivors - 1,
    ];
    let (qs, qio, _) =
        try_quantiles(&mut store, &sel_handle, m, &ranks, policy).expect("honest store");
    println!(
        "quantiles (min, q1, median, q3, max) = {:?} in {} I/Os",
        qs.iter().map(|e| e.key).collect::<Vec<_>>(),
        qio.total()
    );
    assert_eq!(
        qs[2], median,
        "the quantile sweep agrees with the selection"
    );

    // --- tamper detection: the server is UNTRUSTED, not merely curious ---
    // Wrap the encrypted store in a deterministic fault injector (standing in
    // for a malicious server) and an authenticated store that MACs every
    // block with its address and a client-tracked version. A corrupting
    // server now yields a typed error — never silently wrong data. The sort
    // stops at the first failed block and returns that error as a value.
    let tamper_n = n;
    let enc = EncryptedStore::new(b, 0xA11CE);
    let faulty = FaultyStore::new(enc, 42, FaultSpec::none());
    let mut auth = AuthenticatedStore::new(faulty, 0x0FEE_D4AC);
    let data: Vec<Cell> = (0..tamper_n)
        .map(|i| Some(Element::keyed((i as u64).wrapping_mul(0xDEF1) >> 4, i)))
        .collect();
    let th = BlockStore::alloc_array(&mut auth, tamper_n);
    auth.try_store_span(&th, 0, &data).expect("honest populate");
    auth.flush_macs().expect("honest flush");

    // Bob starts flipping bits in ~0.5% of the blocks he serves.
    auth.inner_mut().set_spec(FaultSpec {
        corrupt_read_ppm: 5_000,
        ..FaultSpec::none()
    });
    match OblivSorter::default().try_sort(&mut auth, &th, m, SortOrder::Ascending, policy) {
        Err(OdoError::Store(StoreError::Corrupted { addr })) => {
            println!("tampering server: sort ABORTED — block {addr} failed authentication");
        }
        other => panic!("a corrupting server must be detected, got {other:?}"),
    }

    // A merely flaky server (transient read failures, ~2% of ops) is ridden
    // out by the data-independent retry schedule to the exact correct result.
    auth.inner_mut().set_spec(FaultSpec {
        transient_read_ppm: 20_000,
        ..FaultSpec::none()
    });
    let (_, retry) = OblivSorter::default()
        .try_sort(&mut auth, &th, m, SortOrder::Ascending, policy)
        .expect("transient faults are survivable");
    auth.inner_mut().set_spec(FaultSpec::none());
    let recovered = auth
        .try_load_span(&th, 0, tamper_n)
        .expect("verified read-back");
    assert!(
        recovered.windows(2).all(|w| w[0].unwrap() <= w[1].unwrap()),
        "sorted despite the flaky server"
    );
    println!(
        "flaky server: sort SUCCEEDED after {} retries — output verified",
        retry.retries
    );

    // --- wall clock: the same sort against real encrypted files, timed ---
    // Everything above ran against the in-memory simulator, which *counts*
    // I/Os. `FileStore` is the backend that actually pays for them: one
    // preallocated file, one pread/pwrite per block. Stacking
    // `EncryptedStore` on top re-encrypts every block write, and wrapping
    // the pair in `PrefetchingStore` turns the sort's shape-derived block
    // hints into coalesced, decrypting span reads and batched
    // (keystream-kernel) write-behind spans — a latency optimization
    // only; the logical access pattern the server observes is unchanged.
    let ecells: Vec<Cell> = items.iter().map(|e| Some(*e)).collect();
    let mut efile =
        EncryptedStore::with_backing(FileStore::temp(b).expect("temp-backed block file"), 0x50F8);
    let fh = efile
        .alloc_array_from_cells(&ecells)
        .expect("honest populate");
    let t = std::time::Instant::now();
    let (freport, _) = OblivSorter::bucket(0xB0C_C1A0)
        .try_sort(&mut efile, &fh, m, SortOrder::Ascending, policy)
        .expect("honest store");
    let plain = t.elapsed();
    let fsorted: Vec<Element> = efile.snapshot_cells(&fh).into_iter().flatten().collect();
    assert_eq!(fsorted, sorted, "encrypted file backend agrees");

    let mut pf = PrefetchingStore::new(EncryptedStore::with_backing(
        FileStore::temp(b).expect("temp-backed block file"),
        0x50F8,
    ));
    let ph = pf
        .inner_mut()
        .alloc_array_from_cells(&ecells)
        .expect("honest populate");
    let t = std::time::Instant::now();
    let (preport, _) = OblivSorter::bucket(0xB0C_C1A0)
        .try_sort(&mut pf, &ph, m, SortOrder::Ascending, policy)
        .expect("honest store");
    pf.flush_writes().expect("write-behind flush");
    let prefetched = t.elapsed();
    let psorted: Vec<Element> = pf
        .inner()
        .snapshot_cells(&ph)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(psorted, sorted, "span prefetch agrees");
    assert_eq!(freport.io, preport.io, "read-ahead never changes the I/Os");
    println!(
        "encrypted file-backed bucket sort: {} I/Os in {:.1} ms plain, {:.1} ms with span prefetch ({:?})",
        freport.io.total(),
        plain.as_secs_f64() * 1e3,
        prefetched.as_secs_f64() * 1e3,
        pf.prefetch_stats()
    );

    // --- hierarchical ORAM: online point access from the batch primitives ---
    // Everything above is batch. The ORAM layer turns the same parts into an
    // online read(addr)/write(addr, value) API: a geometric hierarchy of
    // epoch-salted hash tables, one dummy-padded bucket probe per occupied
    // level on EVERY access (hit or miss, read or write — indistinguishable),
    // and amortized rebuilds that are nothing but sort + compact pipelines.
    // Amortized cost: O(log² n) I/Os per access, gated in `bench oram`.
    let oram_n = 1u64 << 10;
    let mut omem = ExtMem::new(b);
    let ocfg = OramConfig::new(64, 1 << 10, 0x04A7_0B5E);
    let mut oram = Oram::new(&mut omem, oram_n, &ocfg);
    omem.enable_trace();
    let before = omem.io_stats();
    for a in 0..oram_n {
        oram.try_write(&mut omem, a, a * 3 + 1, policy)
            .expect("honest store");
    }
    for a in 0..oram_n {
        let (v, _) = oram.try_read(&mut omem, a, policy).expect("honest store");
        assert_eq!(v, a * 3 + 1, "ORAM round-trips");
    }
    let oio = omem.io_stats() - before;
    let otrace = omem.take_trace().expect("trace was enabled");
    println!(
        "ORAM: {} point accesses over {} levels in {} I/Os — {:.1} amortized per access, {} rebuilds, stash {}",
        2 * oram_n,
        oram.level_count(),
        oio.total(),
        oio.total() as f64 / (2 * oram_n) as f64,
        oram.flushes(),
        oram.stash_len()
    );
    println!(
        "the server saw {} block accesses — the identical sequence for ANY equal-length request stream",
        otrace.len()
    );
}

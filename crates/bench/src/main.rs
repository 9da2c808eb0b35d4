//! `odo-bench` binary: runs the sort, compaction, selection, fault-model
//! and ORAM benchmark grids and writes `BENCH_sort.json` /
//! `BENCH_compact.json` / `BENCH_select.json` / `BENCH_faults.json` /
//! `BENCH_oram.json` into the current directory.
//!
//! Usage:
//!
//! * `cargo run --release -p odo-bench` — every benchmark on the full
//!   default grid (from the repo root, so the JSON lands next to
//!   `Cargo.toml`).
//! * `cargo run --release -p odo-bench -- select` — one benchmark only
//!   (`sort`, `compact`, `select`, `faults`, `oram`, or `all`).
//! * `cargo run --release -p odo-bench -- --smoke` — the `N = 2^12` smoke
//!   grid: same emitters, same bound gates, cheap enough for every CI push
//!   (JSON goes to `target/BENCH_*.smoke.json`, outside the working tree's
//!   tracked files, so a smoke run never clobbers the full-grid numbers and
//!   never dirties a CI checkout).

use odo_bench::{
    check_fault_gates, compact_to_json, compact_to_table, default_grid, faults_to_json,
    faults_to_table, oram_default_grid, oram_smoke_grid, oram_to_json, oram_to_table,
    run_compact_point, run_fault_grid, run_oram_point, run_select_point, run_sort_point,
    select_to_json, select_to_table, smoke_grid, to_json, to_table, GridPoint,
};

/// Where a benchmark JSON artifact goes. Full-grid runs write the tracked
/// `BENCH_*.json` files into the current directory (the repo root); smoke
/// runs write `target/BENCH_*.smoke.json` so a CI checkout stays clean.
fn artifact_path(smoke: bool, stem: &str) -> String {
    if smoke {
        std::fs::create_dir_all("target").expect("failed to create target/");
        format!("target/{stem}.smoke.json")
    } else {
        format!("{stem}.json")
    }
}

fn main() {
    // Tampered runs abort via a typed panic payload that `try_sort` catches
    // and converts to `Err`; keep the default hook from spamming stderr with
    // those intentional, fully-handled unwinds.
    extmem::install_quiet_abort_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Shared CI runners have noisy clocks: `--no-wall-clock-gate` downgrades
    // the wall-clock headline gate to a warning while keeping every I/O-count
    // and trace-parity gate hard.
    let wall_clock_gate = !args.iter().any(|a| a == "--no-wall-clock-gate");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    assert!(
        matches!(
            which,
            "all" | "sort" | "compact" | "select" | "faults" | "oram"
        ),
        "unknown benchmark {which:?}: expected sort, compact, select, faults, oram, or all"
    );
    let run = |name: &str| which == "all" || which == name;
    let grid = if smoke { smoke_grid() } else { default_grid() };
    let headline = GridPoint {
        n: 1 << 18,
        b: 64,
        m: 1 << 13,
    };
    let mut failed = false;

    // --- external oblivious sort ---
    let mut results = Vec::new();
    if run("sort") {
        for &point in &grid {
            eprintln!(
                "sort: measuring N={} B={} M={} (optimized + encrypted + naive + timed file backends)...",
                point.n, point.b, point.m
            );
            results.push(run_sort_point(point, true, true));
        }
        print!("{}", to_table(&results));
        let json = to_json(&results);
        let path = artifact_path(smoke, "BENCH_sort");
        std::fs::write(&path, &json).expect("failed to write the sort benchmark JSON");
        println!("wrote {path}");
    }

    // --- external butterfly compaction ---
    let mut cresults = Vec::new();
    if run("compact") {
        for &point in &grid {
            eprintln!(
                "compact: measuring N={} B={} M={} (optimized + encrypted + naive + timed file backends)...",
                point.n, point.b, point.m
            );
            cresults.push(run_compact_point(point, true, true));
        }
        print!("{}", compact_to_table(&cresults));
        let cjson = compact_to_json(&cresults);
        let cpath = artifact_path(smoke, "BENCH_compact");
        std::fs::write(&cpath, &cjson).expect("failed to write the compaction benchmark JSON");
        println!("wrote {cpath}");
    }

    // --- §4 oblivious selection ---
    let mut sresults = Vec::new();
    if run("select") {
        for &point in &grid {
            eprintln!(
                "select: measuring N={} B={} M={} k=N/2 (optimized + encrypted-trace parity + naive + timed file backends)...",
                point.n, point.b, point.m
            );
            sresults.push(run_select_point(point, true, true));
        }
        print!("{}", select_to_table(&sresults));
        let sjson = select_to_json(&sresults);
        let spath = artifact_path(smoke, "BENCH_select");
        std::fs::write(&spath, &sjson).expect("failed to write the selection benchmark JSON");
        println!("wrote {spath}");
    }

    // --- the untrusted-server fault model ---
    let mut fresults = Vec::new();
    if run("faults") {
        let fault_grid: Vec<GridPoint> = if smoke {
            vec![GridPoint {
                n: 1 << 12,
                b: 64,
                m: 1 << 9,
            }]
        } else {
            vec![
                GridPoint {
                    n: 1 << 14,
                    b: 64,
                    m: 1 << 10,
                },
                headline,
            ]
        };
        for &point in &fault_grid {
            eprintln!(
                "faults: measuring N={} B={} M={} (auth overhead + tamper detection + retries, extmem + file backends)...",
                point.n, point.b, point.m
            );
            fresults.extend(run_fault_grid(point));
        }
        print!("{}", faults_to_table(&fresults));
        let fjson = faults_to_json(&fresults);
        let fpath = artifact_path(smoke, "BENCH_faults");
        std::fs::write(&fpath, &fjson).expect("failed to write the fault benchmark JSON");
        println!("wrote {fpath}");
    }

    // --- hierarchical ORAM amortized cost ---
    let mut oresults = Vec::new();
    if run("oram") {
        let ogrid = if smoke {
            oram_smoke_grid()
        } else {
            oram_default_grid()
        };
        for &point in &ogrid {
            eprintln!(
                "oram: measuring n={} B={} M={} P={} over {} accesses (extmem + timed file + encrypted-file backends, trace parity)...",
                point.n, point.b, point.m, point.period, point.accesses
            );
            oresults.push(run_oram_point(point, true));
        }
        print!("{}", oram_to_table(&oresults));
        let ojson = oram_to_json(&oresults);
        let opath = artifact_path(smoke, "BENCH_oram");
        std::fs::write(&opath, &ojson).expect("failed to write the ORAM benchmark JSON");
        println!("wrote {opath}");
    }

    // Enforce the acceptance gates so CI fails loudly on regressions: every
    // point within its bound, compaction and selection beating their naive
    // baselines at every point, and (full grid only) the headline speedups.
    for r in &results {
        if !r.within_bound {
            eprintln!(
                "SORT BOUND VIOLATION at N={} B={} M={}: {} > {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.optimized.total(),
                r.bound_total
            );
            failed = true;
        }
        if !r.bucket_within_bound {
            eprintln!(
                "BUCKET BOUND VIOLATION at N={} B={} M={}: {} > {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.bucket.total(),
                r.bucket_bound_total
            );
            failed = true;
        }
        if r.bucket_gate_applies() && r.bucket.total() >= r.optimized.total() {
            eprintln!(
                "BUCKET REGRESSION at N={} B={} M={} (N/M >= 4): bucket {} >= Lemma 2 {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.bucket.total(),
                r.optimized.total()
            );
            failed = true;
        }
    }
    for r in &cresults {
        if !r.within_bound {
            eprintln!(
                "COMPACT BOUND VIOLATION at N={} B={} M={}: {} > {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.optimized.total(),
                r.bound_total
            );
            failed = true;
        }
        if r.speedup().is_some_and(|s| s <= 1.0) {
            eprintln!(
                "COMPACT REGRESSION at N={} B={} M={}: naive is not beaten ({:?} vs {})",
                r.point.n,
                r.point.b,
                r.point.m,
                r.naive.map(|n| n.total()),
                r.optimized.total()
            );
            failed = true;
        }
    }
    for r in &sresults {
        if !r.within_bound {
            eprintln!(
                "SELECT BOUND VIOLATION at N={} B={} M={}: {} > {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.optimized.total(),
                r.bound_total
            );
            failed = true;
        }
        if r.speedup().is_some_and(|s| s <= 1.0) {
            eprintln!(
                "SELECT REGRESSION at N={} B={} M={}: naive sort-then-index is not beaten ({:?} vs {})",
                r.point.n,
                r.point.b,
                r.point.m,
                r.naive.map(|n| n.total()),
                r.optimized.total()
            );
            failed = true;
        }
    }
    for r in &oresults {
        if !r.within_bound {
            eprintln!(
                "ORAM BOUND VIOLATION at n={} B={} M={} P={}: {} > {}",
                r.point.n,
                r.point.b,
                r.point.m,
                r.point.period,
                r.io.total(),
                r.bound_total
            );
            failed = true;
        }
    }
    if let Some(r) = oresults.last() {
        println!(
            "oram headline (n={}, B={}, M={}, P={}): {:.1} amortized I/Os per access \
             over {} levels, bound {:.1}",
            r.point.n,
            r.point.b,
            r.point.m,
            r.point.period,
            r.amortized_ios(),
            r.levels,
            r.bound_amortized()
        );
    }
    for msg in check_fault_gates(&fresults) {
        eprintln!("FAULT GATE VIOLATION: {msg}");
        failed = true;
    }
    if let Some(r) = fresults
        .iter()
        .find(|r| r.point == headline && r.scenario.name == "auth_no_faults")
    {
        println!(
            "faults headline (N=2^18, B=64, M=2^13): authentication costs {:+.1}% bottom-level I/Os",
            r.overhead_vs_plain.unwrap_or(f64::NAN) * 100.0
        );
    }
    if !smoke {
        if let Some(r) = results.iter().find(|r| r.point == headline) {
            let speedup = r.speedup().unwrap_or(0.0);
            println!(
                "sort headline (N=2^18, B=64, M=2^13): {} I/Os vs naive {} — {speedup:.2}x",
                r.optimized.total(),
                r.naive.map(|n| n.total()).unwrap_or(0)
            );
            if speedup < 3.0 {
                eprintln!("SORT HEADLINE REGRESSION: speedup {speedup:.2}x < 3x");
                failed = true;
            }
            println!(
                "bucket headline (N=2^18, B=64, M=2^13): {} I/Os vs Lemma 2 {} — {:.2}x fewer, bound {}",
                r.bucket.total(),
                r.optimized.total(),
                r.bucket_speedup_vs_lemma2(),
                r.bucket_bound_total
            );
            if r.bucket.total() >= r.optimized.total() {
                eprintln!(
                    "BUCKET HEADLINE REGRESSION: bucket {} >= Lemma 2 {}",
                    r.bucket.total(),
                    r.optimized.total()
                );
                failed = true;
            }
            // The wall-clock headlines, only gated on the full grid — timing
            // on the N=2^12 smoke grid is all fixed costs. In each pair the
            // first side must beat the second.
            if let Some(t) = &r.timings {
                let ms = |ns: u64| ns as f64 / 1e6;
                for (what, fast, fast_ns, slow, slow_ns) in [
                    // In memory, the bucket engine's I/O advantage must
                    // survive its in-cache client work.
                    (
                        "ExtMem",
                        "bucket",
                        t.bucket.extmem_ns,
                        "Lemma 2",
                        t.lemma2.extmem_ns,
                    ),
                    // Shape-derived read-ahead must beat the plain file
                    // store's synchronous loads on the bucket sort.
                    (
                        "bucket",
                        "PrefetchingStore<FileStore>",
                        t.bucket_prefetch_ns,
                        "FileStore",
                        t.bucket.file_ns,
                    ),
                    // Decrypt-ahead workers plus the batched keystream span
                    // path must beat synchronous decrypt-on-load over the
                    // same encrypted file.
                    (
                        "bucket",
                        "Prefetching(Encrypted(FileStore))",
                        t.encrypted_prefetch_ns,
                        "Encrypted(FileStore)",
                        t.bucket.encrypted_file_ns,
                    ),
                ] {
                    println!(
                        "wall-clock headline (N=2^18, B=64, M=2^13, {what}): \
                         {slow} {:.1} ms vs {fast} {:.1} ms — {:.2}x",
                        ms(slow_ns),
                        ms(fast_ns),
                        ms(slow_ns) / ms(fast_ns).max(1e-9)
                    );
                    if fast_ns >= slow_ns {
                        eprintln!(
                            "WALL-CLOCK HEADLINE REGRESSION ({what}): {fast} {:.1} ms >= \
                             {slow} {:.1} ms",
                            ms(fast_ns),
                            ms(slow_ns)
                        );
                        if wall_clock_gate {
                            failed = true;
                        } else {
                            eprintln!(
                                "(wall-clock gate disabled by --no-wall-clock-gate; not failing)"
                            );
                        }
                    }
                }
            }
        }
        if let Some(r) = cresults.iter().find(|r| r.point == headline) {
            println!(
                "compact headline (N=2^18, B=64, M=2^13): {} I/Os vs naive {} — {:.2}x",
                r.optimized.total(),
                r.naive.map(|n| n.total()).unwrap_or(0),
                r.speedup().unwrap_or(0.0)
            );
        }
        if let Some(r) = sresults.iter().find(|r| r.point == headline) {
            let speedup = r.speedup().unwrap_or(0.0);
            println!(
                "select headline (N=2^18, B=64, M=2^13, k=N/2): {} I/Os vs naive {} — {speedup:.2}x",
                r.optimized.total(),
                r.naive.map(|n| n.total()).unwrap_or(0)
            );
            if speedup < 2.0 {
                eprintln!("SELECT HEADLINE REGRESSION: speedup {speedup:.2}x < 2x");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

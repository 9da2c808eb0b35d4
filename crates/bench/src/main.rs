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
//!   grid: same writer, same bound gates, cheap enough for every CI push
//!   (JSON goes to `target/BENCH_*.smoke.json`, outside the working tree's
//!   tracked files, so a smoke run never clobbers the full-grid numbers and
//!   never dirties a CI checkout).
//! * `--no-wall-clock-gate` — shared CI runners have noisy clocks: the
//!   wall-clock headline gates only warn, while every I/O-count and
//!   trace-parity gate stays hard.

use odo_bench::{Verdict, FAMILIES};

/// Where a benchmark JSON artifact goes. Full-grid runs write the tracked
/// `BENCH_*.json` files into the current directory (the repo root); smoke
/// runs write `target/BENCH_*.smoke.json` so a CI checkout stays clean.
fn artifact_path(smoke: bool, family: &str) -> String {
    if smoke {
        std::fs::create_dir_all("target").expect("failed to create target/");
        format!("target/BENCH_{family}.smoke.json")
    } else {
        format!("BENCH_{family}.json")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let wall_clock_gate = !args.iter().any(|a| a == "--no-wall-clock-gate");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    assert!(
        which == "all" || FAMILIES.iter().any(|(name, _)| *name == which),
        "unknown benchmark {which:?}: expected sort, compact, select, faults, oram, or all"
    );

    // Each family: measure its grid, print its table, write its JSON, then
    // enforce its gates so CI fails loudly on regressions.
    let mut failed = false;
    for (name, run) in FAMILIES {
        if which != "all" && which != name {
            continue;
        }
        let outcome = run(smoke);
        print!("{}", outcome.table);
        let path = artifact_path(smoke, name);
        std::fs::write(&path, &outcome.json)
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
        for verdict in outcome.verdicts {
            match verdict {
                Verdict::Headline(line) => println!("{line}"),
                Verdict::Violation(line) => {
                    eprintln!("{line}");
                    failed = true;
                }
                Verdict::WallClock(line) => {
                    eprintln!("{line}");
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
    if failed {
        std::process::exit(1);
    }
}

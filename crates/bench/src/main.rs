//! `odo-bench` binary: runs the sort, compaction, selection, fault-model
//! and ORAM benchmark grids, gates their block I/O counts and access-trace
//! parity, and writes `BENCH_sort.json` / `BENCH_compact.json` /
//! `BENCH_select.json` / `BENCH_faults.json` / `BENCH_oram.json` into the
//! current directory. Every field is deterministic, so a rerun reproduces
//! each file byte for byte; wall-clock time is measured by `perfbench`.
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
//!
//! Any other flag, more than one benchmark name, or an unknown name is
//! rejected before anything runs or is written.

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

/// Exits with status 2 and a usage line after `msg`.
fn usage_error(msg: &str) -> ! {
    eprintln!("odo-bench: {msg}");
    eprintln!("usage: odo-bench [--smoke] [sort|compact|select|faults|oram|all]");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut which = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg.starts_with('-') {
            usage_error(&format!("unknown flag {arg:?}"));
        } else if which.is_some() {
            usage_error(&format!("more than one benchmark named ({arg:?})"));
        } else if arg == "all" || FAMILIES.iter().any(|(name, _)| *name == arg) {
            which = Some(arg);
        } else {
            usage_error(&format!("unknown benchmark {arg:?}"));
        }
    }
    let which = which.as_deref().unwrap_or("all");

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
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

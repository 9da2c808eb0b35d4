//! # odo — data-oblivious external-memory algorithms for outsourced data
//!
//! Rust reproduction of Goodrich's SPAA 2011 paper *"Data-Oblivious
//! External-Memory Algorithms for the Compaction, Selection, and Sorting of
//! Outsourced Data"* — all three title primitives. The root crate is a thin
//! façade: the machine model lives in `odo-extmem`, the sorting networks and
//! the external oblivious sort in `odo-obliv-net`, the §3 external butterfly
//! compaction (and its reverse, expansion) in `odo-core::compact`, the §4
//! selection and quantiles in `odo-core::select`, the hierarchical ORAM
//! built from those primitives in `odo-oram`, naive baselines in
//! `odo-baseline`, and the I/O-count benchmark harness in `odo-bench`
//! (binary: `odo-bench`, emitting `BENCH_sort.json`, `BENCH_compact.json`,
//! `BENCH_select.json`, `BENCH_faults.json` and `BENCH_oram.json`).
//!
//! The server is modeled as *untrusted*, not merely curious, so each
//! primitive has one entry point and it is fallible: `try_sort`,
//! `OblivSorter::try_sort`, `try_compact`, `try_expand`, `try_select_kth`
//! and `try_quantiles`. Wrap any store in `extmem::AuthenticatedStore` and
//! corruption or rollback by the server surfaces as a typed
//! `Err(Corrupted | Stale)` — never as silently wrong data — while transient
//! failures are retried on a data-independent schedule and bad arguments
//! return `Err(InvalidArgument)` instead of panicking. The fault model, the store layering and the
//! toy-crypto substitution table are documented in `DESIGN.md` at the
//! workspace root.
//!
//! See `examples/quickstart.rs` for a five-line tour, including tamper
//! detection against a corrupting server.

#![forbid(unsafe_code)]

pub use odo_core as core_alg;

pub use baseline as baseline_alg;
pub use oram as oram_sim;

/// One-stop imports: everything `odo_core::prelude` exports plus the
/// hierarchical ORAM client.
pub mod prelude {
    pub use odo_core::prelude::*;
    pub use oram::{LevelGeometry, Oram, OramConfig};
}

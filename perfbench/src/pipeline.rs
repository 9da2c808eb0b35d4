//! The outsourced compact → select → sort pipeline.
//!
//! Input: `N = 2^18` cells, each occupied with probability 1/2, holding a
//! 40-bit key drawn from the seed and its cell index as payload (so every
//! element is distinct and the oracle order is total). One pipeline run is
//! `try_compact` (occupied cells to the front, order kept), then
//! `try_select_kth` of the median occupied element, then the seeded bucket
//! sort `OblivSorter::bucket(seed).try_sort` of the whole array.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use extmem::util::hash64;
use extmem::{ArrayHandle, Cell, Element, RetryPolicy};
use odo_core::{try_compact, try_select_kth, OblivSorter, OdoError, SortOrder};

use crate::stack::{LayerView, Stack, M};

/// Cells per pipeline input.
pub const N: usize = 1 << 18;

/// The names of the pipeline's passes, in run order.
pub const PASSES: [&str; 3] = ["compact", "select", "sorter"];

/// A seeded pipeline input and its oracle answers.
pub struct Input {
    pub cells: Vec<Cell>,
    /// The occupied elements, sorted (`sort_unstable`).
    pub sorted: Vec<Element>,
    /// Rank of the median occupied element.
    pub k: usize,
    pub sort_seed: u64,
}

impl Input {
    pub fn new(seed: u64) -> Input {
        let cells: Vec<Cell> = (0..N as u64)
            .map(|i| (hash64(i, seed) & 1 == 1).then(|| Element::new(hash64(i, !seed) >> 24, i)))
            .collect();
        let mut sorted: Vec<Element> = cells.iter().flatten().copied().collect();
        sorted.sort_unstable();
        Input {
            k: sorted.len() / 2,
            cells,
            sorted,
            sort_seed: hash64(seed, 0x5027),
        }
    }
}

/// What one pass cost, read from outside the library.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pass {
    /// Wall time of the pass.
    pub ns: u64,
    /// Logical block I/Os the pass issued into the top of the stack.
    pub ios: u64,
    /// I/Os the library's own report charged to the pass.
    pub reported_ios: u64,
    /// Foreground time inside the outermost tap (0 on a plain stack).
    pub store_ns: u64,
}

/// One pipeline run.
pub struct Run {
    pub elapsed_ns: u64,
    pub passes: [Pass; 3],
    pub external_levels: usize,
    pub rounds: usize,
    /// Logical I/Os issued into the top of the stack over the whole run.
    pub ios: u64,
    /// Block transfers the bottom store served over the whole run.
    pub server_blocks: u64,
    pub attempted: u64,
    pub failed: u64,
    pub median: Option<Element>,
    /// The array after the run; `None` when a call or the read-back failed.
    pub output: Option<Vec<Cell>>,
    /// Per-layer counters just before the first pass and just after the
    /// last, before the output is read back.
    pub views: (LayerView, LayerView),
}

fn outer_ns<S: Stack>(store: &S) -> u64 {
    store.view().taps.first().map_or(0, |(_, t)| t.fg_ns)
}

/// Calls `f`, turning a panic into a failure so no `try_*` call can take
/// the run down.
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, OdoError>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            eprintln!("{what} failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("{what} panicked");
            None
        }
    }
}

/// Runs the pipeline over array `h` of `store`, which holds `input.cells`.
pub fn run<S: Stack>(store: &mut S, h: &ArrayHandle, input: &Input) -> Run {
    let policy = RetryPolicy::default();
    let ios0 = store.io_stats().total();
    let server0 = store.server_blocks();
    let mut passes = [Pass::default(); 3];
    let mut attempted = 0;
    let mut failed = 0;
    let mut external_levels = 0;
    let mut rounds = 0;
    let mut median = None;
    let view0 = store.view();
    let t0 = Instant::now();
    for (p, pass) in passes.iter_mut().enumerate() {
        let (io_before, store_before) = (store.io_stats().total(), outer_ns(store));
        let start = Instant::now();
        attempted += 1;
        let reported = match p {
            0 => guarded("try_compact", || try_compact(store, h, M, policy)).map(|(r, _)| {
                external_levels = r.external_levels;
                r.io
            }),
            1 => guarded("try_select_kth", || {
                try_select_kth(store, h, M, input.k, policy)
            })
            .map(|(e, r, _)| {
                median = Some(e);
                rounds = r.rounds;
                r.io
            }),
            _ => guarded("try_sort", || {
                OblivSorter::bucket(input.sort_seed).try_sort(
                    store,
                    h,
                    M,
                    SortOrder::Ascending,
                    policy,
                )
            })
            .map(|(r, _)| r.io),
        };
        *pass = Pass {
            ns: start.elapsed().as_nanos() as u64,
            ios: store.io_stats().total() - io_before,
            reported_ios: reported.map_or(0, |io| io.total()),
            store_ns: outer_ns(store) - store_before,
        };
        if reported.is_none() {
            failed += 1;
            break;
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let view1 = store.view();
    let ios = store.io_stats().total() - ios0;
    let server_blocks = store.server_blocks() - server0;
    let output = if failed == 0 {
        store
            .try_load_span(h, 0, N)
            .map_err(|e| eprintln!("reading the output back failed: {e}"))
            .ok()
    } else {
        None
    };
    Run {
        elapsed_ns,
        passes,
        external_levels,
        rounds,
        ios,
        server_blocks,
        attempted,
        failed,
        median,
        output,
        views: (view0, view1),
    }
}

/// Checks a run's answers against the oracle; describes the first mismatch.
pub fn verify(run: &Run, input: &Input) -> Result<(), String> {
    if run.failed > 0 {
        return Err("a pipeline call failed".into());
    }
    if run.median != Some(input.sorted[input.k]) {
        return Err(format!(
            "selected {:?}, oracle median is {:?}",
            run.median, input.sorted[input.k]
        ));
    }
    let Some(out) = run.output.as_ref() else {
        return Err("the output could not be read back".into());
    };
    let occupied = input.sorted.len();
    let prefix_ok = out[..occupied]
        .iter()
        .zip(&input.sorted)
        .all(|(c, e)| *c == Some(*e));
    if !prefix_ok || out[occupied..].iter().any(Option::is_some) {
        return Err("sorted output differs from the sort_unstable oracle".into());
    }
    Ok(())
}

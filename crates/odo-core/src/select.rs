//! I/O-efficient external-memory **data-oblivious selection** — the paper's
//! Section 4 k-th order statistic, executed over an outsourced block store in
//! `O((N/B)(1 + log(N/M)))` I/Os, and in two streaming passes plus one small
//! sample array whenever the survivors of one filtering round fit in cache.
//!
//! # Problem
//!
//! An array of `N` cells (some possibly empty) holds `L` occupied elements;
//! [`try_select_kth`] must return the element of rank `k` among them — the
//! element at position `k` of the occupied cells stably sorted by key — with
//! a server-visible access sequence that is a fixed function of the *shape*
//! `(N, B, M)` alone. Neither the data values **nor the rank `k` itself** may
//! leak through the trace: a hospital selecting the median of outsourced
//! billing records reveals to the server that *some* order statistic was
//! computed, never which one.
//!
//! # Algorithm
//!
//! Every candidate is compared as a *working item* `(key, original index)`
//! — a strict total order even under heavy key duplication, which is what
//! makes the rank bounds below prune duplicates apart. Working items of the
//! input are formed on the fly as its blocks are read; the input is never
//! written. A *filtering round* over a window of `r` candidates runs:
//!
//! 1. **Weighted splitter extraction.** One streaming pass cuts the window
//!    into `C = ⌈r/g⌉` chunks of `g` slots: `g` is the largest power of two
//!    `≤ M` when the round filters with `C·s ≤ M` samples, half that
//!    otherwise. Each chunk is pulled into the cache, sorted CPU-side
//!    (free), and its `s` evenly spaced order statistics — local ranks
//!    `(i+1)·g/s − 1` — move to the front of the chunk's buffer and are
//!    appended to a sample array of `C·s` cells, so the pass holds `g`
//!    cells. Each sample carries implicit weight `g/s`. On the first round
//!    this pass also counts the occupied cells.
//! 2. **Oblivious approximate-quantile reduction.** A sample array of at
//!    most `M` cells is read back with one span and sorted in cache. A
//!    larger one is sorted with the Lemma 2 sort and streamed once, the
//!    splitters latched in private registers, never by rank-addressed
//!    reads. Either way the round takes the two splitters `lo = σ(q_lo)`
//!    and `hi = σ(q_hi)` with `q_lo = ⌊k′·s/g⌋ − C` and
//!    `q_hi = ⌈(k′+1)·s/g⌉` (clamped to ±∞). The
//!    weighted-sample rank bounds `q·(g/s) ≤ rank(σ(q)) ≤ (q + C)·(g/s)`
//!    guarantee `lo ≤ target < hi` and cap the candidates in `[lo, hi)` by
//!    the shape-only count `r′ = (2C + 4)·(g/s)`.
//! 3. **Filter.** One more streaming pass counts the candidates below `lo` in
//!    a register (they shift the residual rank `k′`) and keeps those in
//!    `[lo, hi)` in a private buffer of `r′` survivors, charged to the cache
//!    budget beside one block. The `k′`-th survivor is selected in cache.
//!
//! The round count is a function of the shape. `s` is the smallest power of
//! two, at most `g/4`, whose survivor buffer fits the cache: `2·r′ + B ≤ M`
//! on the input (a survivor keeps its original element beside its working
//! item), `r′ + B ≤ M` on a scratch window. A window that fits the buffer
//! whole is filtered with no samples at all (`s = 0`). For `N` up to about
//! `M²/32` the first round over the input is already the filter, and the
//! answer comes out of it directly.
//!
//! Past that no `s` fits, and *prune rounds* shrink the window first. A prune
//! round extracts `s = 8` splitters per chunk exactly as above, but its third
//! pass writes the candidates in `[lo, hi)` as working items into a fresh
//! scratch array (dummies elsewhere), and §3 compaction
//! ([`crate::compact::try_compact`]'s pass) routes them to a prefix of at most
//! `r′ < ⅝·r` slots, which is the next round's window. Once the window admits
//! the filter, the filter finishes, and one last streaming pass over the
//! untouched input recovers the full original element from the winning
//! index — every block is read, so the winning position stays hidden.
//!
//! # I/O count
//!
//! One filtering round over the input costs `2⌈N/B⌉` reads and `2⌈C·s/B⌉`
//! sample writes and reads, plus a Lemma 2 sort of at most about `N/4`
//! samples when they do not fit the cache. At the headline
//! `N = 2^18, B = 64, M = 2^13` the 32 chunks of `g = M` take `s = 256`
//! samples each, exactly `M` cells, sorted in cache: 4,096 + 4,096 input
//! reads and 128 + 128 sample I/Os make 8,448, about a quarter of the bucket
//! sort. The plan reads only the shape and is never dearer than chunks of
//! `M/2` throughout: for the same window chunks of `M` need at most twice
//! the samples per chunk over half as many chunks, and the in-cache step's
//! `2⌈C·s/B⌉` I/Os undercut a write, a sort and a scan. Every prune round
//! costs a sampling pass, a sample sort (in cache when its `C·8` samples
//! fit), a pass that writes the next window, and one compaction over `r_t`
//! slots —
//! `O((r_t/B)(1 + log_{M/B}(r_t/M)))` I/Os, since compaction fuses its
//! external butterfly levels into cache-sized column sweeps — and `Σ r_t`
//! is geometric from `N`, so the total stays
//! `O((N/B)(1 + log_{M/B}(N/M)))` — one log factor, the paper's selection
//! advantage over sorting. The `odo-bench` harness checks both forms at
//! every grid point and records the measurements in `BENCH_select.json`.
//!
//! # Obliviousness
//!
//! Window sizes, chunk counts, samples per chunk, sample-array lengths, the
//! round count and every block address are fixed functions of `(N, B, M)`.
//! The rank `k`, the splitters, the pruned-below counters, the survivor
//! buffer and the winning index live only in the private cache and steer
//! block *contents*, never addresses. The `select_oblivious` integration
//! test asserts byte-identical traces across dozens of datasets, across
//! every `k` at a fixed shape, and across the plaintext/encrypted backends,
//! on both the one-round and the multi-round path.
//!
//! # Restrictions
//!
//! Arrays larger than the cache require `M ≥ 8B` and a power-of-two `B`
//! (inherited from §3 compaction) plus `M ≥ 32` so that every chunk holds at
//! least two prune-round sample strides; in-cache arrays accept any `B ≥ 1`.
//! [`try_select_kth`] reports a violation, and a rank `k` outside the
//! occupied cells, as [`OdoError::InvalidArgument`].

use crate::error::OdoError;
use extmem::element::{cell_cmp_none_last, Cell};
use extmem::{
    ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, RetryPolicy, RetryStats,
    RetryingStore, StoreError,
};
use obliv_net::hint_block_range;

/// Weighted samples each chunk contributes to a prune round: the window
/// shrinks to `r′ = (2C + 4)·(g/8) < ⅝·r` (about `r/4` while `r ≫ M`).
const PRUNE_SAMPLES: usize = 8;

/// What an external selection did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectReport {
    /// I/Os charged to this selection (reads + writes deltas).
    pub io: IoStats,
    /// Filtering rounds executed: the prune rounds plus the final filter, so
    /// 1 when the first round over the input already filters and 0 when the
    /// array fit in cache. A fixed function of the shape `(N, B, M)`, never
    /// of the data or of `k`.
    pub rounds: usize,
    /// The final round's chunk size `g` in elements (a power of two `≤ M`),
    /// or the array length when the whole array fit in cache.
    pub chunk_elems: usize,
    /// Weighted samples per chunk (`s`) taken by the final filtering round:
    /// 0 when its window fit the survivor buffer whole, and on the in-cache
    /// path.
    pub samples_per_chunk: usize,
    /// Candidate slots the final filtering round read: `N` when the first
    /// round filters, the last prune round's output bound otherwise, and the
    /// array length on the in-cache path.
    pub final_window: usize,
    /// The rank `k` that was requested.
    pub rank: usize,
    /// Original array index of the selected element.
    pub index: usize,
    /// Whether the pure in-cache path (`N ≤ M`) was taken.
    pub in_cache: bool,
}

/// Selects the element of rank `k` (0-based) among the occupied cells of
/// array `h`: the element at position `k` of the occupied cells stably sorted
/// by key (ties broken by original array position). Uses at most
/// `cache_elems` words of private memory and `O((N/B)(1 + log(N/M)))` I/Os
/// whose addresses depend only on the shape `(N, B, M)` — neither the data
/// nor `k` influence the trace.
///
/// For untrusted/unreliable servers: transient faults are retried per
/// `policy` (the retry schedule depends only on the server's fault schedule,
/// never on the data or the rank), and the first permanent [`StoreError`] —
/// a corrupted block, a rollback, exhausted retries — stops the pass and is
/// returned as a typed [`OdoError`] instead of selecting from tampered data.
/// A rank `k` at or past the occupied count returns
/// [`OdoError::InvalidArgument`], and so, when the array does not fit in
/// cache, do `cache_elems < max(8·B, 32)` and a non-power-of-two `B` (the
/// §3 compaction requirements plus two full prune-round sample strides per
/// chunk). The rank check fires after the first streaming pass over the
/// input, where the occupied count is first known, so the trace up to the
/// error is the same for every `k`.
///
/// The input array is left unmodified even on `Err` (selection works on
/// internal scratch copies); the store remains usable.
pub fn try_select_kth<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
    policy: RetryPolicy,
) -> Result<(Element, SelectReport, RetryStats), OdoError> {
    let mut rs = RetryingStore::new(store, policy);
    let (elem, report) = run(&mut rs, h, cache_elems, k)?;
    Ok((elem, report, rs.stats()))
}

const RANK_OUT_OF_RANGE: OdoError = OdoError::InvalidArgument {
    reason: "rank k out of range: k must be smaller than the number of occupied cells",
};

/// The error for a broken invariant that every honest server keeps: the data
/// changed between the passes that read it, which only a store without an
/// authentication layer lets through. `cell` is where the disagreement
/// showed; a bracket that missed the target names the window's length.
fn corrupted(reason: &'static str, cell: usize) -> OdoError {
    OdoError::CorruptedRouting { reason, cell }
}

const BRACKET_MISSED: &str = "the bracket always contains the target";
const SURVIVORS_CAPPED: &str = "the weighted-sample rank bounds cap the survivors";

/// A filtering round's candidates: the first `len` slots of `h`.
#[derive(Clone, Copy)]
struct Window {
    h: ArrayHandle,
    len: usize,
    /// Whether `h` is the caller's input, whose occupied cell `j` stands for
    /// the working item `(key, j)`; a scratch window holds working items.
    input: bool,
}

impl Window {
    /// The working item of occupied slot `j`.
    fn item(&self, j: usize, e: Element) -> Element {
        if self.input {
            Element::new(e.key, j as u64)
        } else {
            e
        }
    }

    /// Private words one filter survivor takes: an input survivor keeps its
    /// original element beside its working item.
    fn survivor_words(&self) -> usize {
        if self.input {
            2
        } else {
            1
        }
    }

    /// Blocks of `h` the window spans.
    fn blocks(&self) -> usize {
        self.len.div_ceil(self.h.block_elems())
    }
}

/// The body of [`try_select_kth`] over `store` as given: every
/// argument failure is an [`OdoError::InvalidArgument`], and the first
/// failed block I/O stops the pass.
fn run<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
) -> Result<(Element, SelectReport), OdoError> {
    let start = store.io_stats();
    let n = h.len();
    let mut budget = CacheBudget::new(cache_elems);

    // Whole array fits in the private cache: one read pass, select CPU-side.
    if n <= cache_elems {
        let live = budget.with(n.max(1), |_| -> Result<_, StoreError> {
            let cells = store.try_load_span(h, 0, n)?;
            let mut live: Vec<(usize, Element)> = cells
                .iter()
                .enumerate()
                .filter_map(|(j, c)| c.map(|e| (j, e)))
                .collect();
            live.sort_by_key(|&(j, e)| (e.key, j));
            Ok(live)
        })?;
        let &(idx, winner) = live.get(k).ok_or(RANK_OUT_OF_RANGE)?;
        return Ok((
            winner,
            SelectReport {
                io: store.io_stats() - start,
                rounds: 0,
                chunk_elems: n.max(1),
                samples_per_chunk: 0,
                final_window: n.max(1),
                rank: k,
                index: idx,
                in_cache: true,
            },
        ));
    }

    let b = h.block_elems();
    let invalid = |reason| Err(OdoError::InvalidArgument { reason });
    if cache_elems < 8 * b {
        return invalid(
            "external selection needs a private cache of at least eight blocks (M >= 8B)",
        );
    }
    if cache_elems < 4 * PRUNE_SAMPLES {
        return invalid("external selection needs a private cache of at least 32 elements");
    }
    if !b.is_power_of_two() {
        return invalid("external selection requires a power-of-two block size");
    }

    // `kp` is the residual rank of the target inside the current window;
    // it shrinks as candidates are pruned below the window. Private state.
    let mut kp = k;
    let mut win = Window {
        h: *h,
        len: n,
        input: true,
    };
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let (g, plan) = plan_round(&win, cache_elems);
        let s = plan.unwrap_or(PRUNE_SAMPLES);
        let c = win.len.div_ceil(g);
        let (lo, hi) = if s == 0 {
            (None, None)
        } else {
            let (samples, live) = sample_chunks(store, &win, g, s, &mut budget)?;
            if win.input && k >= live {
                return Err(RANK_OUT_OF_RANGE);
            }
            let s_len = c * s;
            let q_lo = (kp * s / g).checked_sub(c).filter(|&q| q < s_len);
            let q_hi = Some((kp + 1).div_ceil(g / s)).filter(|&q| q < s_len);
            let (lo, hi) = if s_len <= cache_elems {
                splitters_in_cache(store, &samples, &mut budget, q_lo, q_hi)?
            } else {
                obliv_net::try_external_oblivious_sort_by(
                    store,
                    &samples,
                    cache_elems,
                    &cell_cmp_none_last,
                )?;
                scan_splitters(store, &samples, &mut budget, q_lo, q_hi)?
            };
            // lo = None means −∞ (no lower pruning); hi = None means +∞ (a
            // clamped or dummy splitter — every candidate is below it).
            if let (Some(q), None) = (q_lo, lo) {
                return Err(corrupted("a lo splitter is never a dummy", q));
            }
            (lo, hi)
        };
        let bound = survivor_bound(win.len, g, s);

        if plan.is_some() {
            let (below, mut kept) = filter(store, &win, lo, hi, bound, &mut budget)?;
            kp = kp
                .checked_sub(below)
                .filter(|&r| r < kept.len())
                .ok_or(corrupted(BRACKET_MISSED, win.len))?;
            let (winner, elem) = *kept.select_nth_unstable_by_key(kp, |&(w, _)| w).1;
            let idx = winner.payload as usize;
            let elem = if win.input {
                elem
            } else {
                recover(store, h, idx, &mut budget)?
            };
            if elem.key != winner.key {
                return Err(corrupted(
                    "the recovered element carries its working item's key",
                    idx,
                ));
            }
            return Ok((
                elem,
                SelectReport {
                    io: store.io_stats() - start,
                    rounds,
                    chunk_elems: g,
                    samples_per_chunk: s,
                    final_window: win.len,
                    rank: k,
                    index: idx,
                    in_cache: false,
                },
            ));
        }

        // Prune round: write the candidates in [lo, hi) into a fresh scratch
        // array, counting those below in a private register, route them to a
        // prefix with §3 compaction, and shrink the window to the
        // shape-determined bound r′.
        assert!(bound < win.len, "the window shrinks every round");
        let wrk = store.alloc_array(win.len);
        let mut below = 0usize;
        hint_block_range(store, &win.h, 0, win.blocks());
        for beta in 0..win.blocks() {
            budget.with(2 * b, |_| {
                let blk = store.try_load_block(&win.h, beta)?;
                let mut out = Block::empty(b);
                for t in 0..b {
                    let j = beta * b + t;
                    if j >= win.len {
                        break;
                    }
                    if let Some(e) = blk.get(t) {
                        let w = win.item(j, e);
                        if lo.is_some_and(|l| w < l) {
                            below += 1;
                        } else if hi.is_none_or(|hh| w < hh) {
                            out.set(t, Some(w));
                        }
                    }
                }
                store.try_store_block(&wrk, beta, out)
            })?;
        }
        let survivors = crate::compact::run(store, &wrk, cache_elems, None)?.occupied;
        if survivors > bound {
            return Err(corrupted(SURVIVORS_CAPPED, bound));
        }
        kp = kp
            .checked_sub(below)
            .filter(|&r| r < survivors)
            .ok_or(corrupted(BRACKET_MISSED, win.len))?;
        win = Window {
            h: wrk,
            len: bound,
            input: false,
        };
    }
}

/// The chunk size and the samples per chunk of one round over `win` (see
/// [`filter_samples`]), a function of the shape alone. A filter that takes
/// samples cuts chunks of the whole cache (`g`, the largest power of two
/// `≤ M`) when its `C·s` samples fit the cache, so its splitters are picked
/// in cache. Every other round cuts chunks of `g/2`: a filter whose samples
/// the Lemma 2 sort orders externally, or a prune round. `M ≥ 32` keeps
/// `g/2 ≥ 2·PRUNE_SAMPLES`.
fn plan_round(win: &Window, cache_elems: usize) -> (usize, Option<usize>) {
    let g = largest_pow2_at_most(cache_elems);
    let wide = filter_samples(win, g, cache_elems)
        .filter(|&s| s > 0 && win.len.div_ceil(g) * s <= cache_elems);
    match wide {
        Some(s) => (g, Some(s)),
        None => (g / 2, filter_samples(win, g / 2, cache_elems)),
    }
}

/// Samples per chunk with which one filtering round over `win` keeps its
/// survivors in cache: `Some(0)` when the whole window fits the survivor
/// buffer, else the smallest power of two `s ≤ g/4` whose survivor bound
/// `r′ = (2C + 4)·(g/s)` fits beside one block. `None` means a prune round
/// must shrink the window first. The `g/4` cap keeps the sample array at
/// about a quarter of the window: past it the sample sort can cost more than
/// a prune round plus a cheaper filter. A function of the shape alone.
fn filter_samples(win: &Window, g: usize, cache_elems: usize) -> Option<usize> {
    let fits = |s: usize| {
        survivor_bound(win.len, g, s) * win.survivor_words() + win.h.block_elems() <= cache_elems
    };
    let powers = std::iter::successors(Some(1usize), |&s| Some(2 * s));
    std::iter::once(0)
        .chain(powers.take_while(|&s| s <= g / 4))
        .find(|&s| fits(s))
}

/// The weighted-sample bound `r′ = (2C + 4)·(g/s)` on the candidates a
/// round with `s` samples per chunk keeps of a window of `len` slots; with
/// no samples, the whole window.
fn survivor_bound(len: usize, g: usize, s: usize) -> usize {
    g.checked_div(s)
        .map_or(len, |w| (2 * len.div_ceil(g) + 4) * w)
}

/// Step 1 of a filtering round: cuts `win` into chunks of `g` slots, sorts
/// each chunk's working items in cache and writes its `s` evenly spaced
/// order statistics (dummies where a chunk runs short) to a fresh sample
/// array of `C·s` cells. The picks move to the front of the chunk's own
/// buffer, so the pass holds `g` cells. Returns the sample array and the
/// number of occupied slots read.
fn sample_chunks<S: BlockStore>(
    store: &mut S,
    win: &Window,
    g: usize,
    s: usize,
    budget: &mut CacheBudget,
) -> Result<(ArrayHandle, usize), StoreError> {
    let c = win.len.div_ceil(g);
    let samples = store.alloc_array(c * s);
    let mut live = 0usize;
    for ci in 0..c {
        let lo_e = ci * g;
        let hi_e = ((ci + 1) * g).min(win.len);
        budget.with(g, |_| {
            let mut cells = store.try_load_span(&win.h, lo_e, hi_e)?;
            for (t, cell) in cells.iter_mut().enumerate() {
                *cell = cell.map(|e| win.item(lo_e + t, e));
            }
            live += cells.iter().flatten().count();
            cells.sort_unstable_by(cell_cmp_none_last);
            // Pick i sits at or after slot i, so picking in ascending order
            // never overwrites a later pick; a short chunk pads with dummies.
            cells.resize(cells.len().max(s), None);
            for i in 0..s {
                cells[i] = cells.get((i + 1) * (g / s) - 1).copied().flatten();
            }
            cells.truncate(s);
            store.try_store_span(&samples, ci * s, &cells)
        })?;
    }
    Ok((samples, live))
}

/// Step 2 for a sample array that fits the cache: reads it with one span,
/// sorts it in cache and returns the cells at ranks `q_lo` / `q_hi` (when
/// requested). Every sample block is read whatever the ranks are.
fn splitters_in_cache<S: BlockStore>(
    store: &mut S,
    samples: &ArrayHandle,
    budget: &mut CacheBudget,
    q_lo: Option<usize>,
    q_hi: Option<usize>,
) -> Result<(Cell, Cell), StoreError> {
    budget.with(samples.len(), |_| {
        let mut cells = store.try_load_span(samples, 0, samples.len())?;
        cells.sort_unstable_by(cell_cmp_none_last);
        let at = |q: Option<usize>| q.and_then(|q| cells[q]);
        Ok((at(q_lo), at(q_hi)))
    })
}

/// Step 3 of the final round: streams `win` once, counting the working items
/// below `lo` and keeping those in `[lo, hi)` — at most `bound` of them,
/// each paired with the element it was read as — in a private buffer charged
/// to `budget` for the whole pass.
fn filter<S: BlockStore>(
    store: &mut S,
    win: &Window,
    lo: Cell,
    hi: Cell,
    bound: usize,
    budget: &mut CacheBudget,
) -> Result<(usize, Vec<(Element, Element)>), OdoError> {
    let b = win.h.block_elems();
    budget.with(bound * win.survivor_words() + b, |_| {
        let mut below = 0usize;
        let mut kept = Vec::with_capacity(bound);
        hint_block_range(store, &win.h, 0, win.blocks());
        for beta in 0..win.blocks() {
            let blk = store.try_load_block(&win.h, beta)?;
            for t in 0..b {
                let j = beta * b + t;
                if j >= win.len {
                    break;
                }
                if let Some(e) = blk.get(t) {
                    let w = win.item(j, e);
                    if lo.is_some_and(|l| w < l) {
                        below += 1;
                    } else if hi.is_none_or(|hh| w < hh) {
                        if kept.len() == bound {
                            return Err(corrupted(SURVIVORS_CAPPED, j));
                        }
                        kept.push((w, e));
                    }
                }
            }
        }
        Ok((below, kept))
    })
}

/// Recovery: one streaming pass over the untouched input resurrects the
/// full original element at index `idx` — every block is read, the match is
/// latched CPU-side, so the index never shapes the trace.
fn recover<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    idx: usize,
    budget: &mut CacheBudget,
) -> Result<Element, OdoError> {
    let b = h.block_elems();
    let mut found: Cell = None;
    hint_block_range(store, h, 0, h.n_blocks());
    for beta in 0..h.n_blocks() {
        budget.with(b, |_| -> Result<(), StoreError> {
            let blk = store.try_load_block(h, beta)?;
            for t in 0..b {
                if beta * b + t == idx {
                    found = blk.get(t);
                }
            }
            Ok(())
        })?;
    }
    found.ok_or(corrupted("the selected index holds an occupied cell", idx))
}

/// Computes the elements at every rank in `ranks` (each 0-based among the
/// occupied cells, stably sorted by key) in a single sort of a working copy:
/// `O((N/B)(1 + log²(N/M)))` I/Os for any number of quantiles, versus one
/// selection each. The trace depends only on the shape `(N, B, M)` — the
/// requested ranks steer private registers only — and the input array is left
/// unmodified. Returns the elements in the order of `ranks`.
///
/// For untrusted/unreliable servers: transient faults are retried per
/// `policy`, and the first permanent [`StoreError`] stops the pass and is
/// returned as a typed [`OdoError`]. More ranks than a quarter of the cache
/// holds, or a cache below two blocks, return [`OdoError::InvalidArgument`]
/// before any I/O; so does a rank at or past the occupied count, once the
/// first streaming pass knows that count, so the trace up to that error is
/// the same for every rank.
pub fn try_quantiles<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    ranks: &[usize],
    policy: RetryPolicy,
) -> Result<(Vec<Element>, IoStats, RetryStats), OdoError> {
    let mut rs = RetryingStore::new(store, policy);
    let (elems, io) = run_quantiles(&mut rs, h, cache_elems, ranks)?;
    Ok((elems, io, rs.stats()))
}

/// The body of [`try_quantiles`] over `store` as given: every argument
/// failure is an [`OdoError::InvalidArgument`], and the first failed block
/// I/O stops the pass.
fn run_quantiles<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    ranks: &[usize],
) -> Result<(Vec<Element>, IoStats), OdoError> {
    let start = store.io_stats();
    let b = h.block_elems();
    if ranks.len() > cache_elems / 4 {
        return Err(OdoError::InvalidArgument {
            reason: "the requested quantiles must fit in the private cache",
        });
    }
    if cache_elems < 2 * b {
        return Err(OdoError::InvalidArgument {
            reason: "quantiles need a private cache of at least two blocks (M >= 2B)",
        });
    }
    let mut budget = CacheBudget::new(cache_elems);

    let (wrk, live) = build_working_copy(store, h, &mut budget)?;
    if ranks.iter().any(|&rk| rk >= live) {
        return Err(OdoError::InvalidArgument {
            reason: "quantile rank out of range: every rank must be smaller than the number of occupied cells",
        });
    }

    // One oblivious sort; occupied working items now sit at their ranks.
    obliv_net::try_external_oblivious_sort_by(store, &wrk, cache_elems, &cell_cmp_none_last)?;

    // Stream the sorted copy, latching each requested rank in a register.
    let mut picks: Vec<Cell> = vec![None; ranks.len()];
    hint_block_range(store, &wrk, 0, wrk.n_blocks());
    for beta in 0..wrk.n_blocks() {
        budget.with(b + 2 * ranks.len(), |_| -> Result<(), StoreError> {
            let blk = store.try_load_block(&wrk, beta)?;
            for t in 0..b {
                let p = beta * b + t;
                for (slot, &rk) in ranks.iter().enumerate() {
                    if p == rk {
                        picks[slot] = blk.get(t);
                    }
                }
            }
            Ok(())
        })?;
    }

    // Recovery pass over the untouched input: resurrect every winner's full
    // element by its original index, all in one stream.
    let mut out: Vec<Cell> = vec![None; ranks.len()];
    hint_block_range(store, h, 0, h.n_blocks());
    for beta in 0..h.n_blocks() {
        budget.with(b + 2 * ranks.len(), |_| -> Result<(), StoreError> {
            let blk = store.try_load_block(h, beta)?;
            for t in 0..b {
                let j = beta * b + t;
                for (slot, pick) in picks.iter().enumerate() {
                    if pick.is_some_and(|w| w.payload as usize == j) {
                        out[slot] = blk.get(t);
                    }
                }
            }
            Ok(())
        })?;
    }
    let elems = out
        .into_iter()
        .zip(ranks)
        .map(|(c, &rk)| {
            c.ok_or(corrupted(
                "every requested rank resolves to an occupied cell",
                rk,
            ))
        })
        .collect::<Result<_, _>>()?;
    Ok((elems, store.io_stats() - start))
}

/// The first pass of `run_quantiles`, the body of [`try_quantiles`]: streams
/// the input once, replacing occupied cell `j` by the working item `(key, j)`
/// in a freshly allocated parallel array — a strict total order even under
/// duplicate keys, so after the sort each occupied rank holds exactly one
/// item, whose index the recovery pass looks up. Dummies stay dummies (they
/// sort after every working item). Returns the working array and the
/// occupied count.
fn build_working_copy<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    budget: &mut CacheBudget,
) -> Result<(ArrayHandle, usize), StoreError> {
    let b = h.block_elems();
    let n = h.len();
    let wrk = store.alloc_array(n);
    let mut live = 0usize;
    hint_block_range(store, h, 0, h.n_blocks());
    for beta in 0..h.n_blocks() {
        budget.with(2 * b, |_| {
            let blk = store.try_load_block(h, beta)?;
            let mut out = Block::empty(b);
            for t in 0..b {
                let j = beta * b + t;
                if j >= n {
                    break;
                }
                if let Some(e) = blk.get(t) {
                    out.set(t, Some(Element::new(e.key, j as u64)));
                    live += 1;
                }
            }
            store.try_store_block(&wrk, beta, out)
        })?;
    }
    Ok((wrk, live))
}

/// Largest power of two `≤ x` (`x ≥ 1`).
fn largest_pow2_at_most(x: usize) -> usize {
    debug_assert!(x >= 1);
    let mut p = 1;
    while p * 2 <= x {
        p *= 2;
    }
    p
}

/// Streams the sorted sample array once, returning the cells at ranks
/// `q_lo` / `q_hi` (when requested) without ever issuing a rank-dependent
/// read: every block is read, the two positions are latched in registers.
fn scan_splitters<S: BlockStore>(
    store: &mut S,
    samples: &ArrayHandle,
    budget: &mut CacheBudget,
    q_lo: Option<usize>,
    q_hi: Option<usize>,
) -> Result<(Cell, Cell), StoreError> {
    let b = samples.block_elems();
    let len = samples.len();
    let mut lo: Cell = None;
    let mut hi: Cell = None;
    hint_block_range(store, samples, 0, samples.n_blocks());
    for beta in 0..samples.n_blocks() {
        budget.with(b, |_| -> Result<(), StoreError> {
            let blk = store.try_load_block(samples, beta)?;
            for t in 0..b {
                let q = beta * b + t;
                if q >= len {
                    break;
                }
                if q_lo == Some(q) {
                    lo = blk.get(t);
                }
                if q_hi == Some(q) {
                    hi = blk.get(t);
                }
            }
            Ok(())
        })?;
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::ExtMem;

    /// Pseudo-random keyed input with a bounded key range (lots of ties).
    fn keyed_input(n: usize, salt: u64, key_range: u64) -> Vec<Element> {
        (0..n)
            .map(|i| {
                Element::new(
                    extmem::util::hash64(i as u64, salt) % key_range,
                    extmem::util::hash64(i as u64, salt ^ 0xFF) % 1000,
                )
            })
            .collect()
    }

    /// The contract's reference: position `k` of the occupied cells stably
    /// sorted by key.
    fn oracle(cells: &[Cell], k: usize) -> Element {
        let mut live: Vec<(usize, Element)> = cells
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|e| (j, e)))
            .collect();
        live.sort_by_key(|&(j, e)| (e.key, j));
        live[k].1
    }

    fn run_select(cells: &[Cell], b: usize, m: usize, k: usize) -> (Element, SelectReport) {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        run(&mut mem, &h, m, k).unwrap()
    }

    #[test]
    fn selects_across_shapes_ranks_and_tie_densities() {
        for (n, b, m) in [
            (1024usize, 8usize, 128usize),
            (2048, 16, 256),
            (1000, 8, 128), // non-power-of-two N
            (512, 8, 1024), // pure in-cache path
        ] {
            for key_range in [4u64, 64, u64::MAX] {
                let cells: Vec<Cell> = keyed_input(n, 7, key_range).into_iter().map(Some).collect();
                for k in [0, 1, n / 3, n / 2, n - 2, n - 1] {
                    let (got, report) = run_select(&cells, b, m, k);
                    assert_eq!(
                        got,
                        oracle(&cells, k),
                        "N={n} B={b} M={m} range={key_range} k={k}"
                    );
                    assert_eq!(report.rank, k);
                    assert_eq!(cells[report.index], Some(got));
                }
            }
        }
    }

    #[test]
    fn input_array_is_left_unmodified() {
        let cells: Vec<Cell> = keyed_input(512, 3, 100).into_iter().map(Some).collect();
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        run(&mut mem, &h, 64, 200).unwrap();
        assert_eq!(mem.snapshot_cells(&h), cells);
    }

    #[test]
    fn dummy_cells_are_skipped() {
        let cells: Vec<Cell> = (0..600)
            .map(|i| (i % 3 != 1).then(|| Element::keyed(1000 - i as u64, i)))
            .collect();
        let live = cells.iter().filter(|c| c.is_some()).count();
        for k in [0, live / 2, live - 1] {
            let (got, _) = run_select(&cells, 8, 64, k);
            assert_eq!(got, oracle(&cells, k), "k={k}");
        }
    }

    #[test]
    fn all_equal_keys_break_ties_by_position() {
        let cells: Vec<Cell> = (0..500).map(|i| Some(Element::keyed(42, i))).collect();
        for k in [0, 250, 499] {
            let (got, report) = run_select(&cells, 8, 64, k);
            assert_eq!(got, Element::keyed(42, k), "k={k}");
            assert_eq!(report.index, k);
        }
    }

    #[test]
    fn overlarge_rank_is_rejected() {
        let cells: Vec<Cell> = (0..100)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        let (r, _) = try_select(&cells, 8, 512, 100);
        assert!(invalid_reason(r).contains("rank k out of range"));
    }

    #[test]
    fn rank_counts_occupied_not_slots() {
        let mut cells: Vec<Cell> = vec![None; 600];
        cells[5] = Some(Element::keyed(1, 5));
        let (r, _) = try_select(&cells, 8, 64, 1); // only one occupied cell
        assert!(invalid_reason(r).contains("rank k out of range"));
    }

    #[test]
    fn in_cache_path_is_one_read_pass() {
        let cells: Vec<Cell> = keyed_input(256, 1, 50).into_iter().map(Some).collect();
        let (got, report) = run_select(&cells, 8, 256, 17);
        assert_eq!(got, oracle(&cells, 17));
        assert!(report.in_cache);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.io.reads, 32);
        assert_eq!(report.io.writes, 0);
    }

    #[test]
    fn io_count_is_a_function_of_shape_only() {
        let a = run_select(
            &keyed_input(512, 1, 8)
                .into_iter()
                .map(Some)
                .collect::<Vec<_>>(),
            8,
            64,
            0,
        )
        .1;
        let b = run_select(
            &keyed_input(512, 9, u64::MAX)
                .into_iter()
                .map(Some)
                .collect::<Vec<_>>(),
            8,
            64,
            511,
        )
        .1;
        assert_eq!(a.io, b.io);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.final_window, b.final_window);
    }

    #[test]
    fn tiny_cache_is_rejected_on_the_external_path() {
        let cells: Vec<Cell> = (0..4096)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        let (r, _) = try_select(&cells, 64, 256, 5);
        assert!(invalid_reason(r).contains("eight blocks"));
    }

    /// `try_select_kth` at `(N, B, M)` on `cells`, with the store's trace.
    fn try_select(
        cells: &[Cell],
        b: usize,
        m: usize,
        k: usize,
    ) -> (
        Result<(Element, SelectReport, RetryStats), OdoError>,
        extmem::AccessTrace,
    ) {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        mem.enable_trace();
        let r = try_select_kth(&mut mem, &h, m, k, RetryPolicy::default());
        (r, mem.take_trace().unwrap())
    }

    fn invalid_reason(r: Result<(Element, SelectReport, RetryStats), OdoError>) -> &'static str {
        match r {
            Err(OdoError::InvalidArgument { reason }) => reason,
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn try_select_reports_an_out_of_range_rank_as_invalid_argument() {
        // In cache, on the one-round filter path and on the multi-round
        // path; every third cell is a dummy, so k counts occupied cells.
        let mut cells: Vec<Cell> = keyed_input(4096, 4, 99).into_iter().map(Some).collect();
        for c in cells.iter_mut().step_by(3) {
            *c = None;
        }
        for (n, b, m) in [
            (512usize, 8usize, 1024usize),
            (4096, 16, 1024),
            (4096, 16, 128),
        ] {
            let cells = &cells[..n];
            let live_n = cells.iter().flatten().count();
            let (r, trace) = try_select(cells, b, m, live_n);
            assert!(
                invalid_reason(r).contains("rank k out of range"),
                "N={n} M={m}"
            );
            // The error fires where the occupied count is first known: the
            // trace up to it is the same for every out-of-range k.
            let (r, far) = try_select(cells, b, m, live_n + 1000);
            assert!(r.is_err());
            extmem::trace::assert_oblivious(&trace, &far, "out-of-range ranks");
        }
    }

    #[test]
    fn try_select_reports_a_small_cache_as_invalid_argument() {
        let cells: Vec<Cell> = (0..4096)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        let (r, trace) = try_select(&cells, 64, 256, 5);
        assert!(invalid_reason(r).contains("eight blocks"));
        assert!(trace.is_empty(), "shape validation precedes every I/O");
        let (r, _) = try_select(&cells, 2, 16, 5);
        assert!(invalid_reason(r).contains("at least 32 elements"));
    }

    #[test]
    fn try_select_reports_a_non_power_of_two_block_as_invalid_argument() {
        let cells: Vec<Cell> = (0..1200)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        let (r, trace) = try_select(&cells, 12, 256, 5);
        assert!(invalid_reason(r).contains("power-of-two block size"));
        assert!(trace.is_empty());
        // In cache any block size works.
        let (r, _) = try_select(&cells[..200], 12, 256, 5);
        assert_eq!(r.unwrap().0, Element::keyed(5, 5));
    }

    #[test]
    fn the_filter_plan_is_cheap_and_bounded_by_the_cache() {
        let plan = |n: usize, b: usize, m: usize, input: bool| {
            let mut mem = ExtMem::new(b);
            let win = Window {
                h: mem.alloc_array(n),
                len: n,
                input,
            };
            plan_round(&win, m)
        };
        // The headline filters in one round over the input, in chunks of M
        // whose 32·256 samples fill the cache exactly.
        assert_eq!(plan(1 << 18, 64, 1 << 13, true), (1 << 13, Some(256)));
        // No s ≤ g/4 fits: prune first, in chunks of M/2.
        assert_eq!(plan(1 << 18, 64, 1 << 10, true), (512, None));
        assert_eq!(plan(1 << 14, 8, 128, true), (64, None));
        // A scratch window that fits the buffer whole needs no samples; the
        // same length as input, whose survivors take two words, does.
        assert_eq!(plan(100, 8, 128, false), (64, Some(0)));
        assert_eq!(plan(100, 8, 128, true), (128, Some(16)));
        // At B = 16, M = 1024: 13 chunks of 1024 take 64 samples each, 832
        // cells that fit the cache; 13,313 slots need 14 chunks of 128
        // samples, 1,792 cells, so they keep chunks of 512 and sort their
        // samples externally.
        assert_eq!(plan(13 * 1024, 16, 1024, true), (1024, Some(64)));
        assert_eq!(plan(13 * 1024 + 1, 16, 1024, true), (512, Some(64)));
        // Either side of the filter's cutover at chunks of 512: 61 chunks
        // fit with s = 128 = g/4, 62 would need s = 256.
        assert_eq!(plan(61 * 512, 16, 1024, true), (512, Some(128)));
        assert_eq!(plan(61 * 512 + 1, 16, 1024, true), (512, None));
        // Whatever s is chosen, 2·r′ + B fits the cache, and chunks of the
        // whole cache come with a sample array that fits it too.
        for (n, b, m) in [
            (4096usize, 16usize, 1024usize),
            (1 << 16, 64, 8192),
            (5000, 8, 512),
            (13 * 1024, 16, 1024),
            (40_000, 16, 1024),
        ] {
            let (g, s) = plan(n, b, m, true);
            assert!(g == largest_pow2_at_most(m) || g == largest_pow2_at_most(m) / 2);
            if let Some(s) = s {
                assert!(s <= g / 4);
                assert!(2 * (2 * n.div_ceil(g) + 4) * (g / s) + b <= m);
                if g > m / 2 {
                    assert!(s > 0 && n.div_ceil(g) * s <= m);
                }
            }
        }
    }

    #[test]
    fn the_headline_is_two_input_passes_and_an_in_cache_splitter_step() {
        let n = 1 << 18;
        let cells: Vec<Cell> = keyed_input(n, 11, u64::MAX).into_iter().map(Some).collect();
        let (got, report) = run_select(&cells, 64, 1 << 13, n / 2);
        assert_eq!(got, oracle(&cells, n / 2));
        assert_eq!(report.chunk_elems, 8192);
        assert_eq!(report.samples_per_chunk, 256);
        assert_eq!(report.rounds, 1);
        // 4,096 + 4,096 input reads, 128 sample writes, 128 sample reads.
        assert_eq!(report.io.total(), 8448);
    }

    #[test]
    fn either_side_of_the_in_cache_splitter_cutover_is_correct_and_oblivious() {
        // (N, chunk size, samples per chunk, I/Os) at B = 16, M = 1024.
        for (n, g, s, ios) in [
            (13 * 1024usize, 1024usize, 64usize, 1768u64),
            (13 * 1024 + 1, 512, 64, 3082),
        ] {
            let mut reference = None;
            for salt in 0..6u64 {
                let key_range = [3u64, 50, 1000, u64::MAX][salt as usize % 4];
                let cells: Vec<Cell> = keyed_input(n, salt, key_range)
                    .into_iter()
                    .map(Some)
                    .collect();
                let k = n / 2 + salt as usize;
                let (r, trace) = try_select(&cells, 16, 1024, k);
                let (got, report, _) = r.unwrap();
                assert_eq!(got, oracle(&cells, k), "N={n} salt={salt}");
                assert_eq!(
                    (report.chunk_elems, report.samples_per_chunk, report.rounds),
                    (g, s, 1)
                );
                assert_eq!(report.io.total(), ios, "N={n}");
                let reference = reference.get_or_insert(trace.clone());
                extmem::trace::assert_oblivious(reference, &trace, "cutover datasets");
            }
        }
    }

    #[test]
    fn no_shape_costs_more_than_with_chunks_of_half_the_cache() {
        // I/O totals of the plan that always cut chunks of M/2 and sorted
        // every sample array with the Lemma 2 sort, at median rank.
        for (n, b, m, before) in [
            (512usize, 8usize, 64usize, 870u64),
            (512, 16, 128, 388),
            (1000, 16, 128, 755),
            (3001, 4, 64, 21712),
            (5000, 4, 256, 14812),
            (10_000, 8, 2048, 2868),
            (13_312, 16, 1024, 3056),
            (13_313, 16, 1024, 3082),
            (20_000, 32, 512, 8592),
            (31_233, 2, 2048, 55426),
            (50_000, 64, 1024, 10224),
            (65_536, 64, 8192, 2112),
        ] {
            let cells: Vec<Cell> = keyed_input(n, 5, 1 << 20).into_iter().map(Some).collect();
            let (got, report) = run_select(&cells, b, m, n / 2);
            assert_eq!(got, oracle(&cells, n / 2), "N={n} B={b} M={m}");
            assert!(
                report.io.total() <= before,
                "N={n} B={b} M={m}: {} I/Os > {before}",
                report.io.total()
            );
        }
    }

    #[test]
    fn quantiles_match_repeated_selection() {
        let cells: Vec<Cell> = keyed_input(700, 5, 30).into_iter().map(Some).collect();
        let ranks = [0usize, 175, 350, 525, 699];
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let (got, io) = run_quantiles(&mut mem, &h, 64, &ranks).unwrap();
        assert!(io.total() > 0);
        for (i, &rk) in ranks.iter().enumerate() {
            assert_eq!(got[i], oracle(&cells, rk), "rank {rk}");
        }
        // The input survives, as with selection.
        assert_eq!(mem.snapshot_cells(&h), cells);
    }

    #[test]
    fn try_quantiles_reports_a_cache_below_two_blocks_as_invalid_argument() {
        // M = 12 < 2B: the working copy's build and sort each need two
        // blocks of B = 8 in cache.
        let cells: Vec<Cell> = keyed_input(64, 1, 10).into_iter().map(Some).collect();
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let err = try_quantiles(&mut mem, &h, 12, &[3], RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, OdoError::InvalidArgument { .. }), "{err:?}");
        assert!(err.to_string().contains("at least two blocks"), "{err}");
        assert_eq!(mem.stats().total(), 0, "refused before any I/O");
    }

    #[test]
    fn quantiles_trace_is_rank_independent() {
        let cells: Vec<Cell> = keyed_input(512, 2, 40).into_iter().map(Some).collect();
        let trace_of = |ranks: &[usize]| {
            let mut mem = ExtMem::with_trace(8);
            let h = mem.alloc_array_from_cells(&cells);
            run_quantiles(&mut mem, &h, 64, ranks).unwrap();
            mem.take_trace().unwrap()
        };
        let a = trace_of(&[0, 256, 511]);
        let b = trace_of(&[17, 100, 400]);
        extmem::trace::assert_oblivious(&a, &b, "quantiles rank sets");
    }
}

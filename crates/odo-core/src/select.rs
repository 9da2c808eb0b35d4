//! I/O-efficient external-memory **data-oblivious selection** — the paper's
//! Section 4 k-th order statistic, executed over an outsourced block store in
//! `O((N/B)(1 + log(N/M)))` I/Os.
//!
//! # Problem
//!
//! An array of `N` cells (some possibly empty) holds `L` occupied elements;
//! [`select_kth`] must return the element of rank `k` among them — the
//! element at position `k` of the occupied cells stably sorted by key — with
//! a server-visible access sequence that is a fixed function of the *shape*
//! `(N, B, M)` alone. Neither the data values **nor the rank `k` itself** may
//! leak through the trace: a hospital selecting the median of outsourced
//! billing records reveals to the server that *some* order statistic was
//! computed, never which one.
//!
//! # Algorithm
//!
//! Selection composes the two primitives the workspace already ships, in
//! exactly the layering the paper describes: candidate pruning via §3
//! order-preserving compaction ([`crate::compact::compact`]) and a final
//! in-cache finish via the Lemma 2 external sort
//! ([`obliv_net::external_oblivious_sort_by`]). One streaming pass first
//! replaces each occupied cell by a *working item* `(key, original index)` —
//! a strict total order even under heavy key duplication, which is what makes
//! the pruning window provably shrink. Then, while the candidate window of
//! `r` slots exceeds the cache:
//!
//! 1. **Weighted splitter extraction.** The window is cut into `C = ⌈r/g⌉`
//!    chunks of `g = Θ(M)` slots. Each chunk is pulled into the cache, sorted
//!    CPU-side (free), and its `s` evenly spaced order statistics — local
//!    ranks `(i+1)·g/s − 1` — are appended to a sample array of `C·s` cells.
//!    Each sample carries implicit weight `g/s`. One read pass plus `O(r·s/g)`
//!    sample writes.
//! 2. **Oblivious approximate-quantile reduction.** The sample array is
//!    sorted with the external oblivious sort, and one streaming pass
//!    captures — in private registers, never by rank-addressed reads — the
//!    two splitters `lo = σ(q_lo)` and `hi = σ(q_hi)` with
//!    `q_lo = ⌊k′·s/g⌋ − C` and `q_hi = ⌈(k′+1)·s/g⌉` (clamped to ±∞). The
//!    classic weighted-sample rank bounds
//!    `q·(g/s) ≤ rank(σ(q)) ≤ (q + C)·(g/s)` guarantee `lo ≤ target < hi`.
//! 3. **Mark-and-compact pruning.** One read-modify-write pass blanks every
//!    candidate outside `[lo, hi)` (counting, in a private register, those
//!    pruned *below*, which shifts the residual rank `k′`); §3 compaction then
//!    routes the survivors to a prefix. The same rank bounds cap the survivor
//!    count by the shape-only quantity `r′ = (2C + 4)·(g/s)` — with `s = 8`
//!    samples per chunk, `r′ < ⅝·r`, so the window shrinks geometrically —
//!    and the prefix of `r′` slots is copied into the next round's window.
//!
//! When the window fits in cache, it is sorted with the external oblivious
//! sort and a final streaming pass captures the `k′`-th cell in a register.
//! One last pass over the *untouched* input array recovers the full original
//! element from the winning index — again by streaming every block, so the
//! winning position stays hidden. (Unlike the in-place sort and compaction,
//! selection never modifies the input array.)
//!
//! # I/O count
//!
//! Every round costs three streaming passes plus one compaction over `r_t`
//! slots — `O((r_t/B)(1 + log_{M/B}(r_t/M)))` I/Os, since compaction runs its
//! external butterfly levels fused into cache-sized column sweeps — and
//! `Σ r_t` is geometric from `N`, so the total is dominated by
//! `O((N/B)(1 + log_{M/B}(N/M)))` — one log factor, the paper's selection
//! advantage over sorting. The `odo-bench` harness checks the
//! explicit-constant form `64·⌈N/B⌉·(1 + ⌈log₂⌈N/M⌉⌉)` at every grid point
//! and records the measurements in `BENCH_select.json`.
//!
//! # Obliviousness
//!
//! Window sizes `r_t`, chunk counts, sample-array lengths, the round count
//! and every block address are fixed functions of `(N, B, M)`. The rank `k`,
//! the splitters, the pruned-below counters and the winning index live only
//! in private registers and steer block *contents*, never addresses. The
//! `select_oblivious` integration test asserts byte-identical traces across
//! dozens of datasets, across every `k` at a fixed shape, and across the
//! plaintext/encrypted backends.
//!
//! # Restrictions
//!
//! Arrays larger than the cache require `M ≥ 8B` and a power-of-two `B`
//! (inherited from §3 compaction) plus `M ≥ 4·s = 32` so that every chunk
//! holds at least two full sample strides; in-cache arrays accept any
//! `B ≥ 1`.

use crate::error::OdoError;
use crate::sorter::OblivSorter;
use extmem::element::{cell_cmp_none_last, Cell};
use extmem::{
    run_fallible, ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, RetryPolicy,
    RetryStats,
};

/// Number of weighted samples each chunk contributes per pruning round.
///
/// Larger values shrink the candidate window faster per round but lengthen
/// the sample array; `8` keeps the guaranteed shrink factor at `8/5` per
/// round (and ~4 in the early rounds, where `r ≫ M`).
pub const SAMPLES_PER_CHUNK: usize = 8;

/// What an external selection did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectReport {
    /// I/Os charged to this selection (reads + writes deltas).
    pub io: IoStats,
    /// Pruning rounds executed (0 when the array fit in cache). A fixed
    /// function of the shape `(N, B, M)`, never of the data or of `k`.
    pub rounds: usize,
    /// The chunk size `g` in elements (a power of two `≤ M/2`), or the array
    /// length when the whole array fit in cache.
    pub chunk_elems: usize,
    /// Weighted samples taken per chunk (`s`); 0 on the in-cache path.
    pub samples_per_chunk: usize,
    /// Size of the final candidate window handed to the finishing sort (the
    /// array length itself on the in-cache path).
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
/// nor `k` influence the trace. The input array is left unmodified.
///
/// # Panics
/// Panics if `k` is not smaller than the number of occupied cells, and — when
/// the array does not fit in cache — if `cache_elems < max(8·B, 32)` or `B`
/// is not a power of two (the §3 compaction requirements plus two full sample
/// strides per chunk).
pub fn select_kth<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
) -> (Element, SelectReport) {
    select_kth_with(store, h, cache_elems, k, &OblivSorter::Bitonic)
}

/// [`select_kth`] with an explicit [`OblivSorter`] strategy: the sample sort
/// of every pruning round and the finishing sort of the final window run on
/// the selected engine. `&OblivSorter::Bitonic` reproduces [`select_kth`]
/// exactly; `OblivSorter::bucket(seed)` swaps in the randomized
/// `O((N/B)·log_{M/B}(N/B))` engine (note its trace then depends on the seed
/// and the random bin assignment — see `DESIGN.md` on when that is
/// acceptable).
///
/// # Panics
/// Same conditions as [`select_kth`], plus — on the bucket engine — a bucket
/// overflow (probability `≈ exp(−Z/6)` per bucket-level; retry with a fresh
/// seed).
pub fn select_kth_with<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
    sorter: &OblivSorter,
) -> (Element, SelectReport) {
    let start = store.io_stats();
    let n = h.len();
    let mut budget = CacheBudget::new(cache_elems);

    // Whole array fits in the private cache: one read pass, select CPU-side.
    if n <= cache_elems {
        let (winner, idx) = budget.with(n.max(1), |_| {
            let cells = store.load_span(h, 0, n);
            let mut live: Vec<(usize, Element)> = cells
                .iter()
                .enumerate()
                .filter_map(|(j, c)| c.map(|e| (j, e)))
                .collect();
            assert!(
                k < live.len(),
                "rank k out of range: k={k} >= {} occupied",
                live.len()
            );
            live.sort_by_key(|&(j, e)| (e.key, j));
            (live[k].1, live[k].0)
        });
        return (
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
        );
    }

    let b = h.block_elems();
    let s = SAMPLES_PER_CHUNK;
    assert!(
        cache_elems >= 8 * b,
        "external selection needs a private cache of at least eight blocks (M >= 8B)"
    );
    assert!(
        cache_elems >= 4 * s,
        "external selection needs a private cache of at least {} elements",
        4 * s
    );
    assert!(
        b.is_power_of_two(),
        "external selection requires a power-of-two block size"
    );
    // Chunk size: the largest power of two with 2g ≤ M, so a chunk (plus its
    // samples) always fits in cache. g ≥ 2s by the cache floor above.
    let g = largest_pow2_at_most(cache_elems / 2);
    debug_assert!(g >= 2 * s);

    let (mut cur, live) = build_working_copy(store, h, &mut budget);
    assert!(k < live, "rank k out of range: k={k} >= {live} occupied");

    // `kp` is the residual rank of the target inside the current window;
    // it shrinks as candidates are pruned below the window. Private state.
    let mut kp = k;
    let mut r = n;
    let mut rounds = 0usize;

    while r > cache_elems {
        rounds += 1;
        let c = r.div_ceil(g);
        let s_len = c * s;

        // 1. Weighted splitter extraction: sort each chunk in cache, emit its
        // s evenly spaced order statistics. Short tail chunks are implicitly
        // padded with dummies (+∞), which the rank bounds absorb.
        let samples = store.alloc_array(s_len);
        for ci in 0..c {
            let lo_e = ci * g;
            let hi_e = ((ci + 1) * g).min(r);
            budget.with(hi_e - lo_e + s, |_| {
                let mut cells = store.load_span(&cur, lo_e, hi_e);
                cells.sort_by(cell_cmp_none_last);
                let picks: Vec<Cell> = (0..s)
                    .map(|i| cells.get((i + 1) * (g / s) - 1).copied().flatten())
                    .collect();
                store.store_span(&samples, ci * s, &picks);
            });
        }

        // 2. Oblivious approximate-quantile reduction: sort the samples, then
        // stream them once, latching the two bracket splitters in registers —
        // never reading a rank-dependent address.
        sorter.sort_by(store, &samples, cache_elems, &cell_cmp_none_last);
        let q_lo = (kp * s / g).checked_sub(c).filter(|&q| q < s_len);
        let q_hi = Some((kp + 1).div_ceil(g / s)).filter(|&q| q < s_len);
        let (lo, hi) = scan_splitters(store, &samples, &mut budget, q_lo, q_hi);
        // lo = None means −∞ (no lower pruning); hi = None means +∞ (a
        // clamped or dummy splitter — every candidate is below it).
        debug_assert!(
            q_lo.is_none() || lo.is_some(),
            "a lo splitter is never a dummy"
        );

        // 3. Mark-and-compact pruning: blank candidates outside [lo, hi),
        // counting those pruned below in a private register, then route the
        // survivors to a prefix with §3 compaction and shrink the window to
        // the shape-determined bound r'.
        let mut below = 0usize;
        hint_sweep(store, &cur);
        for beta in 0..cur.n_blocks() {
            budget.with(2 * b, |_| {
                let mut blk = store.load_block(&cur, beta);
                for t in 0..b {
                    if let Some(e) = blk.get(t) {
                        if lo.is_some_and(|l| e < l) {
                            below += 1;
                            blk.set(t, None);
                        } else if hi.is_some_and(|hh| e >= hh) {
                            blk.set(t, None);
                        }
                    }
                }
                store.store_block(&cur, beta, blk);
            });
        }
        kp -= below;
        let survivors = crate::compact::compact(store, &cur, cache_elems).occupied;
        assert!(kp < survivors, "the bracket always contains the target");

        let r_next = (2 * c + 4) * (g / s);
        assert!(r_next < r, "the window shrinks every round");
        assert!(
            survivors <= r_next,
            "weighted-sample rank bounds cap the survivors: {survivors} > {r_next}"
        );
        let next = store.alloc_array(r_next);
        let prefix: Vec<usize> = (0..next.n_blocks()).collect();
        store.hint_blocks(&cur, &prefix);
        for beta in 0..next.n_blocks() {
            budget.with(b, |_| {
                let blk = store.load_block(&cur, beta);
                store.store_block(&next, beta, blk);
            });
        }
        cur = next;
        r = r_next;
    }

    // Finish: sort the final window with the selected engine (it now fits in
    // cache: one read plus one write pass), then stream it to latch the
    // kp-th cell — the working item (key, original index) of the target.
    sorter.sort_by(store, &cur, cache_elems, &cell_cmp_none_last);
    let winner = budget.with(r, |_| {
        let cells = store.load_span(&cur, 0, r);
        cells[kp].expect("the target survived every pruning round")
    });
    let idx = winner.payload as usize;

    // Recovery: one streaming pass over the untouched input resurrects the
    // full original element at the winning index — every block is read, the
    // match is latched CPU-side, so the index never shapes the trace.
    let mut found: Cell = None;
    hint_sweep(store, h);
    for beta in 0..h.n_blocks() {
        budget.with(b, |_| {
            let blk = store.load_block(h, beta);
            for t in 0..b {
                let j = beta * b + t;
                if j < n && j == idx {
                    found = blk.get(t);
                }
            }
        });
    }
    let elem = found.expect("the selected index holds an occupied cell");
    debug_assert_eq!(elem.key, winner.key);

    (
        elem,
        SelectReport {
            io: store.io_stats() - start,
            rounds,
            chunk_elems: g,
            samples_per_chunk: s,
            final_window: r,
            rank: k,
            index: idx,
            in_cache: false,
        },
    )
}

/// Fallible variant of [`select_kth`] for untrusted/unreliable servers:
/// transient faults are retried per `policy` (the retry schedule depends
/// only on the server's fault schedule, never on the data or the rank), and
/// the first permanent [`StoreError`](extmem::StoreError) — a corrupted
/// block, a rollback, exhausted retries — aborts the pass and is returned
/// as a typed [`OdoError`] instead of panicking or selecting from tampered
/// data.
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
    run_fallible(store, policy, |s| select_kth(s, h, cache_elems, k))
        .map(|((elem, report), retry)| (elem, report, retry))
        .map_err(OdoError::from)
}

/// Computes the elements at every rank in `ranks` (each 0-based among the
/// occupied cells, stably sorted by key) in a single sort of a working copy:
/// `O((N/B)(1 + log²(N/M)))` I/Os for any number of quantiles, versus one
/// selection each. The trace depends only on the shape `(N, B, M)` — the
/// requested ranks steer private registers only — and the input array is left
/// unmodified. Returns the elements in the order of `ranks`.
///
/// # Panics
/// Panics if any rank is out of range, if `ranks.len() > cache_elems / 4`
/// (the latched quantiles must fit in private memory), or on the
/// [`obliv_net::external_oblivious_sort`] cache requirement
/// (`cache_elems ≥ 2B`).
pub fn quantiles<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    ranks: &[usize],
) -> (Vec<Element>, IoStats) {
    quantiles_with(store, h, cache_elems, ranks, &OblivSorter::Bitonic)
}

/// [`quantiles`] with an explicit [`OblivSorter`] strategy for the one big
/// sort of the working copy. With `OblivSorter::bucket(seed)` the quantile
/// pass drops from `O((N/B)·log²(N/M))` to `O((N/B)·log_{M/B}(N/B))` I/Os —
/// on this entry point the engine swap pays off the most, because the sort
/// *is* the algorithm.
///
/// # Panics
/// Same conditions as [`quantiles`], plus the engine's own requirements (see
/// [`crate::sorter::OblivSorter::sort_by`]).
pub fn quantiles_with<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    ranks: &[usize],
    sorter: &OblivSorter,
) -> (Vec<Element>, IoStats) {
    let start = store.io_stats();
    let b = h.block_elems();
    assert!(
        ranks.len() <= cache_elems / 4,
        "the requested quantiles must fit in the private cache"
    );
    let mut budget = CacheBudget::new(cache_elems);

    let (wrk, live) = build_working_copy(store, h, &mut budget);
    for &rk in ranks {
        assert!(rk < live, "rank {rk} out of range: {live} occupied");
    }

    // One oblivious sort; occupied working items now sit at their ranks.
    sorter.sort_by(store, &wrk, cache_elems, &cell_cmp_none_last);

    // Stream the sorted copy, latching each requested rank in a register.
    let mut picks: Vec<Cell> = vec![None; ranks.len()];
    hint_sweep(store, &wrk);
    for beta in 0..wrk.n_blocks() {
        budget.with(b + 2 * ranks.len(), |_| {
            let blk = store.load_block(&wrk, beta);
            for t in 0..b {
                let p = beta * b + t;
                for (slot, &rk) in ranks.iter().enumerate() {
                    if p == rk {
                        picks[slot] = blk.get(t);
                    }
                }
            }
        });
    }

    // Recovery pass over the untouched input: resurrect every winner's full
    // element by its original index, all in one stream.
    let mut out: Vec<Cell> = vec![None; ranks.len()];
    hint_sweep(store, h);
    for beta in 0..h.n_blocks() {
        budget.with(b + 2 * ranks.len(), |_| {
            let blk = store.load_block(h, beta);
            for t in 0..b {
                let j = beta * b + t;
                for (slot, pick) in picks.iter().enumerate() {
                    if pick.is_some_and(|w| w.payload as usize == j) {
                        out[slot] = blk.get(t);
                    }
                }
            }
        });
    }
    let elems = out
        .into_iter()
        .map(|c| c.expect("every requested rank resolves to an occupied cell"))
        .collect();
    (elems, store.io_stats() - start)
}

/// Advertises a full forward block sweep over `h` to the store. Every
/// streaming pass in this module reads blocks `0..n_blocks` in order, a
/// schedule fixed by the array shape alone, so hinting it leaks nothing.
fn hint_sweep<S: BlockStore>(store: &mut S, h: &ArrayHandle) {
    let schedule: Vec<usize> = (0..h.n_blocks()).collect();
    store.hint_blocks(h, &schedule);
}

/// The shared working pass of [`select_kth`] and [`quantiles`]: streams the
/// input once, replacing occupied cell `j` by the working item `(key, j)` in
/// a freshly allocated parallel array — a strict total order even under
/// duplicate keys, which is what lets the sampling bounds prune duplicates
/// apart. Dummies stay dummies (they sort after every working item and are
/// never sampled into a `lo` splitter). Returns the working array and the
/// occupied count.
fn build_working_copy<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    budget: &mut CacheBudget,
) -> (ArrayHandle, usize) {
    let b = h.block_elems();
    let n = h.len();
    let wrk = store.alloc_array(n);
    let mut live = 0usize;
    hint_sweep(store, h);
    for beta in 0..h.n_blocks() {
        budget.with(2 * b, |_| {
            let blk = store.load_block(h, beta);
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
            store.store_block(&wrk, beta, out);
        });
    }
    (wrk, live)
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
) -> (Cell, Cell) {
    let b = samples.block_elems();
    let len = samples.len();
    let mut lo: Cell = None;
    let mut hi: Cell = None;
    hint_sweep(store, samples);
    for beta in 0..samples.n_blocks() {
        budget.with(b, |_| {
            let blk = store.load_block(samples, beta);
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
        });
    }
    (lo, hi)
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
        select_kth(&mut mem, &h, m, k)
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
        select_kth(&mut mem, &h, 64, 200);
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
    #[should_panic(expected = "rank k out of range")]
    fn overlarge_rank_is_rejected() {
        let cells: Vec<Cell> = (0..100)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        run_select(&cells, 8, 512, 100);
    }

    #[test]
    #[should_panic(expected = "rank k out of range")]
    fn rank_counts_occupied_not_slots() {
        let mut cells: Vec<Cell> = vec![None; 600];
        cells[5] = Some(Element::keyed(1, 5));
        run_select(&cells, 8, 64, 1); // only one occupied cell
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
    #[should_panic(expected = "eight blocks")]
    fn tiny_cache_is_rejected_on_the_external_path() {
        let cells: Vec<Cell> = (0..4096)
            .map(|i| Some(Element::keyed(i as u64, i)))
            .collect();
        run_select(&cells, 64, 256, 5);
    }

    #[test]
    fn quantiles_match_repeated_selection() {
        let cells: Vec<Cell> = keyed_input(700, 5, 30).into_iter().map(Some).collect();
        let ranks = [0usize, 175, 350, 525, 699];
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let (got, io) = quantiles(&mut mem, &h, 64, &ranks);
        assert!(io.total() > 0);
        for (i, &rk) in ranks.iter().enumerate() {
            assert_eq!(got[i], oracle(&cells, rk), "rank {rk}");
        }
        // The input survives, as with selection.
        assert_eq!(mem.snapshot_cells(&h), cells);
    }

    #[test]
    fn bucket_engine_selects_identically_to_the_default() {
        let cells: Vec<Cell> = keyed_input(2048, 11, 64).into_iter().map(Some).collect();
        for k in [0usize, 777, 2047] {
            let mut mem = ExtMem::new(16);
            let h = mem.alloc_array_from_cells(&cells);
            let (got, report) = select_kth_with(&mut mem, &h, 256, k, &OblivSorter::bucket(13));
            assert_eq!(got, oracle(&cells, k), "k={k}");
            assert_eq!(report.rank, k);
            assert_eq!(cells[report.index], Some(got));
        }
    }

    #[test]
    fn quantiles_with_bucket_engine_matches_and_costs_less() {
        let n = 1usize << 13;
        let cells: Vec<Cell> = keyed_input(n, 3, 100).into_iter().map(Some).collect();
        let ranks = [0usize, 2000, n - 1];
        let mut mem = ExtMem::new(16);
        let h = mem.alloc_array_from_cells(&cells);
        let (bit, io_bit) = quantiles(&mut mem, &h, 256, &ranks);
        let mut mem = ExtMem::new(16);
        let h = mem.alloc_array_from_cells(&cells);
        let (bkt, io_bkt) = quantiles_with(&mut mem, &h, 256, &ranks, &OblivSorter::bucket(4));
        assert_eq!(bit, bkt);
        assert!(
            io_bkt.total() < io_bit.total(),
            "bucket {} >= bitonic {} at N/M = 32",
            io_bkt.total(),
            io_bit.total()
        );
    }

    #[test]
    fn quantiles_trace_is_rank_independent() {
        let cells: Vec<Cell> = keyed_input(512, 2, 40).into_iter().map(Some).collect();
        let trace_of = |ranks: &[usize]| {
            let mut mem = ExtMem::with_trace(8);
            let h = mem.alloc_array_from_cells(&cells);
            quantiles(&mut mem, &h, 64, ranks);
            mem.take_trace().unwrap()
        };
        let a = trace_of(&[0, 256, 511]);
        let b = trace_of(&[17, 100, 400]);
        extmem::trace::assert_oblivious(&a, &b, "quantiles rank sets");
    }
}

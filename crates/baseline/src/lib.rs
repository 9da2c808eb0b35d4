//! # odo-baseline — naive reference algorithms for the benchmark harness
//!
//! The algorithms here are *correct and data-oblivious but deliberately
//! unoptimized*: they realise the paper's constructions the way a first,
//! direct translation would, so `odo-bench` can quantify exactly how much
//! each I/O optimization in the main crates buys.
//!
//! Currently:
//!
//! * [`naive_external_bitonic_sort`] — the full-depth external bitonic sort.
//!   It executes every one of the `Θ(log² N)` compare-exchange levels of the
//!   bitonic network as its own external pass over the array — no in-cache
//!   finishing of small sub-problems, no fusing of levels — so it costs
//!   `Θ((N/B) log² N)` I/Os, versus the optimized sorter's
//!   `O((N/B)(1 + log²(N/M)))`.
//! * [`naive_external_butterfly_compact`] — the full-depth external butterfly
//!   compaction (paper §3). It computes the distance labels with a
//!   streaming rank pass (the running rank the optimized head window
//!   counts), stores them in a scratch array, and then executes
//!   every one of the `⌈log₂ N⌉` routing levels as its own external
//!   block-pair pass — no composition of the small-stride levels inside the
//!   private cache — so it costs `Θ((N/B) log N)` I/Os, versus
//!   `odo-core::compact`'s `O((N/B)(1 + log_{M/B}(N/M)))`.
//! * [`naive_select_kth`] — sort-then-index selection (paper §4's strawman):
//!   full-depth bitonic sort of a working copy, then a streaming pass that
//!   latches the `k`-th cell and one more that recovers the original element
//!   — `Θ((N/B) log² N)` I/Os, versus `odo-core::select`'s filtering rounds,
//!   `O((N/B)(1 + log(N/M)))`. Same contract as the
//!   optimized algorithm: rank by key, ties broken by original position,
//!   trace independent of data and of `k`, input left unmodified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use extmem::element::Cell;
use extmem::{ArrayHandle, Block, BlockCache, BlockStore, Element, ExtMem, IoStats, StoreError};
use obliv_net::butterfly;
use obliv_net::exchange_dir_by;
use obliv_net::external_sort::SortOrder;
use std::cmp::Ordering;

/// Why the naive algorithms may expect their block I/Os to succeed: they run
/// over the honest in-memory [`ExtMem`] and address only their own arrays.
const EXTMEM_IO: &str = "in-range ExtMem block I/O cannot fail";

/// What the naive sort did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NaiveSortReport {
    /// I/Os charged to this sort.
    pub io: IoStats,
    /// Number of compare-exchange levels executed, each as one full external
    /// pass (`Σ_{k} log2(k) = log p (log p + 1)/2` for padded length `p`).
    pub levels: usize,
    /// Whether the input was padded to a power of two via a scratch array.
    pub padded: bool,
}

/// Sorts array `h` by key (dummies last) with the full-depth external
/// bitonic sort: every level of the network is one pass over the blocks.
///
/// Data-oblivious like the optimized sorter — every cell is rewritten
/// unconditionally, so the trace is a function of the shape only — just
/// expensive. `cache_elems` bounds the LRU block cache used per pass.
pub fn naive_external_bitonic_sort(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
) -> NaiveSortReport {
    use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};
    match order {
        SortOrder::Ascending => {
            naive_external_bitonic_sort_by(mem, h, cache_elems, &cell_cmp_none_last)
        }
        SortOrder::Descending => {
            naive_external_bitonic_sort_by(mem, h, cache_elems, &cell_cmp_none_last_desc)
        }
    }
}

/// [`naive_external_bitonic_sort`] with a custom total order on cells. For
/// non-power-of-two lengths `cmp` must order dummies after occupied cells
/// (the sort pads through a dummy-filled scratch array).
pub fn naive_external_bitonic_sort_by<F>(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
    cmp: &F,
) -> NaiveSortReport
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = h.block_elems();
    assert!(
        cache_elems >= 2 * b,
        "external sort needs a private cache of at least two blocks (M >= 2B)"
    );
    let start = mem.stats();
    let mut report = sort_padded(mem, h, cache_elems, cmp).expect(EXTMEM_IO);
    report.io = mem.stats() - start;
    report
}

/// Sorts `h` in place, through a dummy-padded power-of-two scratch array
/// when its length is not a power of two.
fn sort_padded<F>(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
    cmp: &F,
) -> Result<NaiveSortReport, StoreError>
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let n = h.len();
    let p = n.next_power_of_two();
    if n <= 1 || p == n {
        return sort_pow2(mem, h, cache_elems, cmp);
    }
    let scratch = mem.alloc_array(p);
    for i in 0..h.n_blocks() {
        let blk = mem.try_load_block(h, i)?;
        mem.try_store_block(&scratch, i, blk)?;
    }
    let mut r = sort_pow2(mem, &scratch, cache_elems, cmp)?;
    for i in 0..h.n_blocks() {
        let blk = mem.try_load_block(&scratch, i)?;
        mem.try_store_block(h, i, blk)?;
    }
    r.padded = true;
    Ok(r)
}

fn sort_pow2<F>(
    mem: &mut ExtMem,
    a: &ArrayHandle,
    cache_elems: usize,
    cmp: &F,
) -> Result<NaiveSortReport, StoreError>
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = a.block_elems();
    let p = a.len();
    let m_blocks = (cache_elems / b).max(2);
    let mut levels = 0;
    let mut k = 2;
    while k <= p {
        let mut s = k / 2;
        while s >= 1 {
            let mut cache = BlockCache::new(mem, *a, m_blocks);
            level_pass(&mut cache, p, s, k, cmp)?;
            levels += 1;
            s /= 2;
        }
        k *= 2;
    }
    Ok(NaiveSortReport {
        io: IoStats::default(),
        levels,
        padded: false,
    })
}

/// One full external pass for level `(k, s)`, at element granularity
/// through the block cache. Unconditional writes keep every touched block
/// dirty and the trace shape-determined.
fn level_pass<F>(
    cache: &mut BlockCache<'_>,
    p: usize,
    s: usize,
    k: usize,
    cmp: &F,
) -> Result<(), StoreError>
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    for i in 0..p {
        if i & s == 0 {
            let l = i | s;
            let asc = i & k == 0;
            let (u, v) = (cache.read(i)?, cache.read(l)?);
            let (lo, hi) = exchange_dir_by(u, v, asc, cmp);
            cache.write(i, lo)?;
            cache.write(l, hi)?;
        }
    }
    cache.flush()
}

/// What the naive compaction did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NaiveCompactReport {
    /// I/Os charged to this compaction.
    pub io: IoStats,
    /// Number of butterfly levels executed, each as one full external pass.
    pub levels: usize,
    /// Number of occupied cells (the compacted prefix length).
    pub occupied: usize,
}

/// Full-depth external butterfly compaction: occupied cells move to the
/// front of `h` preserving their relative order, with every routing level of
/// the §3 network run as its own external block-pair pass.
///
/// Data-oblivious like the optimized compaction — the pair sweep and the
/// unconditional rewrites make the trace a function of the shape only — just
/// expensive: `Θ((N/B) log N)` I/Os with no in-cache level composition.
///
/// # Panics
/// Panics if `cache_elems < 4·B` or if `B` is not a power of two (the same
/// block-alignment restriction as the optimized external path).
pub fn naive_external_butterfly_compact(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
) -> NaiveCompactReport {
    let b = h.block_elems();
    assert!(
        cache_elems >= 4 * b,
        "naive compaction needs a private cache of at least four blocks (M >= 4B)"
    );
    assert!(
        b.is_power_of_two(),
        "external butterfly compaction requires a power-of-two block size"
    );
    let start = mem.stats();
    let (levels, occupied) = route_levels(mem, h).expect(EXTMEM_IO);
    NaiveCompactReport {
        io: mem.stats() - start,
        levels,
        occupied,
    }
}

/// The labelling pass and the routing levels of
/// [`naive_external_butterfly_compact`]; returns the level count and the
/// occupied count.
fn route_levels(mem: &mut ExtMem, h: &ArrayHandle) -> Result<(usize, usize), StoreError> {
    let b = h.block_elems();
    let n = h.len();
    let lv = butterfly::levels(n);
    if lv == 0 {
        return Ok((0, mem.try_load_block(h, 0)?.occupancy().min(n)));
    }

    // Distance-label pass: occupied cell j gets label j - rank(j) in a
    // parallel scratch array (the optimized algorithm keeps no labels: each
    // of its sweeps recomputes them from ranks in cache).
    let dist = mem.alloc_array(n);
    let mut rank = 0usize;
    for beta in 0..h.n_blocks() {
        let blk = mem.try_load_block(h, beta)?;
        let mut lab = Block::empty(b);
        for r in 0..b {
            let j = beta * b + r;
            if j >= n {
                break;
            }
            if blk.get(r).is_some() {
                lab.set(r, Some(Element::new((j - rank) as u64, 0)));
                rank += 1;
            }
        }
        mem.try_store_block(&dist, beta, lab)?;
    }

    // Every level is one external pass. Wires of stride s < B live inside a
    // window of two consecutive blocks; wires of stride s ≥ B connect equal
    // offsets of blocks (β, β + s/B). Either way: label pair first (decides
    // and clears), then data pair, all writes unconditional.
    for i in 0..lv {
        let s = 1usize << i;
        let nb = h.n_blocks();
        let k = (s / b).max(1);
        if s >= b && k >= nb {
            continue; // no wire of this stride fits the array
        }
        for beta in 0..nb.saturating_sub(k) {
            let mut mask = vec![false; 2 * b]; // source offsets within the pair
            mem.try_modify_pair(&dist, beta, beta + k, |lo_blk, hi_blk| {
                for r in 0..b {
                    // Destination j = beta*b + r; source j + s sits at pair
                    // offset r + s (s < B keeps it inside the two blocks;
                    // s >= B aligns it to offset r of the high block).
                    let off = if s < b { r + s } else { r + b };
                    let src = if off < b {
                        lo_blk.get(off)
                    } else {
                        hi_blk.get(off - b)
                    };
                    if let Some(d_el) = src {
                        if d_el.key & s as u64 != 0 {
                            let dst = lo_blk.get(r);
                            assert!(dst.is_none(), "butterfly routing collision");
                            mask[off] = true;
                            lo_blk.set(r, Some(Element::new(d_el.key - s as u64, 0)));
                            if off < b {
                                lo_blk.set(off, None);
                            } else {
                                hi_blk.set(off - b, None);
                            }
                        }
                    }
                }
            })?;
            mem.try_modify_pair(h, beta, beta + k, |lo_blk, hi_blk| {
                for r in 0..b {
                    let off = if s < b { r + s } else { r + b };
                    if mask[off] {
                        let src = if off < b {
                            lo_blk.get(off)
                        } else {
                            hi_blk.get(off - b)
                        };
                        lo_blk.set(r, src);
                        if off < b {
                            lo_blk.set(off, None);
                        } else {
                            hi_blk.set(off - b, None);
                        }
                    }
                }
            })?;
        }
        // Wires whose destination lies in the last k blocks have no pair
        // partner; for s < B their intra-block hops still need one
        // read-modify-write of the final block.
        if s < b {
            let beta = nb - 1;
            let mut mask = vec![false; b];
            let mut lab = mem.try_load_block(&dist, beta)?;
            for r in 0..b.saturating_sub(s) {
                if let Some(d_el) = lab.get(r + s) {
                    if d_el.key & s as u64 != 0 {
                        assert!(lab.get(r).is_none(), "butterfly routing collision");
                        mask[r + s] = true;
                        lab.set(r, Some(Element::new(d_el.key - s as u64, 0)));
                        lab.set(r + s, None);
                    }
                }
            }
            mem.try_store_block(&dist, beta, lab)?;
            let mut blk = mem.try_load_block(h, beta)?;
            for r in 0..b.saturating_sub(s) {
                if mask[r + s] {
                    blk.set(r, blk.get(r + s));
                    blk.set(r + s, None);
                }
            }
            mem.try_store_block(h, beta, blk)?;
        }
    }
    Ok((lv, rank))
}

/// What the naive selection did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NaiveSelectReport {
    /// I/Os charged to this selection.
    pub io: IoStats,
    /// Compare-exchange levels the underlying full-depth sort executed.
    pub levels: usize,
    /// Original array index of the selected element.
    pub index: usize,
}

/// Naive sort-then-index selection: builds a working copy of
/// `(key, original index)` items, sorts it with the full-depth external
/// bitonic sort, and streams the result to latch the `k`-th cell — then
/// streams the untouched input once more to recover the full element, so the
/// winning position never shapes the trace. Data- and rank-oblivious like
/// `odo-core::select`, just expensive: `Θ((N/B) log² N)` I/Os.
///
/// # Panics
/// Panics if `k` is not smaller than the number of occupied cells, or if
/// `cache_elems < 2·B`.
pub fn naive_select_kth(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
) -> (Element, NaiveSelectReport) {
    let start = mem.stats();
    let (found, levels, index) = select_by_sorting(mem, h, cache_elems, k).expect(EXTMEM_IO);
    (
        found,
        NaiveSelectReport {
            io: mem.stats() - start,
            levels,
            index,
        },
    )
}

/// The passes of [`naive_select_kth`]; returns the element, the sort's
/// level count and the element's original index.
fn select_by_sorting(
    mem: &mut ExtMem,
    h: &ArrayHandle,
    cache_elems: usize,
    k: usize,
) -> Result<(Element, usize, usize), StoreError> {
    use extmem::element::cell_cmp_none_last;
    let b = h.block_elems();
    let n = h.len();

    // Working copy (key, original index): a strict total order under
    // duplicate keys, matching the optimized algorithm's contract.
    let wrk = mem.alloc_array(n);
    let mut live = 0usize;
    for beta in 0..h.n_blocks() {
        let blk = mem.try_load_block(h, beta)?;
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
        mem.try_store_block(&wrk, beta, out)?;
    }
    assert!(k < live, "rank k out of range: k={k} >= {live} occupied");

    let sort = naive_external_bitonic_sort_by(mem, &wrk, cache_elems, &cell_cmp_none_last);

    // Latch the k-th cell of the sorted copy in a register (never a
    // rank-addressed read).
    let mut winner: Cell = None;
    for beta in 0..wrk.n_blocks() {
        let blk = mem.try_load_block(&wrk, beta)?;
        for t in 0..b {
            if beta * b + t == k {
                winner = blk.get(t);
            }
        }
    }
    let idx = winner
        .expect("rank k is within the occupied prefix")
        .payload as usize;

    // Recover the full original element by streaming the untouched input.
    let mut found: Cell = None;
    for beta in 0..h.n_blocks() {
        let blk = mem.try_load_block(h, beta)?;
        for t in 0..b {
            if beta * b + t == idx {
                found = blk.get(t);
            }
        }
    }
    Ok((
        found.expect("the selected index holds an occupied cell"),
        sort.levels,
        idx,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed_input(n: usize, salt: u64) -> Vec<Element> {
        (0..n)
            .map(|i| Element::keyed(extmem::util::hash64(i as u64, salt) % 997, i))
            .collect()
    }

    #[test]
    fn sorts_correctly() {
        for (n, b, m) in [(64usize, 4usize, 16usize), (256, 8, 64), (100, 8, 32)] {
            let mut mem = ExtMem::new(b);
            let input = keyed_input(n, 1);
            let h = mem.alloc_array_from_elements(&input);
            naive_external_bitonic_sort(&mut mem, &h, m, SortOrder::Ascending);
            let mut expected = input;
            expected.sort_unstable();
            assert_eq!(mem.snapshot_elements(&h), expected);
        }
    }

    #[test]
    fn executes_full_depth_levels() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_elements(&keyed_input(256, 2));
        let report = naive_external_bitonic_sort(&mut mem, &h, 32, SortOrder::Ascending);
        // log p = 8 → 8·9/2 = 36 levels, each one read+write pass over 32
        // blocks.
        assert_eq!(report.levels, 36);
        assert_eq!(report.io.total(), 36 * 2 * 32);
    }

    #[test]
    fn descending_works() {
        let mut mem = ExtMem::new(4);
        let input = keyed_input(32, 9);
        let h = mem.alloc_array_from_elements(&input);
        naive_external_bitonic_sort(&mut mem, &h, 16, SortOrder::Descending);
        let mut expected = input;
        expected.sort_unstable();
        expected.reverse();
        assert_eq!(mem.snapshot_elements(&h), expected);
    }

    fn sparse_cells(n: usize, salt: u64) -> Vec<Cell> {
        (0..n)
            .map(|i| {
                if extmem::util::hash64(i as u64, salt).is_multiple_of(3) {
                    Some(Element::keyed(i as u64, i))
                } else {
                    None
                }
            })
            .collect()
    }

    #[test]
    fn naive_compact_matches_reference() {
        for (n, b, m) in [
            (64usize, 4usize, 16usize),
            (256, 8, 64),
            (100, 4, 16),
            (7, 8, 32), // single block
        ] {
            for salt in [1u64, 2, 3] {
                let cells = sparse_cells(n, salt);
                let mut mem = ExtMem::new(b);
                let h = mem.alloc_array_from_cells(&cells);
                let report = naive_external_butterfly_compact(&mut mem, &h, m);
                let mut expected: Vec<Cell> =
                    cells.iter().filter(|c| c.is_some()).copied().collect();
                expected.resize(n, None);
                assert_eq!(mem.snapshot_cells(&h), expected, "N={n} B={b} M={m}");
                assert_eq!(report.levels, butterfly::levels(n));
                assert_eq!(
                    report.occupied,
                    cells.iter().filter(|c| c.is_some()).count()
                );
            }
        }
    }

    #[test]
    fn naive_select_matches_stable_sort_reference() {
        for (n, b, m) in [(256usize, 8usize, 32usize), (500, 16, 64)] {
            let input: Vec<Element> = (0..n)
                .map(|i| Element::keyed(extmem::util::hash64(i as u64, 3) % 40, i * 2))
                .collect();
            let mut reference: Vec<(u64, usize)> =
                input.iter().enumerate().map(|(j, e)| (e.key, j)).collect();
            reference.sort_unstable();
            for k in [0, n / 2, n - 1] {
                let mut mem = ExtMem::new(b);
                let h = mem.alloc_array_from_elements(&input);
                let (got, report) = naive_select_kth(&mut mem, &h, m, k);
                let (key, j) = reference[k];
                assert_eq!(got, input[j], "N={n} k={k}");
                assert_eq!(got.key, key);
                assert_eq!(report.index, j);
                assert!(report.io.total() > 0);
                // Selection must not disturb the input.
                assert_eq!(mem.snapshot_elements(&h), input);
            }
        }
    }

    #[test]
    fn naive_select_trace_is_independent_of_k_and_data() {
        let trace_of = |salt: u64, k: usize| {
            let input = keyed_input(128, salt);
            let mut mem = ExtMem::with_trace(8);
            let h = mem.alloc_array_from_elements(&input);
            naive_select_kth(&mut mem, &h, 32, k);
            mem.take_trace().unwrap()
        };
        let reference = trace_of(1, 0);
        for (salt, k) in [(1u64, 127usize), (2, 64), (9, 3)] {
            assert_eq!(reference, trace_of(salt, k), "salt={salt} k={k}");
        }
    }

    #[test]
    fn naive_compact_executes_full_depth() {
        // Every level is an external pass: the I/O count scales with log N,
        // not log(N/M), no matter how large the cache is.
        let cells = sparse_cells(256, 5);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let report = naive_external_butterfly_compact(&mut mem, &h, 1 << 16);
        assert_eq!(report.levels, 8);
        // Label pass: 32 reads + 32 writes. Each of the 8 levels rewrites
        // label and data pairs across the whole array.
        assert!(report.io.total() > 8 * 2 * 32);
    }
}

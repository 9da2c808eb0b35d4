//! The paper's **Lemma 2** substitute: a deterministic data-oblivious
//! external-memory sort costing `O((N/B)(1 + log²(N/M)))` I/Os.
//!
//! # Algorithm
//!
//! The sorter is a block-strided bitonic sort over an array held by any
//! [`BlockStore`] backend — the plaintext [`extmem::ExtMem`] arena or the
//! re-encrypting [`extmem::EncryptedStore`], with identical traces and I/O
//! counts either way. The
//! classic bitonic network on `p = 2^ℓ` wires runs stages of sequence length
//! `k = 2, 4, …, p`; stage `k` executes compare-exchange levels of stride
//! `s = k/2, k/4, …, 1`, where level `(k, s)` pairs `i` with `i ⊕ s` and
//! merges ascending exactly when bit `k` of `i` is clear. Run naively, every
//! one of the `O(log² p)` levels is a full pass over the array — `Θ(N/B)`
//! block reads plus writes each — which is what the `baseline` crate does and
//! what this module's two I/O optimizations collapse:
//!
//! 1. **In-cache finishing.** Let `F` be the largest power-of-two region
//!    size guaranteed to fit in the `M`-word private cache. Every level with
//!    stride `s ≤ F/2` operates entirely inside aligned `F`-element regions,
//!    so the tail of every merge (all levels with stride `< F`) is executed
//!    by loading each region once, finishing the remaining compare-exchange
//!    levels CPU-side ([`bitonic_merge_pow2_by`]), and writing the region
//!    back: one read pass plus one write pass per stage instead of
//!    `log F` block passes. The same trick presorts each `F`-region up
//!    front ([`bitonic_sort_pow2_by`] in cache), replacing the first
//!    `log F` stages — `O(log² F)` levels — with a single pass.
//! 2. **Stride batching.** An external level with block-aligned stride
//!    (`B | s`) touches each block in exactly one block pair `(β, β + s/B)`.
//!    All `B` element compare-exchanges that touch that pair are fused into
//!    a single read-modify-write round trip via
//!    [`BlockStore::try_modify_pair`]: 2 reads + 2 writes per pair, i.e.
//!    `2·(N/B)` I/Os for the whole level — never one round trip per element.
//!    Non-aligned strides (only possible when `B` is not a power of two)
//!    fall back to an LRU [`BlockCache`] sweep with the same `2·(N/B)`
//!    asymptotics.
//!
//! # I/O count
//!
//! With `F = Θ(M)` the external levels of stage `k` are the strides
//! `k/2 … F`, so stage `F·2^t` costs `t` external passes plus one finishing
//! pass, and the presort is one more pass. Writing `P = 2·⌈N/B⌉` I/Os per
//! pass, the total is
//!
//! ```text
//! P · (1 + Σ_{t=1}^{log(N/M)} (t + 1))  =  O((N/B)(1 + log²(N/M)))
//! ```
//!
//! matching Lemma 2. Every access is a fixed function of `(N, B, M)` — block
//! reads in static loops, compare-exchanges hidden inside the private cache —
//! so the server-visible trace is identical for any two same-shape inputs;
//! the obliviousness test-suite asserts this byte-for-byte.
//!
//! # Measured
//!
//! `odo-bench` (see `BENCH_sort.json`) measures, at
//! `N = 2^18, B = 64, M = 2^13`: **172,032** total I/Os for this sorter
//! versus **1,400,832** for the naive full-depth baseline — an **8.1×**
//! reduction, against a bound of `4·(N/B)(1 + ⌈log2(N/M)⌉²) = 425,984`.

use crate::bitonic::{bitonic_merge_pow2_by, bitonic_sort_pow2_by};
use crate::compare::exchange_dir_by;
use extmem::element::Cell;
use extmem::{ArrayHandle, BlockCache, BlockStore, CacheBudget, IoStats, StoreError};
use std::cmp::Ordering;

/// Direction of a sort: which cell comparator a façade such as
/// `odo_core::try_sort` hands to [`try_external_oblivious_sort_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Keys ascending; dummy (empty) cells sort after every occupied cell.
    Ascending,
    /// Keys descending; dummy (empty) cells still sort after every occupied
    /// cell.
    Descending,
}

/// What an external sort did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortReport {
    /// I/Os charged to this sort (reads + writes deltas).
    pub io: IoStats,
    /// The in-cache region size `F` in elements (a power of two `≤ M`).
    pub region_elems: usize,
    /// Number of regions presorted entirely inside the private cache.
    pub presort_regions: usize,
    /// Number of external compare-exchange levels executed as block passes.
    pub external_levels: usize,
    /// Number of in-cache finishing passes (one per merge stage).
    pub finish_passes: usize,
    /// Whether the input was padded to a power of two via a scratch array.
    pub padded: bool,
}

/// Sorts array `h` by the total order `cmp` on cells, using at most
/// `cache_elems` words of private memory, and returns the [`SortReport`].
/// [`cell_cmp_none_last`](extmem::element::cell_cmp_none_last) and
/// [`cell_cmp_none_last_desc`](extmem::element::cell_cmp_none_last_desc)
/// sort by key ascending or descending, dummies last.
///
/// Generic over the [`BlockStore`] backend: the identical algorithm —
/// identical address trace, identical I/O count — runs over a plaintext
/// [`extmem::ExtMem`] arena or an [`extmem::EncryptedStore`] (the `odo-bench`
/// harness asserts the zero-extra-I/O property at every grid point).
///
/// When `h.len()` is not a power of two the sort pads into a scratch array
/// whose extra slots are dummies; `cmp` must therefore order every dummy
/// (`None`) cell after every occupied cell, or elements may be truncated on
/// copy-back. Power-of-two lengths accept any total order.
///
/// Returns the first error: `cache_elems < 2·B` (the paper's minimal
/// `M ≥ 2B` regime) as [`StoreError::InvalidArgument`] before any I/O, else
/// the first failed block I/O, after which the contents of `h` (and of the
/// scratch array, for non-power-of-two lengths) are unspecified. Transient
/// errors are not retried here; wrap the store in an
/// [`extmem::RetryingStore`] for that, as `odo_core::try_sort` does.
pub fn try_external_oblivious_sort_by<S, F>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    cmp: &F,
) -> Result<SortReport, StoreError>
where
    S: BlockStore,
    F: Fn(&Cell, &Cell) -> Ordering,
{
    if cache_elems < 2 * h.block_elems() {
        return Err(StoreError::InvalidArgument {
            reason: "external sort needs a private cache of at least two blocks (M >= 2B)",
        });
    }
    let start = store.io_stats();
    let n = h.len();
    if n <= 1 {
        return Ok(SortReport {
            io: store.io_stats() - start,
            region_elems: n.max(1),
            presort_regions: 0,
            external_levels: 0,
            finish_passes: 0,
            padded: false,
        });
    }
    let p = n.next_power_of_two();
    let mut report = if p == n {
        sort_pow2(store, h, cache_elems, cmp)?
    } else {
        // Pad into a fresh power-of-two scratch array (its tail slots are
        // dummies), sort, and stream the first ⌈n/B⌉ blocks back. The extra
        // cost is O(N/B) and the whole detour is shape-determined.
        let scratch = store.alloc_array(p);
        for i in 0..h.n_blocks() {
            let blk = store.try_load_block(h, i)?;
            store.try_store_block(&scratch, i, blk)?;
        }
        let mut r = sort_pow2(store, &scratch, cache_elems, cmp)?;
        for i in 0..h.n_blocks() {
            let blk = store.try_load_block(&scratch, i)?;
            store.try_store_block(h, i, blk)?;
        }
        r.padded = true;
        r
    };
    report.io = store.io_stats() - start;
    Ok(report)
}

/// Core sorter for an array of exactly `p` (a power of two ≥ 2) slots.
fn sort_pow2<S, F>(
    store: &mut S,
    a: &ArrayHandle,
    cache_elems: usize,
    cmp: &F,
) -> Result<SortReport, StoreError>
where
    S: BlockStore,
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = a.block_elems();
    let p = a.len();
    let f0 = in_cache_region(p, b, cache_elems);
    let mut budget = CacheBudget::new(cache_elems);
    let mut report = SortReport {
        io: IoStats::default(),
        region_elems: f0,
        presort_regions: p / f0,
        external_levels: 0,
        finish_passes: 0,
        padded: false,
    };

    // Phase 1 — presort: each f0-region is fully sorted inside the private
    // cache, alternating directions so adjacent region pairs form bitonic
    // sequences (region g ascending iff g is even; with a single region this
    // is the final ascending sort).
    for g in 0..p / f0 {
        in_cache_pass(store, a, &mut budget, g * f0, f0, |cells| {
            bitonic_sort_pow2_by(cells, g % 2 == 0, cmp);
        })?;
    }

    // Phase 2 — merge stages k = 2·f0 … p. External strided levels first,
    // then one in-cache finishing pass executes every remaining level
    // (strides f0/2 … 1) of the stage.
    let mut k = 2 * f0;
    while k <= p {
        let mut s = k / 2;
        while s >= f0 {
            external_level(store, a, &mut budget, cache_elems, s, k, cmp)?;
            report.external_levels += 1;
            s /= 2;
        }
        for g in 0..p / f0 {
            let lo = g * f0;
            let asc = lo & k == 0;
            in_cache_pass(store, a, &mut budget, lo, f0, |cells| {
                bitonic_merge_pow2_by(cells, asc, cmp);
            })?;
        }
        report.finish_passes += 1;
        k *= 2;
    }
    Ok(report)
}

/// One external compare-exchange level: stride `s`, stage `k`.
fn external_level<S, F>(
    store: &mut S,
    a: &ArrayHandle,
    budget: &mut CacheBudget,
    cache_elems: usize,
    s: usize,
    k: usize,
    cmp: &F,
) -> Result<(), StoreError>
where
    S: BlockStore,
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = a.block_elems();
    let p = a.len();
    if s.is_multiple_of(b) {
        // Stride batching fast path: the stride is block-aligned, so every
        // block belongs to exactly one pair (β, β + s/B) and all B element
        // compare-exchanges on that pair fuse into one read-modify-write
        // round trip. 2·(N/B) I/Os for the level.
        //
        // The whole level's read schedule is a function of (p, b, s) alone,
        // so announce it up front: a prefetching store overlaps the reads
        // with the compare-exchange work, every other store ignores it.
        let nb = p / b;
        let mut schedule = Vec::with_capacity(nb);
        for beta in 0..nb {
            if (beta * b) & s == 0 {
                schedule.push(beta);
                schedule.push(beta + s / b);
            }
        }
        store.hint_blocks(a, &schedule);
        for beta in 0..nb {
            let base = beta * b;
            if base & s == 0 {
                let partner = beta + s / b;
                let asc = base & k == 0;
                budget.with(2 * b, |_| {
                    store.try_modify_pair(a, beta, partner, |x, y| {
                        for j in 0..b {
                            let (lo, hi) = exchange_dir_by(x.get(j), y.get(j), asc, cmp);
                            x.set(j, lo);
                            y.set(j, hi);
                        }
                    })
                })?;
            }
        }
        Ok(())
    } else {
        // General path: an LRU block-cache sweep over the data-independent
        // pair sequence. Cells are written unconditionally so every touched
        // block is dirtied and written back — the trace stays a function of
        // shape alone.
        let m_blocks = (cache_elems / b).max(2);
        // First-touch order over the pair sequence is (near-)ascending in
        // block index; the ascending hint covers every block the sweep reads.
        let schedule: Vec<usize> = (0..p.div_ceil(b)).collect();
        store.hint_blocks(a, &schedule);
        budget.with(m_blocks * b, |_| {
            let mut cache = BlockCache::new(store, *a, m_blocks);
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
        })
    }
}

/// Loads the aligned region `[lo, lo + f)` into the private cache, applies
/// `work` CPU-side (free in the I/O model), and stores the region back.
fn in_cache_pass<S: BlockStore>(
    store: &mut S,
    a: &ArrayHandle,
    budget: &mut CacheBudget,
    lo: usize,
    f: usize,
    work: impl FnOnce(&mut [Cell]),
) -> Result<(), StoreError> {
    let b = a.block_elems();
    budget.with(span_blocks(f, b) * b, |_| {
        let mut cells = store.try_load_span(a, lo, lo + f)?;
        work(&mut cells);
        store.try_store_span(a, lo, &cells)
    })
}

/// Largest power-of-two region size `F ≤ p` whose worst-case block span is
/// guaranteed to fit in `cache_elems` words of private memory. Always ≥ 2
/// given `cache_elems ≥ 2B`.
fn in_cache_region(p: usize, b: usize, cache_elems: usize) -> usize {
    let mut best = 2;
    let mut f = 4;
    while f <= p && span_blocks(f, b) * b <= cache_elems {
        best = f;
        f *= 2;
    }
    best.min(p)
}

/// Conservative worst-case number of blocks an aligned `f`-element region can
/// span (exact `f/B` when `B | f`, since aligned region starts are then block
/// starts).
fn span_blocks(f: usize, b: usize) -> usize {
    if f.is_multiple_of(b) {
        f / b
    } else {
        f / b + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};
    use extmem::{Element, ExtMem};

    fn sort_in(
        mem: &mut ExtMem,
        h: &ArrayHandle,
        m: usize,
        order: SortOrder,
    ) -> Result<SortReport, StoreError> {
        match order {
            SortOrder::Ascending => try_external_oblivious_sort_by(mem, h, m, &cell_cmp_none_last),
            SortOrder::Descending => {
                try_external_oblivious_sort_by(mem, h, m, &cell_cmp_none_last_desc)
            }
        }
    }

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    fn keyed_input(n: usize, salt: u64) -> Vec<Element> {
        (0..n)
            .map(|i| Element::keyed(extmem::util::hash64(i as u64, salt) % 1000, i))
            .collect()
    }

    fn run_sort(
        n: usize,
        b: usize,
        m: usize,
        salt: u64,
    ) -> (Vec<Element>, SortReport, Vec<Element>) {
        let mut mem = ExtMem::new(b);
        let input = keyed_input(n, salt);
        let h = mem.alloc_array_from_elements(&input);
        let report = sort_in(&mut mem, &h, m, SortOrder::Ascending).unwrap();
        (mem.snapshot_elements(&h), report, input)
    }

    #[test]
    fn sorts_across_shapes() {
        for (n, b, m) in [
            (64usize, 4usize, 16usize),
            (256, 8, 32),
            (1024, 16, 128),
            (100, 7, 21), // non-power-of-two everything
            (33, 5, 15),
            (512, 64, 128), // single in-cache region
        ] {
            let (got, report, input) = run_sort(n, b, m, 42);
            let mut expected = input.clone();
            expected.sort_unstable();
            assert_eq!(got, expected, "failed for N={n} B={b} M={m}");
            assert!(report.io.total() > 0);
        }
    }

    #[test]
    fn descending_order_reverses() {
        let mut mem = ExtMem::new(8);
        let input = keyed_input(128, 7);
        let h = mem.alloc_array_from_elements(&input);
        sort_in(&mut mem, &h, 32, SortOrder::Descending).unwrap();
        let got = mem.snapshot_elements(&h);
        let mut expected = input;
        expected.sort_unstable();
        expected.reverse();
        assert_eq!(got, expected);
    }

    #[test]
    fn dummies_sort_to_the_end() {
        let mut mem = ExtMem::new(4);
        let cells: Vec<Cell> = vec![
            None,
            Some(e(5)),
            None,
            Some(e(1)),
            Some(e(9)),
            None,
            Some(e(3)),
            None,
            None,
            Some(e(2)),
        ];
        let h = mem.alloc_array_from_cells(&cells);
        sort_in(&mut mem, &h, 8, SortOrder::Ascending).unwrap();
        let got = mem.snapshot_cells(&h);
        assert_eq!(
            got[..5],
            [Some(e(1)), Some(e(2)), Some(e(3)), Some(e(5)), Some(e(9))]
        );
        assert!(got[5..].iter().all(|c| c.is_none()));
    }

    #[test]
    fn trivial_inputs_cost_nothing() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_elements(&[e(1)]);
        let report = sort_in(&mut mem, &h, 8, SortOrder::Ascending).unwrap();
        assert_eq!(report.io.total(), 0);
    }

    #[test]
    fn report_counts_match_structure() {
        // N = 256, B = 8, M = 32 → F = 32, p/F = 8 regions,
        // stages k = 64..256 → external levels 1+2+3 = 6, finishing 3.
        let (_, report, _) = run_sort(256, 8, 32, 3);
        assert_eq!(report.region_elems, 32);
        assert_eq!(report.presort_regions, 8);
        assert_eq!(report.external_levels, 6);
        assert_eq!(report.finish_passes, 3);
        assert!(!report.padded);
        // Every pass is 2·(N/B) = 64 I/Os: presort + 6 external + 3 finish.
        assert_eq!(report.io.total(), 64 * 10);
    }

    #[test]
    fn io_count_is_quasilinear_not_full_depth() {
        // Whole input fits in cache: exactly one read + one write pass.
        let (_, report, _) = run_sort(256, 8, 256, 11);
        assert_eq!(report.io.total(), 2 * 32);
        assert_eq!(report.external_levels, 0);
    }

    #[test]
    fn tiny_cache_is_rejected() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array(64);
        let err = sort_in(&mut mem, &h, 8, SortOrder::Ascending).unwrap_err();
        assert!(matches!(err, StoreError::InvalidArgument { .. }));
        assert!(err.to_string().contains("at least two blocks"));
        assert_eq!(mem.stats().total(), 0, "refused before any I/O");
    }

    #[test]
    fn in_cache_region_respects_cache_and_alignment() {
        assert_eq!(in_cache_region(1 << 18, 64, 1 << 13), 1 << 13);
        assert_eq!(in_cache_region(256, 8, 32), 32);
        assert_eq!(in_cache_region(16, 8, 1 << 10), 16); // clamped to p
                                                         // Non-power-of-two B: spans are over-estimated conservatively.
        let f = in_cache_region(1 << 10, 7, 70);
        assert!(span_blocks(f, 7) * 7 <= 70);
        assert!(f >= 2);
    }
}

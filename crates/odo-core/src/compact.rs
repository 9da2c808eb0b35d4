//! I/O-efficient external-memory **tight order-preserving compaction** — the
//! paper's Section 3 butterfly network (Figure 1, Lemma 5) executed over an
//! outsourced block store.
//!
//! # Problem
//!
//! An array of `N` cells, some occupied and some empty, must be rearranged so
//! the occupied cells form a prefix, preserving their relative order, without
//! the storage server learning *which* cells were occupied. The in-memory
//! circuit form of the routing network lives in [`obliv_net::butterfly`];
//! this module is its external-memory execution, written against the
//! [`BlockStore`] trait so the identical algorithm (identical trace,
//! identical I/O count) runs over a plaintext [`extmem::ExtMem`] arena or an
//! [`extmem::EncryptedStore`].
//!
//! # Algorithm
//!
//! Occupied cell `j` with rank `ρ(j)` (occupied cells strictly before it)
//! must travel `d_j = j − ρ(j)` cells to the left. The butterfly network
//! routes it there over `⌈log₂ N⌉` levels: on level `i` the item hops from
//! `j` to `j − 2^i` exactly when bit `i` of its remaining distance is set
//! (Lemma 5: such labels never collide). Run naively, every level is a full
//! pass over the array — `Θ((N/B) log N)` I/Os, which is what the `baseline`
//! crate does. Three I/O optimizations collapse this to
//! `O((N/B)(1 + log_{M/B}(N/M)))`:
//!
//! 1. **Oblivious prefix-rank label pass.** One streaming sweep reads each
//!    data block, carries the running rank in a private-cache register, and
//!    writes the distance label of every occupied cell to a parallel scratch
//!    array — `2·⌈N/B⌉` I/Os, addresses a fixed function of the shape.
//! 2. **In-cache head window.** All levels with stride `2^i < W` (where
//!    `W = Θ(M)` is the largest power-of-two window fitting the private
//!    cache) compose into a single move by `d mod W` cells. A sliding-window
//!    sweep executes *all* of them in one read pass plus one write pass over
//!    data and labels: items whose composed hop crosses a window boundary are
//!    carried in cache into the adjacent window (they travel less than `W`
//!    cells, so one window of carry suffices). When the whole array fits in
//!    cache this sweep is the entire algorithm — one read and one write pass.
//! 3. **Fused column sweeps.** The remaining `⌈log₂ N⌉ − log₂ W` levels have
//!    strides `2^i ≥ W ≥ B` and run in groups of `g = max(1, log₂(W/B))`.
//!    Levels `[i₀, i₀ + g)` with `2^i₀ = k·B` move an item only by whole
//!    multiples of `k` blocks: they keep its slot offset and its block column
//!    `β mod k`. Over the virtual array of blocks `c, c + k, c + 2k, …` the
//!    group is exactly the head-window sweep, with the move
//!    `(d & mask)/k ≤ W` (`mask` covering label bits `[i₀, i₀ + g)`) — one
//!    read pass plus one write pass over data and labels per group. The head
//!    window is the special case `i₀ = 0, k = 1`.
//!
//! The total is `⌈N/B⌉·(2 + 4 + 4·⌈(⌈log₂ N⌉ − log₂ W)/g⌉)` I/Os; with
//! `W = Θ(M)` that is `O((N/B)(1 + log_{M/B}(N/M)))`, which is the paper's
//! `O(N/B)` whenever `N/M` is polynomial in `M/B`. The `odo-bench` harness
//! checks the explicit-constant form `16·⌈N/B⌉·(1 + ⌈log_β⌈N/M⌉⌉)`,
//! `β = max(2, M/(8B))`, at every grid point and `BENCH_compact.json`
//! records the measurements.
//!
//! The reverse direction ([`expand`]) routes a compact prefix back out to a
//! strictly increasing target set — the paper's observation that the network
//! can be used "in reverse" — with the same passes mirrored.
//!
//! # Obliviousness
//!
//! Every block address touched is a fixed function of `(N, B, M)`: the label
//! sweep visits blocks `0..⌈N/B⌉` in order, and every sweep visits its
//! columns and windows in a fixed order with unconditional writes (a window
//! is rewritten even if nothing moved). Which cells are occupied, where items
//! route, and the expansion targets influence only block *contents* — never
//! addresses. The `compact_oblivious` integration test asserts byte-identical
//! traces across dozens of occupancy patterns at fixed shape.
//!
//! # Restrictions
//!
//! Compaction requires `M ≥ 8B`: a sweep holds a data and a label window
//! plus carried items in both directions (`6W ≤ M`), and a window must be at
//! least one block (`W ≥ B`). The external path (arrays larger than the
//! cache) additionally requires a power-of-two block size `B`, so that the
//! strides `≥ W` are whole multiples of a block. Arrays that fit in cache
//! accept any `B ≥ 1`.

use crate::error::OdoError;
use extmem::element::Cell;
use extmem::{
    run_fallible, ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, RetryPolicy,
    RetryStats,
};
use obliv_net::butterfly;
use std::ops::Range;

/// Which way items travel through the butterfly: `Left` compacts occupied
/// cells toward index 0, `Right` expands a compact prefix toward its targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    Left,
    Right,
}

/// What an external compaction (or expansion) did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// I/Os charged to this operation (reads + writes deltas).
    pub io: IoStats,
    /// Total butterfly levels for this array length (`⌈log₂ N⌉`).
    pub levels: usize,
    /// Levels executed inside the private cache by the head-window sweep
    /// (strides `< W`).
    pub in_cache_levels: usize,
    /// Levels with stride `≥ W`, run outside the head window.
    pub external_levels: usize,
    /// Column sweeps that ran the external levels: `⌈external_levels / g⌉`
    /// with `g = max(1, log₂(W/B))` levels fused per sweep.
    pub external_passes: usize,
    /// The sliding-window size `W` in elements (a power of two `≤ M/6`)
    /// used by the head window and every column sweep, or the array length
    /// when the whole array fit in cache.
    pub window_elems: usize,
    /// Number of occupied cells (the compacted prefix length). For
    /// [`expand`] this is the number of routed items, `targets.len()`.
    pub occupied: usize,
}

/// Stable tight compaction of array `h` on `store`: occupied cells move to
/// the front of the array, preserving their relative order; empty cells fill
/// the tail. Uses at most `cache_elems` words of private memory and
/// `O((N/B)(1 + log_{M/B}(N/M)))` I/Os whose addresses depend only on the
/// shape `(N, B, M)` — see the module documentation.
///
/// # Panics
/// Panics if `cache_elems < 8·B`, or if the array does not fit in cache and
/// `B` is not a power of two. The fallible path ([`try_compact`]) reports
/// the same conditions as [`OdoError::InvalidArgument`] instead.
pub fn compact<S: BlockStore>(store: &mut S, h: &ArrayHandle, cache_elems: usize) -> CompactReport {
    run(store, h, cache_elems, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`compact`] for untrusted/unreliable servers:
/// transient faults are retried per `policy` (the retry schedule depends
/// only on the server's fault schedule, never on the data), and the first
/// permanent [`StoreError`](extmem::StoreError) — a corrupted block, a
/// rollback, exhausted retries — aborts the pass and is returned as a typed
/// [`OdoError`] instead of panicking or compacting tampered data. Argument
/// validation (cache too small, non-power-of-two blocks) also returns
/// [`OdoError::InvalidArgument`] here, where the infallible [`compact`]
/// panics; routing state that disagrees with itself — the symptom of a
/// corrupted but unauthenticated store — surfaces as
/// [`OdoError::CorruptedRouting`].
///
/// On `Err` the contents of `h` (and of the internal scratch arrays) are
/// unspecified; the store itself remains usable.
pub fn try_compact<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    policy: RetryPolicy,
) -> Result<(CompactReport, RetryStats), OdoError> {
    let (inner, retries) =
        run_fallible(store, policy, |s| run(s, h, cache_elems, None)).map_err(OdoError::from)?;
    Ok((inner?, retries))
}

/// Alias of [`compact`] emphasizing the §3 guarantee: compaction through the
/// butterfly network with stable distance labels is always
/// *order-preserving* — the occupied cells appear in the prefix in their
/// original relative order. The two entry points are interchangeable.
pub fn compact_order_preserving<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
) -> CompactReport {
    compact(store, h, cache_elems)
}

/// The reverse operation: array `h` holds `targets.len()` occupied cells as a
/// prefix (dummies after), and item `i` of the prefix is routed right to cell
/// `targets[i]`. `targets` must be strictly increasing with every target
/// `< h.len()`. Running [`expand`] after [`compact`] with the original
/// occupied positions restores the original array.
///
/// The access trace depends only on the shape `(N, B, M)` — the targets
/// steer item movement strictly inside the private cache.
///
/// # Panics
/// Panics on malformed targets, on a prefix/occupancy mismatch, if
/// `cache_elems < 8·B`, or if the array does not fit in cache and `B` is not
/// a power of two. The fallible path ([`try_expand`]) reports the same
/// conditions as [`OdoError::InvalidArgument`] instead.
pub fn expand<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    targets: &[usize],
    cache_elems: usize,
) -> CompactReport {
    run(store, h, cache_elems, Some(targets)).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`expand`], mirroring [`try_compact`]: transient
/// faults retry per `policy`, tampering surfaces as a typed
/// [`OdoError`], and every condition that makes [`expand`] panic —
/// non-monotone or out-of-range targets, a prefix/occupancy mismatch, a
/// too-small cache, a non-power-of-two block size on the external path —
/// returns [`OdoError::InvalidArgument`] instead.
///
/// On `Err` the contents of `h` (and of the internal scratch arrays) are
/// unspecified; the store itself remains usable.
pub fn try_expand<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    targets: &[usize],
    cache_elems: usize,
    policy: RetryPolicy,
) -> Result<(CompactReport, RetryStats), OdoError> {
    let (inner, retries) = run_fallible(store, policy, |s| run(s, h, cache_elems, Some(targets)))
        .map_err(OdoError::from)?;
    Ok((inner?, retries))
}

/// Shared driver: `targets == None` compacts leftward, `Some` expands
/// rightward. All validation returns [`OdoError::InvalidArgument`] and every
/// self-inconsistent routing state returns [`OdoError::CorruptedRouting`];
/// the infallible façades panic with the error's `Display`, which preserves
/// the historical assert messages.
pub(crate) fn run<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    targets: Option<&[usize]>,
) -> Result<CompactReport, OdoError> {
    if let Some(t) = targets {
        for w in t.windows(2) {
            if w[0] >= w[1] {
                return Err(OdoError::InvalidArgument {
                    reason: "expansion targets must be strictly increasing",
                });
            }
        }
        if let Some(&last) = t.last() {
            if last >= h.len() {
                return Err(OdoError::InvalidArgument {
                    reason: "expansion target out of range",
                });
            }
        }
    }
    let b = h.block_elems();
    if cache_elems < 8 * b {
        return Err(OdoError::InvalidArgument {
            reason: "butterfly compaction needs a private cache of at least eight blocks (M >= 8B)",
        });
    }
    let start = store.io_stats();
    let n = h.len();
    let lv = butterfly::levels(n);
    let dir = if targets.is_some() {
        Direction::Right
    } else {
        Direction::Left
    };
    let mut budget = CacheBudget::new(cache_elems);

    // Whole array fits in the private cache: one read pass, route CPU-side,
    // one write pass — the fully collapsed form of the window sweep.
    if n <= cache_elems {
        let occupied = budget.with(n.max(1), |_| -> Result<usize, OdoError> {
            let mut cells = store.load_span(h, 0, n);
            let occupied = match targets {
                None => pack_prefix_in_place(&mut cells),
                Some(t) => route_to_targets_in_place(&mut cells, t)?,
            };
            store.store_span(h, 0, &cells);
            Ok(occupied)
        })?;
        return Ok(CompactReport {
            io: store.io_stats() - start,
            levels: lv,
            in_cache_levels: lv,
            external_levels: 0,
            external_passes: 0,
            window_elems: n.max(1),
            occupied,
        });
    }

    if !b.is_power_of_two() {
        return Err(OdoError::InvalidArgument {
            reason: "external butterfly compaction requires a power-of-two block size",
        });
    }

    // Phase 1 — oblivious prefix-rank label pass into a parallel scratch
    // array: occupied cell j gets distance label j - rank(j) (or, expanding,
    // targets[j] - j), empty cells get a dummy.
    let dist = store.alloc_array(n);
    let occupied = write_labels(store, h, &dist, &mut budget, targets)?;

    // Phases 2 and 3 — the head window composes every level with stride
    // < W into one sweep; the external levels (strides ≥ W ≥ B) run in
    // groups of g as one sweep per block column. Compaction executes the
    // circuit forward (head window first, then the groups ascending);
    // expansion is the same circuit run backwards in time (groups
    // descending, then the head window) — the forward order collides on
    // legitimate expansion labels, see `obliv_net::butterfly::expand`.
    let w = window_elems(cache_elems);
    let t = w.trailing_zeros() as usize; // n > M ≥ 6W, so t < lv
    let g = ((w / b).trailing_zeros() as usize).max(1);
    let mut groups = vec![(0, t)];
    groups.extend((t..lv).step_by(g).map(|i0| (i0, g.min(lv - i0))));
    groups.retain(|&(_, len)| len > 0);
    if dir == Direction::Right {
        groups.reverse();
    }
    for &group in &groups {
        sweep(store, h, &dist, &mut budget, w, group, dir)?;
    }

    Ok(CompactReport {
        io: store.io_stats() - start,
        levels: lv,
        in_cache_levels: t,
        external_levels: lv - t,
        external_passes: (lv - t).div_ceil(g),
        window_elems: w,
        occupied,
    })
}

/// Largest power-of-two window `W` such that the sweep's worst-case working
/// set — data span + label span (`2W`) plus incoming and outgoing carried
/// items (`2W` each) — of `6·W` slots fits in the cache. `≥ B` whenever `B`
/// is a power of two and `M ≥ 8B` (in fact `M ≥ 6B` suffices).
fn window_elems(cache_elems: usize) -> usize {
    let mut w = 1;
    while 6 * (w * 2) <= cache_elems {
        w *= 2;
    }
    w
}

/// In-place stable compaction of a cell slice; returns the occupied count.
/// CPU-side work inside the private cache — free in the I/O model.
fn pack_prefix_in_place(cells: &mut [Cell]) -> usize {
    let mut w = 0;
    for r in 0..cells.len() {
        if let Some(item) = cells[r].take() {
            cells[w] = Some(item);
            w += 1;
        }
    }
    w
}

/// In-place expansion of a compact prefix to `targets`; returns the routed
/// count. Walks backwards so a target never overwrites an unmoved source.
fn route_to_targets_in_place(cells: &mut [Cell], targets: &[usize]) -> Result<usize, OdoError> {
    let r = targets.len();
    for (i, c) in cells.iter().enumerate() {
        if i < r && c.is_none() {
            return Err(OdoError::InvalidArgument {
                reason: "expand expects an occupied prefix of length targets.len()",
            });
        }
        if i >= r && c.is_some() {
            return Err(OdoError::InvalidArgument {
                reason: "expand expects dummies after the occupied prefix",
            });
        }
    }
    for i in (0..r).rev() {
        let item = cells[i].take().expect("prefix was validated above");
        debug_assert!(cells[targets[i]].is_none(), "targets are distinct and >= i");
        cells[targets[i]] = Some(item);
    }
    Ok(r)
}

/// Phase 1: streams the data array block by block, writing the distance
/// label of each occupied cell to the parallel `dist` array. For compaction
/// the label of occupied cell `j` is `j − rank(j)` (an oblivious prefix-rank
/// computed in a private register); for expansion it is `targets[j] − j`.
/// Returns the occupied count. Exactly `⌈N/B⌉` reads + `⌈N/B⌉` writes, in a
/// fixed interleaved order.
fn write_labels<S: BlockStore>(
    store: &mut S,
    data: &ArrayHandle,
    dist: &ArrayHandle,
    budget: &mut CacheBudget,
    targets: Option<&[usize]>,
) -> Result<usize, OdoError> {
    let b = data.block_elems();
    let n = data.len();
    let mut rank = 0usize;
    // One fixed forward sweep over the data blocks: advertise it all.
    let schedule: Vec<usize> = (0..data.n_blocks()).collect();
    store.hint_blocks(data, &schedule);
    for beta in 0..data.n_blocks() {
        budget.with(2 * b, |_| -> Result<(), OdoError> {
            let blk = store.load_block(data, beta);
            let mut lab = Block::empty(b);
            for r in 0..b {
                let j = beta * b + r;
                if j >= n {
                    break;
                }
                match targets {
                    None => {
                        if blk.get(r).is_some() {
                            lab.set(r, Some(Element::new((j - rank) as u64, 0)));
                            rank += 1;
                        }
                    }
                    Some(t) => {
                        if j < t.len() {
                            if blk.get(r).is_none() {
                                return Err(OdoError::InvalidArgument {
                                    reason:
                                        "expand expects an occupied prefix of length targets.len()",
                                });
                            }
                            // Strictly increasing targets imply t[j] >= j.
                            lab.set(r, Some(Element::new((t[j] - j) as u64, 0)));
                            rank += 1;
                        } else if blk.get(r).is_some() {
                            return Err(OdoError::InvalidArgument {
                                reason: "expand expects dummies after the occupied prefix",
                            });
                        }
                    }
                }
            }
            store.store_block(dist, beta, lab);
            Ok(())
        })?;
    }
    Ok(rank)
}

/// The blocks `c, c + k, c + 2k, …` of an array, seen as one virtual array
/// of `blocks` blocks. Virtual cell `x` is slot `x mod B` of block
/// `c + ⌊x/B⌋·k`, so a move by `δ` virtual cells is a move by `δ·k` real
/// cells that keeps the slot offset and the column.
#[derive(Clone, Copy)]
struct Column {
    c: usize,
    k: usize,
    b: usize,
    blocks: usize,
}

impl Column {
    fn block(&self, v: usize) -> usize {
        self.c + v * self.k
    }

    fn cell(&self, x: usize) -> usize {
        self.block(x / self.b) * self.b + x % self.b
    }

    fn hint<S: BlockStore>(&self, store: &mut S, arrays: [&ArrayHandle; 2], vs: Range<usize>) {
        let blocks: Vec<usize> = vs.map(|v| self.block(v)).collect();
        for h in arrays {
            store.hint_blocks(h, &blocks);
        }
    }

    /// Reads virtual blocks `vs` in ascending order, one read I/O per block
    /// (slots past the array end read as dummies).
    fn load<S: BlockStore>(&self, store: &mut S, h: &ArrayHandle, vs: Range<usize>) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(vs.len() * self.b);
        for v in vs {
            let blk = store.load_block(h, self.block(v));
            cells.extend_from_slice(blk.slots());
            store.recycle(blk);
        }
        cells
    }

    /// Writes `cells` back as whole blocks from virtual block `v_lo` on, in
    /// ascending order, one write I/O per block.
    fn store<S: BlockStore>(&self, store: &mut S, h: &ArrayHandle, v_lo: usize, cells: &[Cell]) {
        for (i, chunk) in cells.chunks(self.b).enumerate() {
            store.store_block(h, self.block(v_lo + i), Block::from_cells(chunk));
        }
    }
}

/// Phases 2 and 3: runs the butterfly levels `[i0, i0 + len)` as one
/// sliding-window sweep per block column. With `k = max(1, 2^i0 / B)`, the
/// group moves an item by `d & mask` cells (`mask` covers label bits
/// `[i0, i0 + len)`), a whole multiple of `k` blocks, so it never leaves its
/// column: over the column's virtual array it moves by `δ = (d & mask)/k ≤ W`
/// cells. Windows of `W` virtual cells are visited away from the travel
/// direction — rightmost first when compacting left, leftmost first when
/// expanding right — and items whose move leaves the window are carried in
/// cache into the next window processed (one window of carry suffices).
/// Each label becomes `d − (d & mask)`. The head window is the group
/// `i0 = 0` (`k = 1`, `mask = W − 1`); Lemma 5 makes the state after every
/// group collision-free, so a collision means the labels were invalid.
///
/// One read pass plus one write pass over both arrays, `4·⌈N/B⌉` I/Os in a
/// block order fixed by the shape. While a window is worked on, the next
/// window's blocks are hinted, so read-ahead keeps one window of lead.
fn sweep<S: BlockStore>(
    store: &mut S,
    data: &ArrayHandle,
    dist: &ArrayHandle,
    budget: &mut CacheBudget,
    w: usize,
    (i0, len): (usize, usize),
    dir: Direction,
) -> Result<(), OdoError> {
    let (n, b, nb) = (data.len(), data.block_elems(), data.n_blocks());
    let k = ((1usize << i0) / b).max(1); // 2^i0 < N, so k < ⌈N/B⌉
    let mask = ((1u64 << len) - 1) << i0;
    let wb = w / b;
    let mut windows: Vec<(Column, Range<usize>)> = Vec::new();
    for c in 0..k {
        let col = Column {
            c,
            k,
            b,
            blocks: (nb - c).div_ceil(k),
        };
        let starts = (0..col.blocks).step_by(wb);
        let window = |v: usize| (col, v..(v + wb).min(col.blocks));
        match dir {
            Direction::Left => windows.extend(starts.rev().map(window)),
            Direction::Right => windows.extend(starts.map(window)),
        }
    }
    if let Some((col, vs)) = windows.first() {
        col.hint(store, [data, dist], vs.clone());
    }
    // Items in flight between windows: (virtual target, item, new label).
    let mut carry: Vec<(usize, Element, u64)> = Vec::new();
    for (idx, (col, vs)) in windows.iter().enumerate() {
        if let Some((next, nvs)) = windows.get(idx + 1) {
            next.hint(store, [data, dist], nvs.clone());
        }
        let lo = vs.start * b;
        let len = vs.len() * b;
        // Working set: the two windows plus up to a window's worth of
        // carried items in each direction (2 slots per in-flight item).
        budget.acquire(2 * len + 4 * w);
        let mut cells = col.load(store, data, vs.clone());
        let mut dists = col.load(store, dist, vs.clone());
        let scan: Box<dyn Iterator<Item = usize>> = match dir {
            Direction::Left => Box::new(0..len),
            Direction::Right => Box::new((0..len).rev()),
        };
        let mut outgoing: Vec<(usize, Element, u64)> = Vec::new();
        for r in scan {
            if let Some(item) = cells[r] {
                let d = dists[r]
                    .ok_or(OdoError::CorruptedRouting {
                        reason: "occupied cells carry a distance label",
                        cell: col.cell(lo + r),
                    })?
                    .key;
                let delta = ((d & mask) / k as u64) as usize;
                if delta == 0 {
                    continue;
                }
                let target = match dir {
                    Direction::Left => (lo + r).checked_sub(delta),
                    Direction::Right => Some(lo + r + delta),
                };
                // Past either end of the column means past the array.
                let Some(target) = target.filter(|&x| col.cell(x) < n) else {
                    return Err(OdoError::CorruptedRouting {
                        reason: "no item may be routed out of the array",
                        cell: col.cell(lo + r),
                    });
                };
                let nd = d - (d & mask);
                cells[r] = None;
                dists[r] = None;
                if (lo..lo + len).contains(&target) {
                    // The target slot was already scanned (the scan runs
                    // opposite to the travel direction), so its final
                    // occupant — if any — is already in place.
                    place(&mut cells, &mut dists, col, lo, (target, item, nd))?;
                } else {
                    outgoing.push((target, item, nd));
                }
            }
        }
        for mv in carry.drain(..) {
            debug_assert!(
                (lo..lo + len).contains(&mv.0),
                "carried items travel exactly one window"
            );
            place(&mut cells, &mut dists, col, lo, mv)?;
        }
        carry = outgoing;
        col.store(store, data, vs.start, &cells);
        col.store(store, dist, vs.start, &dists);
        budget.release(2 * len + 4 * w);
    }
    Ok(())
}

/// Drops a moved item `(virtual target, item, new label)` into the window
/// starting at virtual cell `lo`.
fn place(
    cells: &mut [Cell],
    dists: &mut [Cell],
    col: &Column,
    lo: usize,
    (target, item, nd): (usize, Element, u64),
) -> Result<(), OdoError> {
    let idx = target - lo;
    if cells[idx].is_some() {
        return Err(OdoError::CorruptedRouting {
            reason: "butterfly routing collision: two items at one cell (invalid distance labels)",
            cell: col.cell(target),
        });
    }
    cells[idx] = Some(item);
    dists[idx] = Some(Element::new(nd, 0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::ExtMem;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    /// Pseudo-random occupancy: cell i occupied iff hash(i, salt) % den < num.
    fn occupancy(n: usize, salt: u64, num: u64, den: u64) -> Vec<Cell> {
        (0..n)
            .map(|i| {
                if extmem::util::hash64(i as u64, salt) % den < num {
                    Some(Element::keyed(i as u64, i))
                } else {
                    None
                }
            })
            .collect()
    }

    fn reference_compact(cells: &[Cell]) -> Vec<Cell> {
        let mut out: Vec<Cell> = cells.iter().filter(|c| c.is_some()).copied().collect();
        out.resize(cells.len(), None);
        out
    }

    fn run_compact(cells: &[Cell], b: usize, m: usize) -> (Vec<Cell>, CompactReport) {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        let report = compact(&mut mem, &h, m);
        (mem.snapshot_cells(&h), report)
    }

    #[test]
    fn compacts_across_shapes_and_occupancies() {
        for (n, b, m) in [
            (64usize, 4usize, 32usize),
            (256, 8, 64),
            (256, 8, 512), // fully in cache
            (1024, 16, 128),
            (100, 4, 32),  // n not a power of two
            (1000, 8, 64), // n not a power of two, external
            (65, 8, 64),   // n just above M, top group wider than the array
            (700, 8, 88),  // M = 11B: W = B, one level per column sweep
            (1500, 8, 96), // M = 12B, n mod B = 4
            (9000, 8, 1024),
        ] {
            for (salt, num) in [(1u64, 1u64), (2, 2), (3, 5)] {
                let cells = occupancy(n, salt, num, 6);
                let (got, report) = run_compact(&cells, b, m);
                assert_eq!(
                    got,
                    reference_compact(&cells),
                    "N={n} B={b} M={m} salt={salt}"
                );
                assert_eq!(
                    report.occupied,
                    cells.iter().filter(|c| c.is_some()).count()
                );
                assert_eq!(report.levels, butterfly::levels(n));
                assert_eq!(
                    report.in_cache_levels + report.external_levels,
                    report.levels
                );
            }
        }
    }

    #[test]
    fn all_empty_all_full_and_singleton_are_fixed_points() {
        let empty: Vec<Cell> = vec![None; 64];
        assert_eq!(run_compact(&empty, 4, 32).0, empty);
        let full: Vec<Cell> = (0..64).map(|i| Some(e(i))).collect();
        assert_eq!(run_compact(&full, 4, 32).0, full);
        let one: Vec<Cell> = vec![Some(e(7))];
        let (got, report) = run_compact(&one, 4, 32);
        assert_eq!(got, one);
        assert_eq!(report.levels, 0);
    }

    #[test]
    fn matches_in_memory_butterfly_circuit() {
        for salt in 0..4u64 {
            let cells = occupancy(512, salt, 1, 2);
            let (got, _) = run_compact(&cells, 8, 64);
            assert_eq!(got, butterfly::compact(&cells));
        }
    }

    #[test]
    fn order_preservation_is_stable() {
        // Keys deliberately unsorted: order must follow positions, not keys.
        let cells: Vec<Cell> = (0..128)
            .map(|i| {
                if i % 3 == 0 {
                    Some(Element::keyed(1000 - i as u64, i))
                } else {
                    None
                }
            })
            .collect();
        let (got, _) = run_compact(&cells, 8, 64);
        let prefix: Vec<Element> = got.iter().flatten().copied().collect();
        let expected: Vec<Element> = cells.iter().flatten().copied().collect();
        assert_eq!(prefix, expected);
    }

    #[test]
    fn expand_is_inverse_of_compact() {
        for (n, b, m) in [
            (256usize, 8usize, 64usize),
            (100, 4, 32),
            (64, 4, 256),
            (700, 8, 88),
        ] {
            let cells = occupancy(n, 9, 1, 3);
            let targets: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(j, _)| j)
                .collect();
            let mut mem = ExtMem::new(b);
            let h = mem.alloc_array_from_cells(&cells);
            compact(&mut mem, &h, m);
            let report = expand(&mut mem, &h, &targets, m);
            assert_eq!(mem.snapshot_cells(&h), cells, "N={n} B={b} M={m}");
            assert_eq!(report.occupied, targets.len());
        }
    }

    #[test]
    fn expand_matches_in_memory_circuit() {
        let compacted: Vec<Cell> = (0..6)
            .map(|i| Some(e(i)))
            .chain(std::iter::repeat_n(None, 58))
            .collect();
        let targets = [3usize, 10, 11, 40, 41, 63];
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&compacted);
        expand(&mut mem, &h, &targets, 32);
        assert_eq!(
            mem.snapshot_cells(&h),
            butterfly::expand(&compacted, &targets)
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn expand_rejects_non_monotone_targets() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(16);
        expand(&mut mem, &h, &[2, 1], 16);
    }

    #[test]
    #[should_panic(expected = "at least eight blocks")]
    fn tiny_cache_is_rejected() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array(64);
        compact(&mut mem, &h, 32);
    }

    #[test]
    #[should_panic(expected = "power-of-two block size")]
    fn external_path_rejects_odd_block_size() {
        let mut mem = ExtMem::new(6);
        let h = mem.alloc_array(600);
        compact(&mut mem, &h, 48);
    }

    #[test]
    fn odd_block_size_is_fine_in_cache() {
        let cells = occupancy(60, 5, 1, 2);
        let (got, report) = run_compact(&cells, 6, 64);
        assert_eq!(got, reference_compact(&cells));
        assert_eq!(report.external_levels, 0);
    }

    #[test]
    fn in_cache_path_costs_two_passes() {
        let cells = occupancy(256, 1, 1, 2);
        let (_, report) = run_compact(&cells, 8, 256);
        // 32 block reads + 32 block writes, nothing else.
        assert_eq!(report.io.reads, 32);
        assert_eq!(report.io.writes, 32);
        assert_eq!(report.external_levels, 0);
    }

    #[test]
    fn report_structure_matches_the_level_split() {
        // N = 1024, B = 8, M = 64: W = 8 -> 3 in-cache levels, levels = 10,
        // external = 7, one level per sweep (W = B).
        let cells = occupancy(1024, 2, 1, 2);
        let (_, report) = run_compact(&cells, 8, 64);
        assert_eq!(report.levels, 10);
        assert_eq!(report.window_elems, 8);
        assert_eq!(report.in_cache_levels, 3);
        assert_eq!(report.external_levels, 7);
        assert_eq!(report.external_passes, 7);
    }

    #[test]
    fn try_compact_reports_argument_failures_as_errors() {
        // A cache below 8 blocks: the infallible path panics, the fallible
        // path must return a typed error with the same message.
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array(64);
        let err = try_compact(&mut mem, &h, 32, RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, OdoError::InvalidArgument { .. }));
        assert!(err.to_string().contains("at least eight blocks"));
        assert!(!err.is_tampering());

        // Non-power-of-two blocks on the external path.
        let mut mem = ExtMem::new(6);
        let h = mem.alloc_array(600);
        let err = try_compact(&mut mem, &h, 48, RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, OdoError::InvalidArgument { .. }));
        assert!(err.to_string().contains("power-of-two block size"));
    }

    #[test]
    fn try_expand_reports_each_former_panic_as_an_error() {
        // Non-monotone targets.
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(16);
        let err = try_expand(&mut mem, &h, &[2, 1], 16, RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, OdoError::InvalidArgument { .. }));
        assert!(err.to_string().contains("strictly increasing"));

        // A target beyond the end of the array.
        let err = try_expand(&mut mem, &h, &[15, 16], 16, RetryPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("out of range"));

        // Tiny cache.
        let err = try_expand(&mut mem, &h, &[0, 1], 8, RetryPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("at least eight blocks"));

        // A dummy inside the claimed prefix, in-cache path.
        let cells: Vec<Cell> = vec![Some(e(1)), None, Some(e(2)), None];
        let mut mem = ExtMem::new(2);
        let h = mem.alloc_array_from_cells(&cells);
        let err = try_expand(&mut mem, &h, &[1, 2, 3], 64, RetryPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("occupied prefix of length"));

        // An occupied cell after the prefix, in-cache path.
        let err = try_expand(&mut mem, &h, &[3], 64, RetryPolicy::default()).unwrap_err();
        assert!(err
            .to_string()
            .contains("dummies after the occupied prefix"));

        // The same two mismatches through the external label pass.
        let mut cells: Vec<Cell> = vec![None; 512];
        cells[0] = Some(e(0));
        cells[300] = Some(e(1));
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let err = try_expand(&mut mem, &h, &[5, 9, 200], 64, RetryPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("occupied prefix of length"));
        let err = try_expand(&mut mem, &h, &[5], 64, RetryPolicy::default()).unwrap_err();
        assert!(err
            .to_string()
            .contains("dummies after the occupied prefix"));
    }

    #[test]
    fn try_expand_round_trips_like_expand() {
        let cells = occupancy(256, 9, 1, 3);
        let targets: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(j, _)| j)
            .collect();
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let (report, _) = try_compact(&mut mem, &h, 64, RetryPolicy::default()).unwrap();
        assert_eq!(report.occupied, targets.len());
        let (report, _) = try_expand(&mut mem, &h, &targets, 64, RetryPolicy::default()).unwrap();
        assert_eq!(mem.snapshot_cells(&h), cells);
        assert_eq!(report.occupied, targets.len());
    }

    #[test]
    fn io_count_is_a_function_of_shape_only() {
        let a = run_compact(&occupancy(512, 1, 1, 2), 8, 64).1;
        let b = run_compact(&occupancy(512, 77, 1, 7), 8, 64).1;
        let c = run_compact(&vec![None; 512], 8, 64).1;
        assert_eq!(a.io, b.io);
        assert_eq!(a.io, c.io);
        // ⌈N/B⌉·(2 + 4 + 4·passes): W = 8 = B, so the 6 external levels
        // take one sweep each.
        assert_eq!(a.io.total(), 64 * (6 + 4 * 6));
        // M = 2^10: W = 128, so the 6 external levels of N = 4097 run
        // fused four at a time (W/B = 16) in 2 sweeps.
        let d = run_compact(&occupancy(4097, 1, 1, 2), 8, 1 << 10).1;
        assert_eq!(d.io.total(), 513 * (6 + 4 * 2));
        assert_eq!((d.external_levels, d.external_passes), (6, 2));
    }
}

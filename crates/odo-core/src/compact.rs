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
//! 1. **In-cache head window.** All levels with stride `2^i < W` (where
//!    `W = Θ(M)` is a power-of-two window, see below) compose into a single
//!    move by `d mod W < W` cells. One sweep executes *all* of them: it
//!    streams the array through a ring of `W/B + 1` blocks in the private
//!    cache, scanning each block in the travel direction, so a move from the
//!    block being scanned lands in it or in one of the `W/B` blocks before
//!    it. The oldest block is written back as the next one is loaded. When
//!    the whole array fits in cache this sweep is the entire algorithm — one
//!    read and one write pass.
//! 2. **Fused column sweeps.** The remaining `⌈log₂ N⌉ − log₂ W` levels have
//!    strides `2^i ≥ W` and run in groups of `g = log₂(W/B)`. Levels
//!    `[i₀, i₀ + g)` with `2^i₀ = k·B` move an item only by whole multiples
//!    of `k` blocks: they keep its slot offset and its block column
//!    `β mod k`. Over the virtual array of blocks `c, c + k, c + 2k, …` the
//!    group is exactly the head-window sweep, with the move
//!    `(d & mask)/k < W` (`mask` covering label bits `[i₀, i₀ + g)`). The
//!    head window is the special case `i₀ = 0, k = 1`.
//! 3. **Ranks instead of labels.** Compaction keeps item order, so once the
//!    levels below `i₀` have run, the item of rank `ρ` at position `p` has
//!    the remaining label `p − ρ`. No label array exists: each sweep
//!    recomputes every rank as it loads the block. The head window visits
//!    the cells in order and counts ranks in a register. A column sweep of
//!    stride `k` visits the rows of `k` blocks once per column, and takes
//!    each row's rank base from a table of per-row item counts that the
//!    sweep before it filled as it wrote blocks back: its first column turns
//!    the counts into prefix sums, and every column adds its block's items
//!    for the next. The largest table, for stride `W/B`, has `⌈N/W⌉`
//!    entries. (Expansion takes its ranks from the targets; see below.)
//!
//! `W` is the largest power of two for which the ring (`W + B` slots) and
//! two row tables fit in `M`. Where the tables do not fit beside the ring
//! (about `N > M²/4`), a table lives in a server array instead, streamed
//! through a one-block buffer. Each column then reads and rewrites the
//! table blocks it touches once, in a fixed order: `2⌈N/B⌉/B + O(k)` I/Os
//! for a sweep that reads a table, and a factor `B/W` of that for the
//! sweep that fills it.
//!
//! Every sweep is one read pass and one write pass over the data. With `S`
//! sweeps (the head window plus `⌈(⌈log₂ N⌉ − log₂ W)/g⌉` column sweeps) the
//! total is `2·S·⌈N/B⌉` I/Os, plus the streamed tables' I/Os; with
//! `W = Θ(M)` that is `O((N/B)(1 + log_{M/B}(N/M)))`, which is the paper's
//! `O(N/B)` whenever `N/M` is polynomial in `M/B`. At `N = 2^18`, `B = 64`,
//! `M = 2^13` the window is `M/2`, `S = 2`, and compaction costs `16,384`
//! I/Os. The `odo-bench` harness checks the explicit-constant form
//! `C_c·⌈N/B⌉·(1 + ⌈log_β⌈N/M⌉⌉)`, `β = max(2, M/(8B))`, at every grid
//! point and `BENCH_compact.json` records the measurements.
//!
//! The reverse direction ([`try_expand`]) routes a compact prefix back out to a
//! strictly increasing target set — the paper's observation that the network
//! can be used "in reverse" — with the same sweeps mirrored: the groups run
//! in descending order and every column is visited right to left. The item
//! of rank `ρ` at `p` has the label `targets[ρ] − p`. Expansion needs no
//! row table: where each item sits after each level follows from the
//! targets alone, so a block's rank base is a binary search over them. On
//! the first sweep that position is the rank itself, and the sweep checks
//! that exactly the prefix `0..targets.len()` is occupied.
//!
//! A rank that disagrees with its position, label bits an earlier level
//! should have spent, bits left after the last level, a routing collision
//! and an item count that changes between sweeps all mean the server
//! changed the array between or during sweeps; they surface as
//! [`OdoError::CorruptedRouting`].
//!
//! # Obliviousness
//!
//! Every block address touched is a fixed function of `(N, B, M)`: every
//! sweep visits its columns and blocks in a fixed order with unconditional
//! writes (a block is rewritten even if nothing moved), and a streamed row
//! table is read and written in a fixed order too. Which cells are
//! occupied, where items route, and the expansion targets influence only
//! block *contents* — never addresses. The `compact_oblivious` integration
//! test asserts byte-identical traces across dozens of occupancy patterns at
//! fixed shape.
//!
//! # Restrictions
//!
//! Compaction requires `M ≥ 8B`: a sweep holds a ring of `W + B` slots and
//! two row tables or two one-block table buffers, which leaves a window of
//! at least four blocks (`W ≥ 4B`), so every column sweep runs at least two
//! levels. The external path (arrays larger than the cache) additionally
//! requires a power-of-two block size `B`, so that the strides `≥ W` are
//! whole multiples of a block. Arrays that fit in cache accept any `B ≥ 1`.

use crate::error::OdoError;
use extmem::element::Cell;
use extmem::{
    ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, RetryPolicy, RetryStats,
    RetryingStore, StoreError,
};
use obliv_net::butterfly;

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
    /// with `g = log₂(W/B)` levels fused per sweep.
    pub external_passes: usize,
    /// The window size `W` in elements (a power of two below `M` whose
    /// ring of `W + B` slots leaves room for the row tables) used by the
    /// head window and every column sweep, or the array length when the
    /// whole array fit in cache.
    pub window_elems: usize,
    /// Number of occupied cells (the compacted prefix length). For
    /// [`try_expand`] this is the number of routed items, `targets.len()`.
    pub occupied: usize,
}

/// Stable tight compaction of array `h` on `store`: occupied cells move to
/// the front of the array, preserving their relative order; empty cells fill
/// the tail. Uses at most `cache_elems` words of private memory and
/// `O((N/B)(1 + log_{M/B}(N/M)))` I/Os whose addresses depend only on the
/// shape `(N, B, M)` — see the module documentation.
///
/// For untrusted/unreliable servers: transient faults are retried per
/// `policy` (the retry schedule depends only on the server's fault
/// schedule, never on the data), and the first permanent [`StoreError`] — a
/// corrupted block, a rollback, exhausted retries — stops the pass and is
/// returned as a typed [`OdoError`] instead of compacting tampered data. A
/// cache below `8·B`, or a non-power-of-two `B` when the array does not fit
/// in cache, returns [`OdoError::InvalidArgument`]; routing state that
/// disagrees with itself — the symptom of a corrupted but unauthenticated
/// store — surfaces as [`OdoError::CorruptedRouting`].
///
/// On `Err` the contents of `h` (and of the internal scratch arrays) are
/// unspecified; the store itself remains usable.
pub fn try_compact<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    policy: RetryPolicy,
) -> Result<(CompactReport, RetryStats), OdoError> {
    let mut rs = RetryingStore::new(store, policy);
    let report = run(&mut rs, h, cache_elems, None)?;
    Ok((report, rs.stats()))
}

/// The reverse operation: array `h` holds `targets.len()` occupied cells as a
/// prefix (dummies after), and item `i` of the prefix is routed right to cell
/// `targets[i]`. `targets` must be strictly increasing with every target
/// `< h.len()`. Running [`try_expand`] after [`try_compact`] with the
/// original occupied positions restores the original array.
///
/// The access trace depends only on the shape `(N, B, M)` — the targets
/// steer item movement strictly inside the private cache.
///
/// Errors mirror [`try_compact`]: transient faults retry per `policy`,
/// tampering surfaces as a typed [`OdoError`], and non-monotone or
/// out-of-range targets, a prefix/occupancy mismatch, a too-small cache or a
/// non-power-of-two block size on the external path return
/// [`OdoError::InvalidArgument`].
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
    let mut rs = RetryingStore::new(store, policy);
    let report = run(&mut rs, h, cache_elems, Some(targets))?;
    Ok((report, rs.stats()))
}

/// Shared driver: `targets == None` compacts leftward, `Some` expands
/// rightward. All validation returns [`OdoError::InvalidArgument`], every
/// self-inconsistent routing state returns [`OdoError::CorruptedRouting`]
/// and the first failed block I/O returns [`OdoError::Store`].
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
    let mut budget = CacheBudget::new(cache_elems);

    // Whole array fits in the private cache: one read pass, route CPU-side,
    // one write pass — the fully collapsed form of the window sweep.
    if n <= cache_elems {
        let occupied = budget.with(n.max(1), |_| -> Result<usize, OdoError> {
            let mut cells = store.try_load_span(h, 0, n)?;
            let occupied = match targets {
                None => pack_prefix_in_place(&mut cells),
                Some(t) => route_to_targets_in_place(&mut cells, t)?,
            };
            store.try_store_span(h, 0, &cells)?;
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

    // The head window composes every level with stride < W into one
    // sweep; the external levels (strides ≥ W) run in groups of g as
    // one sweep per block column. Compaction executes the circuit forward
    // (head window first, then the groups ascending); expansion is the same
    // circuit run backwards in time (groups descending, then the head
    // window) — the forward order collides on legitimate expansion labels,
    // see `obliv_net::butterfly::expand`.
    let nb = h.n_blocks();
    let w = window_elems(nb, b, cache_elems);
    let t = w.trailing_zeros() as usize; // n > M > W, so t < lv
    let g = (w / b).trailing_zeros() as usize; // W ≥ 4B, so g ≥ 2
    let mut groups = vec![(0, t)];
    groups.extend((t..lv).step_by(g).map(|i0| (i0, g.min(lv - i0))));
    if targets.is_some() {
        groups.reverse();
    }
    // Each of the two row tables a compaction sweep may hold gets half the
    // cache the ring leaves; a larger one streams from the server.
    let room = (cache_elems - w - b) / 2;
    let mut table = None;
    let mut total = targets.map(<[usize]>::len);
    for (s, &levels) in groups.iter().enumerate() {
        let last = s + 1 == groups.len();
        let (ranks, next) = match targets {
            // The head window counts ranks; every later sweep reads the
            // table the sweep before it filled.
            None => (
                table.take().map_or(Ranks::Running, Ranks::Rows),
                (!last).then(|| {
                    let stride = (1 << groups[s + 1].0) / b;
                    RowTable::new(store, &mut budget, stride, nb, room)
                }),
            ),
            Some(_) => (Ranks::Targets { first: s == 0 }, None),
        };
        let pass = Sweep {
            levels,
            targets,
            total,
            ranks,
            next,
            last,
        };
        let (seen, filled) = sweep(store, h, &mut budget, w, pass)?;
        total = Some(seen);
        table = filled;
    }

    Ok(CompactReport {
        io: store.io_stats() - start,
        levels: lv,
        in_cache_levels: t,
        external_levels: lv - t,
        external_passes: (lv - t).div_ceil(g),
        window_elems: w,
        occupied: total.unwrap_or(0),
    })
}

/// The window `W`: the largest power of two whose ring of `W + B` slots
/// leaves room for two row tables — the largest, for stride `W/B`, has
/// `⌈⌈N/B⌉·B/W⌉` entries — or, where those do not fit, for two one-block
/// table buffers. `4B ≤ W < M` whenever `M ≥ 8B`.
fn window_elems(nb: usize, b: usize, cache_elems: usize) -> usize {
    let fits = |w: usize| w + b + 2 * nb.div_ceil(w / b).min(b) <= cache_elems;
    let mut w = 4 * b;
    while fits(2 * w) {
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

/// The blocks `c, c + k, c + 2k, …` of an array, seen as one virtual array
/// of `blocks` blocks. Virtual cell `x` is slot `x mod B` of block
/// `c + ⌊x/B⌋·k`, so a move by `δ` virtual cells is a move by `δ·k` real
/// cells that keeps the slot offset and the column. Virtual block `v` lies
/// in row `v` of the stride-`k` row table.
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
}

/// Item counts per row of `stride` blocks: entry `r` covers blocks
/// `[r·stride, (r+1)·stride)`. The sweep before a column sweep of that
/// stride adds every block it writes back to its row; the column sweep's
/// first column turns the counts into rank bases (the items in earlier
/// rows), and every column adds its block's items for the next.
///
/// The table lives in the private cache when it fits, else in a server
/// array streamed through a one-block buffer. A sweep touches the entries
/// of each column in a monotone order fixed by the shape, so every table
/// block it needs is read and written back once per column.
struct RowTable {
    stride: usize,
    home: Home,
}

enum Home {
    Cache(Vec<u64>),
    Server {
        array: ArrayHandle,
        /// The table block held in `buf`, if any.
        at: Option<usize>,
        buf: Vec<u64>,
    },
}

impl RowTable {
    /// An all-zero table for `⌈nb/stride⌉` rows, in the cache if it has at
    /// most `room` entries.
    fn new<S: BlockStore>(
        store: &mut S,
        budget: &mut CacheBudget,
        stride: usize,
        nb: usize,
        room: usize,
    ) -> Self {
        let rows = nb.div_ceil(stride);
        let home = if rows <= room {
            Home::Cache(vec![0; rows])
        } else {
            // A fresh array reads as dummies, which count as zero.
            Home::Server {
                array: store.alloc_array(rows),
                at: None,
                buf: Vec::new(),
            }
        };
        let table = RowTable { stride, home };
        budget.acquire(table.words());
        table
    }

    /// The private-cache words the table holds.
    fn words(&self) -> usize {
        match &self.home {
            Home::Cache(rows) => rows.len(),
            Home::Server { array, .. } => array.block_elems(),
        }
    }

    fn entry<S: BlockStore>(&mut self, store: &mut S, r: usize) -> Result<&mut u64, StoreError> {
        Ok(match &mut self.home {
            Home::Cache(rows) => &mut rows[r],
            Home::Server { array, at, buf } => {
                let b = array.block_elems();
                if *at != Some(r / b) {
                    write_back(store, array, at, buf)?;
                    let blk = store.try_load_block(array, r / b)?;
                    buf.clear();
                    buf.extend(blk.slots().iter().map(|c| c.map_or(0, |e| e.key)));
                    store.recycle(blk);
                    *at = Some(r / b);
                }
                &mut buf[r % b]
            }
        })
    }

    /// Writes the buffered table block back; called at the end of a column.
    fn end_column<S: BlockStore>(&mut self, store: &mut S) -> Result<(), StoreError> {
        match &mut self.home {
            Home::Server { array, at, buf } => write_back(store, array, at, buf),
            Home::Cache(_) => Ok(()),
        }
    }
}

fn write_back<S: BlockStore>(
    store: &mut S,
    array: &ArrayHandle,
    at: &mut Option<usize>,
    buf: &[u64],
) -> Result<(), StoreError> {
    match at.take() {
        Some(i) => {
            let cells = buf.iter().map(|&x| Some(Element::new(x, 0))).collect();
            store.try_store_block(array, i, Block::from_buffer(cells))
        }
        None => Ok(()),
    }
}

/// Where a sweep takes each item's rank from.
enum Ranks {
    /// The head window of a compaction visits its one column in order and
    /// counts ranks up.
    Running,
    /// Every later compaction sweep: rank bases from the row table the
    /// sweep before it filled.
    Rows(RowTable),
    /// Every expansion sweep. Expansion routes by the targets alone: once
    /// the levels `≥ i` have run, item `ρ` sits at
    /// `targets[ρ] − ((targets[ρ] − ρ) mod 2^i)`, which increases with
    /// `ρ`, so a block's rank base is a binary search over the targets. On
    /// the `first` sweep that position is `ρ` itself, and the sweep checks
    /// that exactly the prefix `0..targets.len()` is occupied.
    Targets { first: bool },
}

/// One sweep over the array: the butterfly levels `levels = (i0, len)`.
struct Sweep<'a> {
    levels: (usize, usize),
    /// `None` compacts leftward: the item of rank `ρ` at position `p` has
    /// the label `p − ρ`. `Some` expands rightward: its label is
    /// `targets[ρ] − p`.
    targets: Option<&'a [usize]>,
    /// The items the previous sweep saw; `None` for the first sweep of a
    /// compaction.
    total: Option<usize>,
    ranks: Ranks,
    /// The table the next sweep reads, filled as blocks are written back.
    next: Option<RowTable>,
    /// No later sweep runs, so every label must be spent.
    last: bool,
}

fn corrupt(reason: &'static str, cell: usize) -> OdoError {
    OdoError::CorruptedRouting { reason, cell }
}

/// Runs the butterfly levels `[i0, i0 + len)` as one sweep per block column
/// and returns the number of items it saw, with the row table it filled
/// for the next sweep. With `k = max(1, 2^i0 / B)`, the group moves an item
/// by `d & mask` cells (`mask` covers label bits `[i0, i0 + len)`), a whole
/// multiple of `k` blocks, so it never leaves its column: over the column's
/// virtual array it moves by `δ = (d & mask)/k < W` cells.
///
/// Each column streams through a ring of `W/B + 1` blocks, visited against
/// the travel direction — leftmost first when compacting left, rightmost
/// first when expanding right — and each block is scanned in the same
/// order, so a move lands on a cell already scanned, in the block being
/// scanned or in one of the `W/B` before it. The block `W/B + 1` behind is
/// out of reach and is written back before the next one is loaded. The
/// head window is the group `i0 = 0` (`k = 1`, `mask = W − 1`); Lemma 5
/// makes the state after every group collision-free, so a collision means
/// the array was tampered with.
///
/// Every item's label is recomputed from its rank (see [`Ranks`]). Its
/// bits that an earlier sweep ran must be clear, and in the last sweep so
/// must the bits a later one would run. One read pass and one write pass
/// over the data, in a block order fixed by the shape; a streamed row table
/// adds its own fixed-order reads and writes.
fn sweep<S: BlockStore>(
    store: &mut S,
    data: &ArrayHandle,
    budget: &mut CacheBudget,
    w: usize,
    mut pass: Sweep,
) -> Result<(usize, Option<RowTable>), OdoError> {
    let (n, b, nb) = (data.len(), data.block_elems(), data.n_blocks());
    let (i0, len) = pass.levels;
    let expanding = pass.targets.is_some();
    let k = ((1usize << i0) / b).max(1); // 2^i0 < N, so k < ⌈N/B⌉
    let low = |i: usize| (1u64 << i) - 1;
    let mask = low(i0 + len) & !low(i0);
    let (spent, pending) = if expanding {
        (!low(i0 + len), low(i0))
    } else {
        (low(i0), !low(i0 + len))
    };
    let targets = pass.targets.unwrap_or(&[]);
    let check_prefix = matches!(pass.ranks, Ranks::Targets { first: true });
    // The rank base of the next `count` items of a compaction, given the
    // `run` items before them.
    let advance = |run: &mut usize, count: usize| {
        let base = *run;
        *run = run.saturating_add(count);
        base
    };

    let slots = w / b + 1;
    budget.acquire(slots * b);
    let mut ring: Vec<Option<Block>> = vec![None; slots];
    let mut seen = 0usize;
    for c in 0..k {
        let col = Column {
            c,
            k,
            b,
            blocks: (nb - c).div_ceil(k),
        };
        let at = |i: usize| if expanding { col.blocks - 1 - i } else { i };
        let schedule: Vec<usize> = (0..col.blocks).map(|i| col.block(at(i))).collect();
        store.hint_blocks(data, &schedule);
        let mut run = 0usize;
        for i in 0..col.blocks {
            let v = at(i);
            if i >= slots {
                flush(store, data, &col, at(i - slots), &mut ring, &mut pass.next)?;
            }
            let mut blk = store.try_load_block(data, col.block(v))?;
            let occ = blk.occupancy();
            seen += occ;
            let p0 = col.block(v) * b;
            let base = match &mut pass.ranks {
                Ranks::Running => advance(&mut run, occ),
                Ranks::Rows(table) => {
                    let entry = table.entry(store, v)?;
                    let base = if c == 0 {
                        advance(&mut run, *entry as usize)
                    } else {
                        *entry as usize
                    };
                    *entry = base.saturating_add(occ) as u64;
                    base
                }
                Ranks::Targets { .. } => expansion_rank(targets, i0 + len, p0),
            };
            let mut passed = 0;
            for j in 0..b {
                let s = if expanding { b - 1 - j } else { j };
                let (x, p) = (v * b + s, p0 + s);
                let cell = blk.get(s);
                if check_prefix && p < n && (p < targets.len()) != cell.is_some() {
                    return Err(OdoError::InvalidArgument {
                        reason: if p < targets.len() {
                            "expand expects an occupied prefix of length targets.len()"
                        } else {
                            "expand expects dummies after the occupied prefix"
                        },
                    });
                }
                let Some(item) = cell else {
                    continue;
                };
                if p >= n {
                    return Err(corrupt("an item sits past the array end", p));
                }
                let rank = if expanding {
                    base.saturating_add(occ - 1 - passed)
                } else {
                    base.saturating_add(passed)
                };
                passed += 1;
                let d = match pass.targets {
                    None => p.checked_sub(rank),
                    Some(ts) => ts.get(rank).and_then(|&t| t.checked_sub(p)),
                }
                .ok_or(corrupt("a rank that disagrees with the item's position", p))?
                    as u64;
                if d & spent != 0 {
                    return Err(corrupt(
                        "a distance with bits an earlier butterfly level should have spent",
                        p,
                    ));
                }
                if pass.last && d & pending != 0 {
                    return Err(corrupt(
                        "a distance left over after the last butterfly level",
                        p,
                    ));
                }
                let delta = ((d & mask) / k as u64) as usize;
                if delta == 0 {
                    continue;
                }
                let target = if expanding {
                    Some(x + delta)
                } else {
                    x.checked_sub(delta)
                };
                // Past either end of the column means past the array.
                let Some(y) = target.filter(|&y| col.cell(y) < n) else {
                    return Err(corrupt("no item may be routed out of the array", p));
                };
                blk.set(s, None);
                let dest = if y / b == v {
                    &mut blk
                } else {
                    ring[(y / b) % slots]
                        .as_mut()
                        .expect("a move shorter than W lands in the ring")
                };
                if dest.get(y % b).is_some() {
                    return Err(corrupt(
                        "butterfly routing collision: two items at one cell (invalid distance labels)",
                        col.cell(y),
                    ));
                }
                dest.set(y % b, Some(item));
            }
            ring[v % slots] = Some(blk);
        }
        for i in col.blocks.saturating_sub(slots)..col.blocks {
            flush(store, data, &col, at(i), &mut ring, &mut pass.next)?;
        }
        if let Ranks::Rows(table) = &mut pass.ranks {
            table.end_column(store)?;
        }
        if let Some(table) = &mut pass.next {
            table.end_column(store)?;
        }
    }
    budget.release(slots * b);
    if let Ranks::Rows(table) = &pass.ranks {
        budget.release(table.words());
    }
    if pass.total.is_some_and(|t| t != seen) {
        return Err(corrupt("the item count changed between sweeps", 0));
    }
    Ok((seen, pass.next))
}

/// The rank of the first expansion item at or after position `p` once the
/// levels `≥ i` have run (see [`Ranks::Targets`]).
fn expansion_rank(targets: &[usize], i: usize, p: usize) -> usize {
    let (mut lo, mut hi) = (0, targets.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        let d = targets[mid] - mid;
        if targets[mid] - (d & ((1 << i) - 1)) < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Writes virtual block `v` of `col` back from the ring, adding its items to
/// the next sweep's row table.
fn flush<S: BlockStore>(
    store: &mut S,
    data: &ArrayHandle,
    col: &Column,
    v: usize,
    ring: &mut [Option<Block>],
    next: &mut Option<RowTable>,
) -> Result<(), StoreError> {
    let slots = ring.len();
    let blk = ring[v % slots]
        .take()
        .expect("every ring block is loaded before it is written back");
    let block = col.block(v);
    if let Some(table) = next {
        *table.entry(store, block / table.stride)? += blk.occupancy() as u64;
    }
    store.try_store_block(data, block, blk)
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
        let report = run(&mut mem, &h, m, None).unwrap();
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
            (700, 8, 88),  // M = 11B: W = 8B, tables in the cache
            (1500, 8, 96), // M = 12B, n mod B = 4
            (4000, 4, 32), // M = 8B: W = 4B, the stride-4 table streams
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
            run(&mut mem, &h, m, None).unwrap();
            let report = run(&mut mem, &h, m, Some(&targets)).unwrap();
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
        run(&mut mem, &h, 32, Some(&targets)).unwrap();
        assert_eq!(
            mem.snapshot_cells(&h),
            butterfly::expand(&compacted, &targets)
        );
    }

    /// Asserts `err` is an argument refusal whose message names `what`.
    fn assert_invalid(err: OdoError, what: &str) {
        assert!(matches!(err, OdoError::InvalidArgument { .. }), "{err:?}");
        assert!(err.to_string().contains(what), "{err}");
    }

    #[test]
    fn expand_rejects_non_monotone_targets() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array(16);
        let err = try_expand(&mut mem, &h, &[2, 1], 16, RetryPolicy::default()).unwrap_err();
        assert_invalid(err, "strictly increasing");
        assert_eq!(mem.stats().total(), 0, "refused before any I/O");
    }

    #[test]
    fn tiny_cache_is_rejected() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array(64);
        let err = try_compact(&mut mem, &h, 32, RetryPolicy::default()).unwrap_err();
        assert_invalid(err, "at least eight blocks");
    }

    #[test]
    fn external_path_rejects_odd_block_size() {
        let mut mem = ExtMem::new(6);
        let h = mem.alloc_array(600);
        let err = try_compact(&mut mem, &h, 48, RetryPolicy::default()).unwrap_err();
        assert_invalid(err, "power-of-two block size");
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
        // N = 1024, B = 8, M = 64: W = 32 -> 5 in-cache levels, levels = 10,
        // external = 5, two levels per sweep (W = 4B).
        let cells = occupancy(1024, 2, 1, 2);
        let (_, report) = run_compact(&cells, 8, 64);
        assert_eq!(report.levels, 10);
        assert_eq!(report.window_elems, 32);
        assert_eq!(report.in_cache_levels, 5);
        assert_eq!(report.external_levels, 5);
        assert_eq!(report.external_passes, 3);
    }

    #[test]
    fn try_compact_reports_argument_failures_as_errors() {
        // A cache below 8 blocks.
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

        // The same two mismatches through the external path, where the first
        // sweep computes the labels.
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
        // W = 32 = 4B: the head window and the 4 external levels, two per
        // sweep, make S = 3 sweeps of 2·⌈N/B⌉ I/Os. The stride-4 row table
        // (16 rows, two blocks) streams: the head window reads and writes
        // both blocks once, and each of the 4 columns of the next sweep
        // does too.
        assert_eq!(a.io.total(), 64 * 2 * 3 + 2 * 2 + 4 * 2 * 2);
        // M = 2^10: W = 512, so the 4 external levels of N = 4097 run in
        // one sweep (W/B = 64) and the 9-row table stays in cache: S = 2.
        let d = run_compact(&occupancy(4097, 1, 1, 2), 8, 1 << 10).1;
        assert_eq!(d.io.total(), 513 * 2 * 2);
        assert_eq!((d.external_levels, d.external_passes), (4, 1));
    }

    /// `N = 64, B = 4, M = 32`: `W = 16`, levels = 6, so a compaction is
    /// the head window (levels 0..4) and one column sweep of stride 4
    /// (levels 4 and 5). Every third cell is occupied: item `m` sits at
    /// `3m` and travels `2m`, so after the head window the 22 items sit at
    /// `0..8`, `24..32` and `48..54`, and the rows of 16 cells hold
    /// `[8, 8, 0, 6]` items.
    fn every_third() -> Vec<Cell> {
        (0..64u64).map(|i| (i % 3 == 0).then(|| e(i))).collect()
    }

    /// The head window of that compaction, filling the stride-4 table.
    fn head_sweep(mem: &mut ExtMem, h: &ArrayHandle) -> (usize, RowTable) {
        let mut budget = CacheBudget::new(32);
        let next = Some(RowTable::new(mem, &mut budget, 4, 16, 8));
        let pass = Sweep {
            levels: (0, 4),
            targets: None,
            total: None,
            ranks: Ranks::Running,
            next,
            last: false,
        };
        let (seen, table) = sweep(mem, h, &mut budget, 16, pass).unwrap();
        (seen, table.unwrap())
    }

    fn column_sweep(
        mem: &mut ExtMem,
        h: &ArrayHandle,
        total: usize,
        table: RowTable,
    ) -> Result<usize, OdoError> {
        let mut budget = CacheBudget::new(32);
        budget.acquire(table.words());
        let pass = Sweep {
            levels: (4, 2),
            targets: None,
            total: Some(total),
            ranks: Ranks::Rows(table),
            next: None,
            last: true,
        };
        sweep(mem, h, &mut budget, 16, pass).map(|(seen, _)| seen)
    }

    #[test]
    fn the_head_window_fills_the_row_table_the_column_sweep_reads() {
        let cells = every_third();
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&cells);
        let (seen, mut table) = head_sweep(&mut mem, &h);
        assert_eq!(seen, 22);
        let rows: Vec<u64> = (0..4).map(|r| *table.entry(&mut mem, r).unwrap()).collect();
        assert_eq!(rows, [8, 8, 0, 6]);
        assert_eq!(column_sweep(&mut mem, &h, seen, table).unwrap(), 22);
        assert_eq!(mem.snapshot_cells(&h), reference_compact(&cells));
    }

    #[test]
    fn a_row_table_that_overcounts_is_a_rank_disagreeing_with_the_position() {
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&every_third());
        let (seen, mut table) = head_sweep(&mut mem, &h);
        // Row 0 claims 40 more items: the first item of row 3 (cell 48)
        // gets rank 56.
        *table.entry(&mut mem, 0).unwrap() += 40;
        let err = column_sweep(&mut mem, &h, seen, table).unwrap_err();
        assert!(matches!(err, OdoError::CorruptedRouting { cell: 48, .. }));
        assert!(err
            .to_string()
            .contains("disagrees with the item's position"));
    }

    #[test]
    fn an_item_dropped_between_sweeps_is_corrupted_routing() {
        // Dropping cell 2 shifts the ranks after it: the item at cell 3
        // gets rank 2 and an odd distance, a bit the head window should
        // have spent.
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&every_third());
        let (seen, table) = head_sweep(&mut mem, &h);
        let mut first = mem.try_load_block(&h, 0).unwrap();
        first.set(2, None);
        mem.try_store_block(&h, 0, first).unwrap();
        let err = column_sweep(&mut mem, &h, seen, table).unwrap_err();
        assert!(matches!(err, OdoError::CorruptedRouting { cell: 3, .. }));
        assert!(err.to_string().contains("should have spent"));

        // Dropping the last item leaves every rank intact; the count
        // still disagrees with the one the head window saw.
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&every_third());
        let (seen, table) = head_sweep(&mut mem, &h);
        let mut last = mem.try_load_block(&h, 13).unwrap();
        last.set(1, None);
        mem.try_store_block(&h, 13, last).unwrap();
        let err = column_sweep(&mut mem, &h, seen, table).unwrap_err();
        assert!(err.to_string().contains("item count changed"));
    }

    #[test]
    fn a_distance_left_over_after_the_last_level_is_corrupted_routing() {
        // A head window that is told no sweep follows: item 8 (cell 24)
        // travels 16 cells, a bit no level it runs can spend.
        let mut mem = ExtMem::new(4);
        let h = mem.alloc_array_from_cells(&every_third());
        let mut budget = CacheBudget::new(32);
        let pass = Sweep {
            levels: (0, 4),
            targets: None,
            total: None,
            ranks: Ranks::Running,
            next: None,
            last: true,
        };
        let err = sweep(&mut mem, &h, &mut budget, 16, pass)
            .map(|(seen, _)| seen)
            .unwrap_err();
        assert!(matches!(err, OdoError::CorruptedRouting { cell: 24, .. }));
        assert!(err.to_string().contains("left over after the last"));
    }

    #[test]
    fn no_label_array_is_allocated() {
        // N = 4097, B = 8, M = 2^10: the 9-row table stays in the cache, so
        // neither direction allocates on the server.
        let cells = occupancy(4097, 6, 1, 2);
        let targets: Vec<usize> = (0..cells.len()).filter(|&j| cells[j].is_some()).collect();
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let before = mem.allocated_blocks();
        run(&mut mem, &h, 1 << 10, None).unwrap();
        run(&mut mem, &h, 1 << 10, Some(&targets)).unwrap();
        assert_eq!(mem.allocated_blocks(), before);
        assert_eq!(mem.snapshot_cells(&h), cells);
        // N = 512, B = 8, M = 64: the 16-row stride-4 table outgrows the 12
        // entries left per table, and two server blocks hold it.
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells[..512]);
        let before = mem.allocated_blocks();
        run(&mut mem, &h, 64, None).unwrap();
        assert_eq!(mem.allocated_blocks(), before + 2);
        assert_eq!(mem.snapshot_cells(&h), reference_compact(&cells[..512]));
    }

    #[test]
    fn an_item_past_the_array_end_is_corrupted_routing() {
        // N = 100, B = 8: the last block holds 4 cells and 4 slots past the
        // end. A store that fills one of those slots gets no label for it,
        // in either direction, and the first sweep refuses to route it.
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&occupancy(100, 4, 1, 2));
        let mut last = mem.try_load_block(&h, 12).unwrap();
        last.set(6, Some(e(99)));
        mem.try_store_block(&h, 12, last).unwrap();
        let err = run(&mut mem, &h, 64, None).unwrap_err();
        assert!(matches!(err, OdoError::CorruptedRouting { cell: 102, .. }));

        let mut mem = ExtMem::new(8);
        let mut cells: Vec<Cell> = vec![None; 104];
        cells[0] = Some(e(0));
        cells[102] = Some(e(1));
        let h = mem.alloc_array_from_cells(&cells[..100]);
        mem.try_store_block(&h, 12, Block::from_cells(&cells[96..]))
            .unwrap();
        let err = run(&mut mem, &h, 64, Some(&[50])).unwrap_err();
        assert!(matches!(err, OdoError::CorruptedRouting { cell: 102, .. }));
    }
}

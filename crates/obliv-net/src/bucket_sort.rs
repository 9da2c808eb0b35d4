//! Randomized bucket oblivious sort — beating the Lemma 2 squared log.
//!
//! The Lemma 2 external bitonic sort pays `O((N/B)·log²(N/M))` I/Os. This
//! module implements the randomized alternative from *Bucket Oblivious Sort*
//! (Asharov, Chan, Nayak, Pass, Ren, Shi; see PAPERS.md), adapted to the
//! external-memory outsourced-data model, landing at
//! `O((N/B)·log_{M/B}(N/B))` I/Os — the external-memory sorting optimum —
//! for every practical shape:
//!
//! 1. **Random bin assignment.** Each occupied cell is assigned a uniform
//!    routing tag derived from `hash(position, seed)`. The array is cut into
//!    `2^L` buckets of capacity `Z`, each initially at most half full.
//! 2. **Butterfly routing.** `L` levels of the oblivious 2-way [`merge_split`]
//!    primitive route every item to the bucket named by its tag. Levels are
//!    grouped into *superlevels* of `γ = ⌊log2(M/Z)⌋` consecutive levels each:
//!    a superlevel loads a group of `2^γ` buckets into the private cache,
//!    routes all `γ` levels CPU-side, and writes the group back — so the
//!    whole butterfly costs `⌈L/γ⌉ ≈ log_{M/B}(N/B)` passes over the bucket
//!    array instead of `L` passes. In cache the chained nodes need not run
//!    one by one: a counting pass per level over the tags finds the first
//!    bucket the chain would overflow, and one stable scatter by tag does
//!    the routing, since chained MergeSplit leaves every bucket in (source
//!    bucket, position) order.
//! 3. **Dummy removal + run formation.** The last superlevel keeps each
//!    group in cache, with the bucket padding dropped as its blocks load
//!    (the §3 tight compaction degenerates to a stable pack in cache), checks
//!    its routing levels for overflow, sorts the survivors with a plain
//!    `sort_unstable_by`, and writes them as a sorted block-aligned run over
//!    the group's own bucket blocks, in the order it just read them: run
//!    block `t` lands in block `t mod (Z/B)` of member bucket `⌊t/(Z/B)⌋`.
//!    Nothing reads those buckets again, and the run (at most `2^γ·Z`
//!    items) fits in them. Work inside the private cache is invisible to
//!    the server, so no sorting network is needed there.
//! 4. **`M/B`-way merge.** The runs are merged with a classic multi-way
//!    merge of fan-in `≈ M/B`, picking each output from a binary heap of run
//!    heads keyed by `(head, run index)`. The first pass reads each run
//!    through its shape-only block map straight from the bucket array;
//!    when more runs remain than the fan-in, the passes ping-pong between
//!    one extra array of `⌈N/B⌉ + runs` blocks and the bucket array, each
//!    pass's runs back to back. Because step 2 delivered a uniformly random
//!    permutation of the items, the merge's data-dependent read order leaks
//!    nothing about the *input* when its elements are distinct under `cmp`
//!    — this is exactly the random-shuffle argument of the bucket-sort
//!    paper (and of oblivious shuffle-then-sort designs generally). Ties
//!    break that argument: tied heads drain in run-index order, so with
//!    repeated elements, or under a key-only comparator such as the ORAM's
//!    pass-5 re-sort, the read order shows roughly how many distinct keys
//!    the input has. Counting the non-consecutive block reads in the last
//!    third of the read trace at `N = 2^13, B = 8, M = 2^9` gives
//!    1,553–1,571 for distinct keys, about 670 for 8 keys under a key-only
//!    comparator and 221–227 for one element repeated `N` times.
//!
//! The server space is the input plus one bucket array of `2^L·Z ≥ 2N`
//! cells, reused by every seed re-roll, plus the ping-pong array only for a
//! multi-pass merge.
//!
//! # Spans
//!
//! Each contiguous run moves as one span ([`BlockStore::try_load_span`] /
//! [`BlockStore::try_store_span`]), whose length is a function of the shape
//! alone and whose cells are charged to the sort's [`CacheBudget`] while
//! they are resident:
//!
//! * distribution reads the group's input chunk in spans of as many blocks
//!   as the cache leaves beside the chunk's items and their tags (a group
//!   takes at most `2^γ·Z/2` input cells);
//! * a superlevel loads and writes each member bucket as one span of `Z`
//!   cells when the cache leaves room for one beside the group's worst case
//!   (`2^γ·Z` items with their tags, `2^γ·Z/2` at distribution), and block
//!   by block otherwise — at `Z = M/2, γ = 1`, and in the last superlevel of
//!   the headline shape, whose groups fill the cache;
//! * run formation writes each run piece (a run's blocks in one member
//!   bucket) as one span. Its items leave the charge as they move into the
//!   span, whose only other cells pad the run's last block, so the charge
//!   never exceeds what block-at-a-time writing holds.
//!
//! So no shape gains a budget failure or a re-roll, and a span reads or
//! writes its blocks in the order the per-block sweep did: the trace is
//! unchanged. A sweep read block by block is hinted, so a prefetching store
//! can read ahead; a span needs no hint. The merge keeps its data-dependent
//! block reads.
//!
//! # Fresh tags per superlevel
//!
//! `extmem::Element` has no spare bits to carry an `L`-bit label through the
//! store, and a parallel label array would double the butterfly's I/O —
//! enough to lose to Lemma 2 at small `N/M`. Instead each superlevel draws a
//! *fresh* `γ`-bit tag per item from `hash(slot, salt_s)`, where `slot` is
//! the (distinct) global slot the item currently occupies and `salt_s` is a
//! per-superlevel salt. The final bucket index is the concatenation of
//! independent uniform draws, hence uniform — nothing needs to persist
//! server-side but the items themselves.
//!
//! # What is (and is not) hidden
//!
//! Steps 1–2 have a fixed, shape-determined trace. Step 3's run lengths and
//! step 4's interleaving depend on the seed and the occupancy (the blocks a
//! run may occupy are fixed by the shape), which is safe by the shuffle
//! argument above for distinct elements, and reveals roughly how many
//! distinct keys there are otherwise (step 4). So the bucket sort's trace
//! is a deterministic function of `(shape, seed, data)`, not of shape alone
//! like the Lemma 2 sort's. The guarantees tested here are: byte-identical
//! traces across backends (plaintext vs encrypted) and across reruns with
//! the same seed. Callers who need a shape-only trace, or whose inputs
//! repeat keys under their comparator, keep the Lemma 2 engine.
//!
//! # Overflow and seed re-rolls
//!
//! A bucket receives `Bin(2μ, 1/2)` items per level with mean `μ ≤ Z/2`, so
//! a level overflows with probability at most `exp(−Z/6)` per bucket
//! (`≈ 5·10⁻¹⁰` at the default `Z = 128`). The capacity knob is
//! [`BucketSortConfig::z`].
//!
//! Overflow is not the only tail event. Resident items are charged one
//! element slot each, plus one slot per four items for their 32-bit routing
//! tags (a tag is a quarter of an element slot), plus one block for whichever
//! block is being streamed — the *actual* occupancy, which is data-dependent
//! (fine: the budget models the client's private memory, invisible to the
//! adversary). Because groups pack densely (`2^γ·Z ≤ M`), a freakishly
//! skewed assignment can push a resident group far past its expected
//! half-full state and exhaust the budget before any single bucket formally
//! overflows — most likely at tight shapes like `Z = M/2`, `γ = 1`.
//!
//! Both events are tails of the same random assignment and get the same
//! treatment: the sort *re-rolls internally* with a derived seed
//! (`hash(attempt, seed)` — still a deterministic function of the config, so
//! traces stay reproducible) and restarts from the input array, which is
//! never modified before the final merge's shape-determined budget has been
//! secured; the runs and merge passes only ever live in the bucket and
//! ping-pong arrays. Only after four attempts fail does the typed error
//! ([`BucketSortError::Overflow`] or a `BudgetExceeded` store error) reach
//! the caller; [`BucketSortReport::attempts`] records the re-rolls.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use extmem::element::Cell;
use extmem::util::{hash64, ilog2_floor, next_pow2};
use extmem::{ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, StoreError};

/// Default minimum bucket capacity: `exp(−128/6) ≈ 5·10⁻¹⁰` per-bucket
/// overflow probability.
const DEFAULT_MIN_BUCKET_CAPACITY: usize = 128;

/// Routing attempts before a tail event (bucket overflow or a freak-skew
/// budget exhaustion) surfaces as the typed error. Attempt `k > 0` re-rolls
/// the assignment with seed `hash(k, cfg.seed)`, so the whole retry ladder
/// is a deterministic function of the config.
const MAX_SEED_ATTEMPTS: usize = 4;

/// Per-cursor hint window (in blocks) for the multi-way merge. Deep enough
/// that a prefetching store can coalesce a run's reads into spans, shallow
/// enough that `fan_in × MERGE_LOOKAHEAD` outstanding hints stay well under
/// a prefetcher's ready budget at the grid points we benchmark.
const MERGE_LOOKAHEAD: usize = 8;

/// Tuning knobs for [`bucket_oblivious_sort_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketSortConfig {
    /// Seed for the random bin assignment. Same seed + same input ⇒
    /// byte-identical trace and output.
    pub seed: u64,
    /// Bucket capacity `Z` (power of two, `B ≤ Z ≤ M/2`, so a two-bucket
    /// MergeSplit group stays resident). `None` picks the capacity that
    /// minimizes butterfly passes, preferring larger buckets (lower overflow
    /// probability) on ties, with a floor of 128.
    pub z: Option<usize>,
}

impl BucketSortConfig {
    /// Config with the given seed and automatic bucket capacity.
    pub fn seeded(seed: u64) -> Self {
        BucketSortConfig { seed, z: None }
    }

    /// Config with an explicit bucket capacity.
    pub fn with_bucket_capacity(seed: u64, z: usize) -> Self {
        BucketSortConfig { seed, z: Some(z) }
    }
}

impl Default for BucketSortConfig {
    fn default() -> Self {
        BucketSortConfig {
            seed: 0x0b5e_55ed_0dd5_0bb5,
            z: None,
        }
    }
}

/// What a bucket sort did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketSortReport {
    /// I/Os charged to this sort (reads + writes deltas).
    pub io: IoStats,
    /// Bucket capacity `Z` actually used (0 on the in-cache path).
    pub z: usize,
    /// Number of butterfly buckets `2^L` (0 on the in-cache path).
    pub buckets: usize,
    /// Butterfly depth `L` in MergeSplit levels.
    pub levels: usize,
    /// External passes over the bucket array (`⌈L/γ⌉`).
    pub superlevels: usize,
    /// Sorted runs emitted by the last superlevel.
    pub runs: usize,
    /// Multi-way merge passes over the runs (≥ 1 on the external path).
    pub merge_passes: usize,
    /// Occupied (non-dummy) input cells; the output is exactly this prefix.
    pub occupied: usize,
    /// Routing attempts consumed: 1 when the first assignment succeeded,
    /// more when tail events (overflow or freak-skew budget exhaustion)
    /// forced internal seed re-rolls. `io` includes the abandoned attempts.
    pub attempts: usize,
    /// Whether the whole array fit in the private cache.
    pub in_cache: bool,
}

/// A [`merge_split`] output bucket exceeded its capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeSplitOverflow {
    /// Which output overflowed: 0 = the bit-clear side, 1 = the bit-set side.
    pub side: usize,
    /// How many items wanted that side.
    pub size: usize,
    /// The bucket capacity that was exceeded.
    pub capacity: usize,
    /// The tag bit the node split on.
    pub bit: u32,
}

impl fmt::Display for MergeSplitOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merge-split overflow: {} items routed to side {} of a bucket of capacity {} (bit {})",
            self.size, self.side, self.capacity, self.bit
        )
    }
}

impl Error for MergeSplitOverflow {}

/// Everything a bucket sort can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BucketSortError {
    /// A bucket exceeded its capacity `Z` during butterfly routing. Retry
    /// with a fresh seed; the probability is `≈ exp(−Z/6)` per bucket-level.
    Overflow {
        /// Superlevel (external pass) in which the overflow happened.
        superlevel: usize,
        /// MergeSplit level within the superlevel.
        level: usize,
        /// Global index of the bucket that overflowed.
        bucket: usize,
        /// How many items wanted the bucket.
        size: usize,
        /// The configured bucket capacity `Z`.
        capacity: usize,
    },
    /// The arguments don't describe a runnable sort (bad `Z`, cache too
    /// small, non-power-of-two blocks, …).
    InvalidArgument {
        /// Human-readable validation failure.
        reason: &'static str,
    },
    /// The store failed, or a data-dependent cache high-water mark exceeded
    /// the private-memory budget.
    Store(StoreError),
}

impl fmt::Display for BucketSortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BucketSortError::Overflow {
                superlevel,
                level,
                bucket,
                size,
                capacity,
            } => write!(
                f,
                "bucket overflow at superlevel {superlevel} level {level}: \
                 {size} items routed to bucket {bucket} of capacity {capacity}"
            ),
            BucketSortError::InvalidArgument { reason } => write!(f, "{reason}"),
            BucketSortError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BucketSortError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BucketSortError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for BucketSortError {
    fn from(e: StoreError) -> Self {
        BucketSortError::Store(e)
    }
}

/// Why one routing attempt failed.
#[derive(Debug)]
enum AttemptError {
    /// A tail event of the random assignment — a bucket overflow, or the
    /// sort's own cache budget running out on a freakishly skewed group.
    /// Every [`BucketSortError`] raised inside an attempt is one; the sort
    /// re-rolls the seed.
    Tail(BucketSortError),
    /// A block I/O failed; the sort gives up.
    Store(StoreError),
}

impl From<BucketSortError> for AttemptError {
    fn from(e: BucketSortError) -> Self {
        AttemptError::Tail(e)
    }
}

impl From<StoreError> for AttemptError {
    fn from(e: StoreError) -> Self {
        AttemptError::Store(e)
    }
}

/// The two output buckets of a [`merge_split`] node: `(bit-clear side,
/// bit-set side)`, each a bucket of `(item, tag)` pairs.
pub type MergeSplitOutput<T> = (Vec<(T, u32)>, Vec<(T, u32)>);

/// One oblivious 2-way MergeSplit node (the *Bucket Oblivious Sort*
/// primitive): takes two buckets of `(item, tag)` pairs and splits their
/// union by bit `bit` of the tag — bit clear to the first output, bit set to
/// the second — preserving input order (`a`'s items before `b`'s) on both
/// sides. Fails if either side would exceed `capacity` items.
///
/// Executed inside the private cache, so the node itself produces no I/O;
/// the obliviousness of the network comes from the fixed schedule of bucket
/// loads and stores around it. This is the specification of one node: the
/// sort routes a whole cache-resident group at once with counts and a
/// scatter, and its tests check that against chained calls of this function.
pub fn merge_split<T>(
    a: Vec<(T, u32)>,
    b: Vec<(T, u32)>,
    bit: u32,
    capacity: usize,
) -> Result<MergeSplitOutput<T>, MergeSplitOverflow> {
    let mut lo: Vec<(T, u32)> = Vec::new();
    let mut hi: Vec<(T, u32)> = Vec::new();
    for pair in a.into_iter().chain(b) {
        if (pair.1 >> bit) & 1 == 0 {
            lo.push(pair);
        } else {
            hi.push(pair);
        }
    }
    if lo.len() > capacity {
        return Err(MergeSplitOverflow {
            side: 0,
            size: lo.len(),
            capacity,
            bit,
        });
    }
    if hi.len() > capacity {
        return Err(MergeSplitOverflow {
            side: 1,
            size: hi.len(),
            capacity,
            bit,
        });
    }
    Ok((lo, hi))
}

/// Sorts array `h` by the total order `cmp` on occupied cells, dummies
/// last, using at most `cache_elems` words of private memory.
///
/// Same contract as the Lemma 2 sort
/// ([`try_external_oblivious_sort_by`](crate::external_sort::try_external_oblivious_sort_by)),
/// with two deltas: the trace depends on `(shape, cfg.seed, data)` rather
/// than shape alone (see the module docs), and failure is a typed
/// [`BucketSortError`]. `cmp` is only ever consulted on occupied (`Some`)
/// cells: the bucket sort removes dummies structurally and always emits them
/// after every occupied cell, whatever `cmp` says about `None`.
pub fn bucket_oblivious_sort_by<S, F>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    cfg: &BucketSortConfig,
    cmp: &F,
) -> Result<BucketSortReport, BucketSortError>
where
    S: BlockStore,
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = h.block_elems();
    let n = h.len();
    let start = store.io_stats();
    let ecmp = |x: &Element, y: &Element| cmp(&Some(*x), &Some(*y));

    if n <= 1 {
        return Ok(BucketSortReport {
            occupied: if n == 1 {
                usize::from(store.try_load_span(h, 0, n)?[0].is_some())
            } else {
                0
            },
            io: store.io_stats() - start,
            attempts: 1,
            in_cache: true,
            ..BucketSortReport::default()
        });
    }

    // In-cache path: one read pass + one write pass.
    let whole = n.div_ceil(b) * b;
    if whole <= cache_elems {
        let mut budget = CacheBudget::new(cache_elems);
        budget.try_acquire(whole).map_err(BucketSortError::Store)?;
        let cells = store.try_load_span(h, 0, n)?;
        let mut reals: Vec<Cell> = cells.iter().filter(|c| c.is_some()).copied().collect();
        let occupied = reals.len();
        reals.sort_unstable_by(cmp);
        reals.resize(n, None);
        store.try_store_span(h, 0, &reals)?;
        budget.release(whole);
        return Ok(BucketSortReport {
            io: store.io_stats() - start,
            occupied,
            attempts: 1,
            in_cache: true,
            ..BucketSortReport::default()
        });
    }

    if !b.is_power_of_two() {
        return Err(BucketSortError::InvalidArgument {
            reason: "bucket sort's external path requires a power-of-two block size",
        });
    }
    if cache_elems < 8 * b {
        return Err(BucketSortError::InvalidArgument {
            reason: "bucket sort needs a private cache of at least eight blocks (M >= 8B)",
        });
    }

    let planned = Layout::plan(n, b, cache_elems, cfg)?;
    // One bucket array serves every attempt: superlevel 0 rewrites all of
    // it before anything reads it. The merge's second array is allocated
    // by the first pass that needs one.
    let buckets = store.alloc_array(planned.buckets * planned.z);
    let mut pong = None;
    let mut last_tail_error = None;
    for attempt in 0..MAX_SEED_ATTEMPTS {
        let layout = Layout {
            seed: if attempt == 0 {
                cfg.seed
            } else {
                hash64(attempt as u64, cfg.seed)
            },
            ..planned
        };
        match run_external(store, h, &buckets, &mut pong, cache_elems, &layout, &ecmp) {
            Ok((occupied, runs, merge_passes)) => {
                return Ok(BucketSortReport {
                    io: store.io_stats() - start,
                    z: layout.z,
                    buckets: layout.buckets,
                    levels: layout.levels,
                    superlevels: layout.superlevels,
                    runs,
                    merge_passes,
                    occupied,
                    attempts: attempt + 1,
                    in_cache: false,
                });
            }
            // Tail events of the random assignment: re-roll the seed. A
            // failed block I/O propagates.
            Err(AttemptError::Tail(e)) => last_tail_error = Some(e),
            Err(AttemptError::Store(e)) => return Err(BucketSortError::Store(e)),
        }
    }
    Err(last_tail_error.expect("at least one routing attempt ran"))
}

/// One full external-path attempt under `layout.seed`: distribute, route,
/// finish, multi-way merge. Returns `(occupied, runs, merge_passes)`.
///
/// `scratch` is the bucket array. The last superlevel writes each group's
/// sorted run over the group's own buckets, so the first merge pass reads
/// the runs straight from `scratch`; when one pass cannot merge them all,
/// the passes ping-pong between `*pong` (allocated on first use, kept
/// across attempts) and `scratch`, whose buckets are dead by then.
///
/// Retry soundness: the input array `h` is only written by the final
/// `merge_runs` call, whose shape-determined budget charge is acquired
/// before its first write and cannot fail (fan-in is planned to fit `M`).
/// Runs and merge passes live in `scratch` and `*pong` only, and
/// superlevel 0 rewrites every bucket from `h` before anything reads one.
/// Every data-dependent failure — routing overflow, freak-skew budget
/// exhaustion — therefore happens while `h` is still intact, so the caller
/// may re-roll the seed and run the attempt again over the same arrays.
fn run_external<S, F>(
    store: &mut S,
    h: &ArrayHandle,
    scratch: &ArrayHandle,
    pong: &mut Option<ArrayHandle>,
    cache_elems: usize,
    layout: &Layout,
    ecmp: &F,
) -> Result<(usize, usize, usize), AttemptError>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let n = layout.n;
    let b = layout.b;
    let mut budget = CacheBudget::new(cache_elems);
    let mut group = Group::default();

    // Phase 1+2a: distribute into half-full buckets and route the first
    // superlevel, fused (the input chunk read doubles as the bucket load).
    let mut occupied = 0usize;
    let grp0 = 1usize << layout.width(0);
    for gidx in 0..layout.buckets / grp0 {
        occupied += distribute_group(store, h, scratch, layout, gidx, &mut budget, &mut group)?;
    }

    // Phase 2b: the middle superlevels, each a full pass over the buckets.
    for s in 1..layout.superlevels - 1 {
        let grp = 1usize << layout.width(s);
        for gidx in 0..layout.buckets / grp {
            route_group(store, scratch, layout, s, gidx, &mut budget, &mut group)?;
        }
    }

    // Phase 2c+3: last superlevel fused with dummy removal and run
    // formation. One block-aligned sorted run per group, over the group's
    // own buckets.
    let s_last = layout.superlevels - 1;
    let run_count = layout.buckets >> layout.width(s_last);
    let mut runs: Vec<RunMeta> = Vec::with_capacity(run_count);
    for gidx in 0..run_count {
        runs.push(finish_group(
            store,
            scratch,
            layout,
            s_last,
            gidx,
            &mut budget,
            &mut group,
            ecmp,
        )?);
    }
    // The runs hold the sort's items, never more than its output does;
    // more means the server filled bucket padding between passes.
    if runs.iter().map(|r| r.reals).sum::<usize>() > n {
        return Err(StoreError::Corrupted {
            addr: scratch.global_block(0),
        }
        .into());
    }

    // Phase 4: merge the runs with fan-in ≈ M/B, ping-ponging between
    // `pong` and the bucket array until one pass suffices, then merge into
    // `h`. A pass's runs are contiguous: each is block-aligned and at most
    // one block longer than its items, so a pass fits `⌈N/B⌉ + runs`
    // blocks, which the bucket array (`2^L·Z ≥ 2N` cells) also holds.
    let fan = ((cache_elems - b) / (b + 2)).max(2);
    let mut merge_passes = 0usize;
    let mut src = *scratch;
    let mut src_runs = runs;
    loop {
        if src_runs.len() <= fan {
            merge_runs(store, &src, &src_runs, h, 0, Some(n), &mut budget, ecmp)?;
            merge_passes += 1;
            break;
        }
        let dst = if src == *scratch {
            *pong.get_or_insert_with(|| store.alloc_array((n.div_ceil(b) + run_count) * b))
        } else {
            *scratch
        };
        let mut next_runs = Vec::with_capacity(src_runs.len().div_ceil(fan));
        let mut out_block = 0usize;
        for group in src_runs.chunks(fan) {
            let reals = merge_runs(store, &src, group, &dst, out_block, None, &mut budget, ecmp)?;
            next_runs.push(RunMeta::contiguous(out_block, reals));
            out_block += reals.div_ceil(b);
        }
        src = dst;
        src_runs = next_runs;
        merge_passes += 1;
    }

    Ok((occupied, run_count, merge_passes))
}

/// The butterfly geometry: all shape-only, fixed before the first I/O.
#[derive(Clone, Copy, Debug)]
struct Layout {
    /// Block size `B`.
    b: usize,
    /// Bucket capacity `Z`.
    z: usize,
    /// Number of buckets `2^L`.
    buckets: usize,
    /// Butterfly depth `L`.
    levels: usize,
    /// Levels routed per superlevel: the largest `γ` with `2^γ·Z ≤ M`,
    /// clamped to `[1, L]`.
    gamma: usize,
    /// `⌈L/γ⌉` external passes.
    superlevels: usize,
    /// Input elements feeding each level-0 bucket (`≤ Z/2`).
    chunk: usize,
    /// Input length `N`.
    n: usize,
    /// Private cache `M` in element slots.
    m: usize,
    /// Assignment seed.
    seed: u64,
}

impl Layout {
    fn plan(
        n: usize,
        b: usize,
        cache_elems: usize,
        cfg: &BucketSortConfig,
    ) -> Result<Layout, BucketSortError> {
        let z = match cfg.z {
            Some(z) => {
                if !z.is_power_of_two() || z < 2 {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must be a power of two of at least 2",
                    });
                }
                if z < b {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must be at least one block (Z >= B)",
                    });
                }
                if 2 * z > cache_elems {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must keep a two-bucket merge-split group \
                                 resident in the private cache (M >= 2Z)",
                    });
                }
                z
            }
            None => {
                // Candidates range up to M/2 (a two-bucket group must stay
                // resident); prefer whatever minimizes superlevels, larger Z
                // on ties (lower overflow probability).
                let hi = 1usize << ilog2_floor(cache_elems / 2);
                let lo = b.max(DEFAULT_MIN_BUCKET_CAPACITY).min(hi);
                let mut best = lo;
                let mut best_p = superlevels_for(n, lo, cache_elems);
                let mut z = lo << 1;
                while z <= hi {
                    let p = superlevels_for(n, z, cache_elems);
                    if p <= best_p {
                        best = z;
                        best_p = p;
                    }
                    z <<= 1;
                }
                best
            }
        };
        let buckets = bucket_count(n, z);
        let levels = ilog2_floor(buckets) as usize;
        let gamma = gamma_for(levels, z, cache_elems);
        Ok(Layout {
            b,
            z,
            buckets,
            levels,
            gamma,
            superlevels: levels.div_ceil(gamma),
            chunk: n.div_ceil(buckets),
            n,
            m: cache_elems,
            seed: cfg.seed,
        })
    }

    /// Blocks one span may move while a group holding at most `resident`
    /// items is charged: what the cache leaves beside those items and
    /// their tags, at least one block. A function of the shape alone, so
    /// a span's charge can never fail where block-at-a-time I/O would not.
    fn span_blocks(&self, resident: usize) -> usize {
        let worst = resident + resident.div_ceil(4);
        (self.m.saturating_sub(worst) / self.b).max(1)
    }

    /// Blocks one span of a superlevel-`s` group's bucket I/O moves: a
    /// whole member bucket when the cache leaves room for one beside the
    /// group's worst case, else one block. Superlevel 0 holds at most its
    /// input chunk (`2^width·chunk` items, each bucket at most half full);
    /// a later one up to `Z` items per member.
    fn bucket_span(&self, s: usize) -> usize {
        let per_group = if s == 0 { self.chunk } else { self.z };
        let per_bucket = self.z / self.b;
        if self.span_blocks(per_group << self.width(s)) >= per_bucket {
            per_bucket
        } else {
            1
        }
    }

    /// MergeSplit levels routed by superlevel `s` (γ, except a shorter tail).
    fn width(&self, s: usize) -> usize {
        self.gamma.min(self.levels - s * self.gamma)
    }

    /// Stride between the member buckets of a superlevel-`s` group.
    fn stride(&self, s: usize) -> usize {
        1usize << (s * self.gamma)
    }

    /// First member bucket of group `gidx` at superlevel `s`: the members
    /// are the buckets whose index bits `[s·γ, s·γ + width)` range over all
    /// values with every other bit fixed.
    fn group_base(&self, s: usize, gidx: usize) -> usize {
        let stride = self.stride(s);
        let low = gidx & (stride - 1);
        let high = gidx >> (s * self.gamma);
        (high << (s * self.gamma + self.width(s))) | low
    }

    /// Per-superlevel tag salt: independent uniform draws per superlevel.
    fn salt(&self, s: usize) -> u64 {
        hash64(s as u64, self.seed)
    }
}

/// `2^L`: the smallest power of two giving every bucket a ≤ half-full start.
fn bucket_count(n: usize, z: usize) -> usize {
    next_pow2((2 * n).div_ceil(z).max(2))
}

/// `γ`: the largest group width with `2^γ·Z ≤ M`, clamped to `[1, levels]`
/// (and to 32: tags are `u32`). Groups pack densely — buckets average half
/// full, and the rare freakishly over-full group is a re-rolled tail event,
/// not a planning constraint (see the module docs).
fn gamma_for(levels: usize, z: usize, cache_elems: usize) -> usize {
    (ilog2_floor(cache_elems / z) as usize).clamp(1, levels.clamp(1, 32))
}

fn superlevels_for(n: usize, z: usize, cache_elems: usize) -> usize {
    let levels = ilog2_floor(bucket_count(n, z)) as usize;
    levels.div_ceil(gamma_for(levels, z, cache_elems))
}

/// A sorted block-aligned run: `reals` occupied cells in `⌈reals/B⌉`
/// blocks of one array. Run block `t` is local block
/// `first_block + ⌊t/piece⌋·piece_stride + t mod piece` — a map fixed by the
/// shape alone.
#[derive(Clone, Copy, Debug)]
struct RunMeta {
    first_block: usize,
    piece: usize,
    piece_stride: usize,
    reals: usize,
}

impl RunMeta {
    /// A run in consecutive blocks from `first_block`.
    fn contiguous(first_block: usize, reals: usize) -> Self {
        RunMeta {
            first_block,
            piece: 1,
            piece_stride: 1,
            reals,
        }
    }

    /// The blocks of the superlevel-`s` group based at bucket `base`, in
    /// the order [`load_group`] reads them: run block `t` is block
    /// `t mod (Z/B)` of member bucket `⌊t/(Z/B)⌋`.
    fn over_group(layout: &Layout, s: usize, base: usize, reals: usize) -> Self {
        let per_bucket = layout.z / layout.b;
        RunMeta {
            first_block: base * per_bucket,
            piece: per_bucket,
            piece_stride: layout.stride(s) * per_bucket,
            reals,
        }
    }

    /// The local block holding run block `t`.
    fn block(&self, t: usize) -> usize {
        self.first_block + t / self.piece * self.piece_stride + t % self.piece
    }
}

/// Budget bookkeeping for one resident group of tagged buckets: one slot per
/// item plus one slot per four 32-bit tags.
struct GroupCharge {
    items: usize,
    tag_slots: usize,
}

impl GroupCharge {
    fn new() -> Self {
        GroupCharge {
            items: 0,
            tag_slots: 0,
        }
    }

    fn add(&mut self, budget: &mut CacheBudget, items: usize) -> Result<(), BucketSortError> {
        budget.try_acquire(items).map_err(BucketSortError::Store)?;
        self.items += items;
        let want = self.items.div_ceil(4);
        if want > self.tag_slots {
            budget
                .try_acquire(want - self.tag_slots)
                .map_err(BucketSortError::Store)?;
            self.tag_slots = want;
        }
        Ok(())
    }

    fn drop_items(&mut self, budget: &mut CacheBudget, items: usize) {
        budget.release(items);
        self.items -= items;
    }

    fn finish(self, budget: &mut CacheBudget) {
        budget.release(self.items + self.tag_slots);
    }
}

/// One group of `2^width` member buckets resident in cache, held flat: the
/// occupants in member order, their fresh `width`-bit tags alongside, and
/// how many each member holds. The buffers are reused from group to group.
#[derive(Default)]
struct Group {
    items: Vec<Element>,
    tags: Vec<u32>,
    /// Occupants per member bucket; after [`Group::route`], per routed
    /// bucket.
    sizes: Vec<usize>,
    /// Per-bucket counts of the level being checked, then the scatter's
    /// cursors.
    counts: Vec<usize>,
    /// The routed buckets, back to back in bucket order.
    routed: Vec<Element>,
}

impl Group {
    fn reset(&mut self, width: usize) {
        self.items.clear();
        self.tags.clear();
        self.sizes.clear();
        self.sizes.resize(1 << width, 0);
    }

    fn push(&mut self, member: usize, item: Element, tag: u32) {
        self.items.push(item);
        self.tags.push(tag);
        self.sizes[member] += 1;
    }

    /// Replays the `width(s)` MergeSplit levels on counts alone and fails
    /// with the first overflow a chained [`merge_split`] would hit. After
    /// local level `t`, an item of member `m` with tag `τ` sits in the
    /// bucket whose bits above `t` are `m`'s and whose bits up to `t` are
    /// `τ`'s. Buckets are checked in `merge_split` order — level, pair, then
    /// the bit-clear side before the bit-set side.
    fn check_levels(
        &mut self,
        layout: &Layout,
        s: usize,
        base: usize,
    ) -> Result<(), BucketSortError> {
        let grp = self.sizes.len();
        let stride = layout.stride(s);
        for t in 0..grp.trailing_zeros() as usize {
            let low = (2usize << t) - 1;
            self.counts.clear();
            self.counts.resize(grp, 0);
            let mut start = 0;
            for (m, &size) in self.sizes.iter().enumerate() {
                for &tag in &self.tags[start..start + size] {
                    self.counts[(m & !low) | (tag as usize & low)] += 1;
                }
                start += size;
            }
            let bit = 1usize << t;
            for j in (0..grp).filter(|j| j & bit == 0) {
                for side in [j, j | bit] {
                    if self.counts[side] > layout.z {
                        return Err(BucketSortError::Overflow {
                            superlevel: s,
                            level: t,
                            bucket: base + side * stride,
                            size: self.counts[side],
                            capacity: layout.z,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Routes the group: checks every level for overflow, then moves each
    /// item to the bucket named by its tag. Chained MergeSplit keeps every
    /// bucket in (source member, position) order, so the whole network is
    /// one stable partition by tag — a single scatter.
    fn route(&mut self, layout: &Layout, s: usize, base: usize) -> Result<(), BucketSortError> {
        self.check_levels(layout, s, base)?;
        // The last level's counts are the routed bucket sizes; the member
        // sizes' buffer becomes the scatter cursors.
        std::mem::swap(&mut self.sizes, &mut self.counts);
        let mut at = 0;
        for (cursor, &size) in self.counts.iter_mut().zip(&self.sizes) {
            *cursor = at;
            at += size;
        }
        self.routed.clear();
        self.routed.resize(self.items.len(), Element::default());
        for (&item, &tag) in self.items.iter().zip(&self.tags) {
            let cursor = &mut self.counts[tag as usize];
            self.routed[*cursor] = item;
            *cursor += 1;
        }
        Ok(())
    }
}

/// Superlevel 0, fused with distribution: stream the group's input chunks
/// block by block, tag the occupied cells, route `width(0)` levels in cache,
/// and write the group's buckets (dummy-padded to `Z`) to `scratch`.
fn distribute_group<S: BlockStore>(
    store: &mut S,
    input: &ArrayHandle,
    scratch: &ArrayHandle,
    layout: &Layout,
    gidx: usize,
    budget: &mut CacheBudget,
    group: &mut Group,
) -> Result<usize, AttemptError> {
    let b = layout.b;
    let grp = 1usize << layout.width(0);
    let base = layout.group_base(0, gidx);
    let salt = layout.salt(0);
    let mask = (grp - 1) as u64;

    group.reset(layout.width(0));
    let mut charge = GroupCharge::new();

    let pos_lo = base * layout.chunk;
    let pos_hi = ((base + grp) * layout.chunk).min(layout.n);
    if pos_lo < pos_hi {
        // The group's input chunk occupies a shape-determined block range,
        // read in spans of what the cache leaves beside the chunk's items.
        // Read block by block, the sweep is hinted so a prefetching store
        // can read ahead.
        let span = layout.span_blocks(grp * layout.chunk);
        let (first, last) = (pos_lo / b, (pos_hi - 1) / b);
        if span == 1 {
            let schedule: Vec<usize> = (first..=last).collect();
            store.hint_blocks(input, &schedule);
        }
        for bi in (first..=last).step_by(span) {
            let end = (bi + span).min(last + 1);
            let (lo_e, hi_e) = (bi * b, (end * b).min(layout.n));
            budget
                .try_acquire((end - bi) * b)
                .map_err(BucketSortError::Store)?;
            let cells = store.try_load_span(input, lo_e, hi_e)?;
            let before = group.items.len();
            for pos in pos_lo.max(lo_e)..pos_hi.min(hi_e) {
                if let Some(item) = cells[pos - lo_e] {
                    let tag = (hash64(pos as u64, salt) & mask) as u32;
                    group.push(pos / layout.chunk - base, item, tag);
                }
            }
            charge.add(budget, group.items.len() - before)?;
            budget.release((end - bi) * b);
        }
    }
    let occupied = group.items.len();

    group.route(layout, 0, base)?;
    write_group(store, scratch, group, layout, 0, base, budget, &mut charge)?;
    charge.finish(budget);
    Ok(occupied)
}

/// A middle superlevel's group: load the member buckets, draw fresh tags,
/// route `width(s)` levels in cache, write the buckets back.
fn route_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    gidx: usize,
    budget: &mut CacheBudget,
    group: &mut Group,
) -> Result<(), AttemptError> {
    let base = layout.group_base(s, gidx);
    let mut charge = GroupCharge::new();
    load_group(store, scratch, layout, s, base, budget, &mut charge, group)?;
    group.route(layout, s, base)?;
    write_group(store, scratch, group, layout, s, base, budget, &mut charge)?;
    charge.finish(budget);
    Ok(())
}

/// The last superlevel's group, fused with dummy removal and run emission:
/// check the routing levels for overflow, sort the group's occupants, and
/// write them as one block-aligned run over the group's buckets, in the
/// order [`load_group`] just read them. Nothing reads those buckets again,
/// and the run fits: the load kept at most the group's `2^width·Z` slots.
/// Sorting makes the routed order moot, so the scatter is skipped; the load
/// already dropped the bucket padding.
#[allow(clippy::too_many_arguments)]
fn finish_group<S, F>(
    store: &mut S,
    scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    gidx: usize,
    budget: &mut CacheBudget,
    group: &mut Group,
    ecmp: &F,
) -> Result<RunMeta, AttemptError>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let b = layout.b;
    let base = layout.group_base(s, gidx);
    let mut charge = GroupCharge::new();
    load_group(store, scratch, layout, s, base, budget, &mut charge, group)?;
    group.check_levels(layout, s, base)?;
    let reals = &mut group.items;
    reals.sort_unstable_by(ecmp);
    let run = RunMeta::over_group(layout, s, base, reals.len());

    // Each run piece (the run's blocks in one member bucket) is one span.
    // Its items leave the cache charge as they move into the span, whose
    // only other cells pad the run's last block, so the charge never
    // exceeds the one block-at-a-time writing would hold.
    let piece = run.piece * b;
    let mut cells = Vec::with_capacity(piece);
    for (p, items) in reals.chunks(piece).enumerate() {
        let span = items.len().next_multiple_of(b);
        charge.drop_items(budget, items.len());
        budget.try_acquire(span).map_err(BucketSortError::Store)?;
        cells.clear();
        cells.extend(items.iter().map(|&item| Some(item)));
        cells.resize(span, None);
        store.try_store_span(scratch, run.block(p * run.piece) * b, &cells)?;
        budget.release(span);
    }
    charge.finish(budget);
    Ok(run)
}

/// Loads a group's member buckets from `scratch` into `group`, tagging each
/// occupied cell with a fresh `width(s)`-bit tag drawn from its current
/// global slot.
#[allow(clippy::too_many_arguments)]
fn load_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    base: usize,
    budget: &mut CacheBudget,
    charge: &mut GroupCharge,
    group: &mut Group,
) -> Result<(), AttemptError> {
    let b = layout.b;
    let per_bucket = layout.z / b;
    let grp = 1usize << layout.width(s);
    let salt = layout.salt(s);
    let mask = (grp - 1) as u64;
    // Member `m`'s blocks are group blocks `m·Z/B ..< (m+1)·Z/B`.
    let blocks = RunMeta::over_group(layout, s, base, 0);
    let span = layout.bucket_span(s);

    // The member buckets of a group are fixed by `(s, base)` alone, so the
    // gather order below is shape-determined. Read block by block, the full
    // block list is hinted; whole-bucket spans need no hint.
    if span == 1 {
        let schedule: Vec<usize> = (0..grp * per_bucket).map(|t| blocks.block(t)).collect();
        store.hint_blocks(scratch, &schedule);
    }

    group.reset(layout.width(s));
    for t in (0..grp * per_bucket).step_by(span) {
        let lo_e = blocks.block(t) * b;
        budget
            .try_acquire(span * b)
            .map_err(BucketSortError::Store)?;
        let cells = store.try_load_span(scratch, lo_e, lo_e + span * b)?;
        let before = group.items.len();
        for (slot, cell) in cells.iter().enumerate() {
            if let Some(item) = cell {
                let tag = (hash64((lo_e + slot) as u64, salt) & mask) as u32;
                group.push(t / per_bucket, *item, tag);
            }
        }
        charge.add(budget, group.items.len() - before)?;
        budget.release(span * b);
    }
    Ok(())
}

/// Writes a routed group's buckets back to `scratch`, each dummy-padded to
/// `Z`, draining the cache charge bucket by bucket.
#[allow(clippy::too_many_arguments)]
fn write_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    group: &Group,
    layout: &Layout,
    s: usize,
    base: usize,
    budget: &mut CacheBudget,
    charge: &mut GroupCharge,
) -> Result<(), AttemptError> {
    let b = layout.b;
    let z = layout.z;
    let stride = layout.stride(s);
    let span = layout.bucket_span(s) * b;
    let mut cells = Vec::with_capacity(span);
    let mut start = 0;
    for (m, &len) in group.sizes.iter().enumerate() {
        let bucket = &group.routed[start..start + len];
        start += len;
        let first = (base + m * stride) * z;
        budget.try_acquire(span).map_err(BucketSortError::Store)?;
        for lo in (0..z).step_by(span) {
            cells.clear();
            let items = &bucket[lo.min(len)..(lo + span).min(len)];
            cells.extend(items.iter().map(|&item| Some(item)));
            cells.resize(span, None);
            store.try_store_span(scratch, first + lo, &cells)?;
        }
        budget.release(span);
        charge.drop_items(budget, len);
    }
    Ok(())
}

/// Restores the min-heap property below `i` in a heap of `(head, run)`
/// pairs ordered by `ecmp`, ties broken by the lower run index.
fn sift_down<F>(heap: &mut [(Element, usize)], mut i: usize, ecmp: &F)
where
    F: Fn(&Element, &Element) -> Ordering,
{
    let before = |x: &(Element, usize), y: &(Element, usize)| {
        ecmp(&x.0, &y.0).then(x.1.cmp(&y.1)) == Ordering::Less
    };
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && before(&heap[right], &heap[left]) {
            right
        } else {
            left
        };
        if !before(&heap[child], &heap[i]) {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// Merges sorted runs from `src`, each read through its block map, into one
/// contiguous run on `dst` starting at `dst_first_block`. With
/// `pad_to = Some(n)` (the final pass into the caller's array) the output is
/// dummy-padded to exactly `⌈n/B⌉` blocks; otherwise the tail block is
/// dummy-padded to the block boundary. Ties
/// break by run index, so the merge is deterministic. Returns the number of
/// occupied cells written.
#[allow(clippy::too_many_arguments)]
fn merge_runs<S, F>(
    store: &mut S,
    src: &ArrayHandle,
    runs: &[RunMeta],
    dst: &ArrayHandle,
    dst_first_block: usize,
    pad_to: Option<usize>,
    budget: &mut CacheBudget,
    ecmp: &F,
) -> Result<usize, AttemptError>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let b = store.block_elems();
    struct Cursor {
        run: RunMeta,
        /// Run block in `buf`.
        block: usize,
        slot: usize,
        remaining: usize,
        buf: Block,
    }
    // One resident block per input run, one output block, two bookkeeping
    // slots per run for the cursor — this is what bounds the fan-in at M/B.
    let charge = runs.len() * (b + 2) + b;
    budget.try_acquire(charge).map_err(BucketSortError::Store)?;

    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|&run| Cursor {
            run,
            block: 0,
            slot: 0,
            remaining: run.reals,
            buf: Block::empty(b),
        })
        .collect();
    // Hint a sliding window of the next MERGE_LOOKAHEAD blocks per cursor
    // as the merge advances. Each hinted block belongs to the run its
    // cursor is draining, so the physical read set is exactly the runs'
    // blocks either way; the hints only shift *when* within the run a block
    // may be fetched, which is determined by the cursor-advance schedule the
    // trace already exposes — prefetching adds no address-trace information.
    let heads: Vec<usize> = cursors
        .iter()
        .filter(|c| c.remaining > 0)
        .flat_map(|c| {
            (0..MERGE_LOOKAHEAD)
                .take_while(|j| c.remaining > j * b)
                .map(|j| c.run.block(j))
        })
        .collect();
    store.hint_blocks(src, &heads);
    // The first `reals` cells of a run are occupied; a dummy there means
    // the server changed the run since it was written.
    let head = |c: &Cursor| {
        c.buf.get(c.slot).ok_or(StoreError::Corrupted {
            addr: src.global_block(c.run.block(c.block)),
        })
    };
    let mut heap: Vec<(Element, usize)> = Vec::with_capacity(cursors.len());
    for (i, c) in cursors.iter_mut().enumerate() {
        if c.remaining > 0 {
            c.buf = store.try_load_block(src, c.run.block(0))?;
            heap.push((head(c)?, i));
        }
    }
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i, ecmp);
    }

    let mut out = Block::empty(b);
    let mut out_slot = 0usize;
    let mut out_block = dst_first_block;
    let mut written = 0usize;
    // The heap's top is the earliest run holding a minimal head.
    while let Some(&(item, i)) = heap.first() {
        out.set(out_slot, Some(item));
        out_slot += 1;
        if out_slot == b {
            store.try_store_block(dst, out_block, out)?;
            out = Block::empty(b);
            out_slot = 0;
            out_block += 1;
        }
        written += 1;
        let c = &mut cursors[i];
        c.slot += 1;
        c.remaining -= 1;
        if c.slot == b && c.remaining > 0 {
            c.block += 1;
            c.buf = store.try_load_block(src, c.run.block(c.block))?;
            c.slot = 0;
            // Slide the window: the initial hints covered the first
            // MERGE_LOOKAHEAD blocks of the run, so each advance exposes
            // exactly the one new block at the window's far edge.
            if c.remaining > (MERGE_LOOKAHEAD - 1) * b {
                store.hint_blocks(src, &[c.run.block(c.block + MERGE_LOOKAHEAD - 1)]);
            }
        }
        if c.remaining > 0 {
            heap[0].0 = head(c)?;
        } else {
            heap.swap_remove(0);
        }
        sift_down(&mut heap, 0, ecmp);
    }

    match pad_to {
        Some(n) => {
            // The final pass always writes exactly ⌈n/B⌉ blocks; the slots
            // past `written` stay dummies.
            let total_blocks = dst_first_block + n.div_ceil(b);
            while out_block < total_blocks {
                store.try_store_block(dst, out_block, out)?;
                out = Block::empty(b);
                out_block += 1;
            }
        }
        None => {
            if out_slot > 0 {
                store.try_store_block(dst, out_block, out)?;
            }
        }
    }

    budget.release(charge);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc};
    use extmem::ExtMem;

    /// A cell order, as the sort façades hand one to the engine.
    type CellCmp = fn(&Cell, &Cell) -> Ordering;
    const ASC: CellCmp = cell_cmp_none_last;
    const DESC: CellCmp = cell_cmp_none_last_desc;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    fn keyed_input(n: usize, salt: u64, range: u64) -> Vec<Cell> {
        (0..n)
            .map(|i| Some(Element::new(hash64(i as u64, salt) % range, i as u64)))
            .collect()
    }

    /// `cells` with about a third of them, picked by `salt`, made dummies.
    fn dummies(mut cells: Vec<Cell>, salt: u64) -> Vec<Cell> {
        for (i, cell) in cells.iter_mut().enumerate() {
            if hash64(i as u64, salt).is_multiple_of(3) {
                *cell = None;
            }
        }
        cells
    }

    fn run_sort(
        cells: &[Cell],
        b: usize,
        cache: usize,
        cfg: &BucketSortConfig,
    ) -> (Vec<Cell>, BucketSortReport) {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        let rep = bucket_oblivious_sort_by(&mut mem, &h, cache, cfg, &cell_cmp_none_last)
            .expect("sort failed");
        (mem.snapshot_cells(&h), rep)
    }

    fn assert_sorted_reals_first(out: &[Cell], expected_keys: &mut Vec<u64>) {
        expected_keys.sort_unstable();
        let reals: Vec<u64> = out
            .iter()
            .take_while(|c| c.is_some())
            .map(|c| c.unwrap().key)
            .collect();
        assert_eq!(&reals, expected_keys, "sorted occupied prefix mismatch");
        assert!(
            out[reals.len()..].iter().all(|c| c.is_none()),
            "dummies must all sit after the occupied prefix"
        );
    }

    #[test]
    fn merge_split_partitions_stably_by_the_tag_bit() {
        let a = vec![(10u64, 0b01u32), (11, 0b10), (12, 0b11)];
        let b = vec![(20u64, 0b00u32), (21, 0b01)];
        let (lo, hi) = merge_split(a, b, 0, 8).unwrap();
        // Bit 0 clear: 11 (from a), 20 (from b) — a's items first, in order.
        assert_eq!(lo, vec![(11, 0b10), (20, 0b00)]);
        assert_eq!(hi, vec![(10, 0b01), (12, 0b11), (21, 0b01)]);
        // Same pairs on bit 1 split differently.
        let a = vec![(10u64, 0b01u32), (11, 0b10), (12, 0b11)];
        let b = vec![(20u64, 0b00u32), (21, 0b01)];
        let (lo, hi) = merge_split(a, b, 1, 8).unwrap();
        assert_eq!(lo, vec![(10, 0b01), (20, 0b00), (21, 0b01)]);
        assert_eq!(hi, vec![(11, 0b10), (12, 0b11)]);
    }

    #[test]
    fn merge_split_zero_one_exhaustive() {
        // 0-1 principle over the routing bit: every 0/1 tag pattern over two
        // buckets of up to 3 items routes to exactly the stable partition,
        // and overflows exactly when one side exceeds the capacity.
        for la in 0..=3usize {
            for lb in 0..=3usize {
                for pattern in 0..1u32 << (la + lb) {
                    let a: Vec<(usize, u32)> = (0..la).map(|i| (i, (pattern >> i) & 1)).collect();
                    let b: Vec<(usize, u32)> = (0..lb)
                        .map(|i| (la + i, (pattern >> (la + i)) & 1))
                        .collect();
                    let zeros = (la + lb) as u32 - pattern.count_ones();
                    let ones = pattern.count_ones();
                    for cap in 0..=4usize {
                        let r = merge_split(a.clone(), b.clone(), 0, cap);
                        if zeros as usize > cap || ones as usize > cap {
                            let err = r.unwrap_err();
                            assert_eq!(err.capacity, cap);
                            assert_eq!(err.size, if err.side == 0 { zeros } else { ones } as usize);
                        } else {
                            let (lo, hi) = r.unwrap();
                            assert_eq!(lo.len(), zeros as usize);
                            assert_eq!(hi.len(), ones as usize);
                            // Stability: ids ascend on both sides (inputs
                            // were id-ordered across a then b).
                            assert!(lo.windows(2).all(|w| w[0].0 < w[1].0));
                            assert!(hi.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sorts_in_cache_when_the_array_fits() {
        let cells = keyed_input(96, 7, 50);
        let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
        let (out, rep) = run_sort(&cells, 8, 256, &BucketSortConfig::default());
        assert!(rep.in_cache);
        assert_eq!(rep.occupied, 96);
        assert_sorted_reals_first(&out, &mut keys);
    }

    #[test]
    fn sorts_externally_with_dummies_and_duplicates() {
        let n = 4096;
        let b = 8;
        let cache = 512; // external: n > M, γ = 2 at the default Z = 128
        let cells = dummies(keyed_input(n, 13, 97), 99);
        let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
        let (out, rep) = run_sort(&cells, b, cache, &BucketSortConfig::seeded(42));
        assert!(!rep.in_cache);
        assert!(rep.superlevels >= 2);
        assert_eq!(rep.occupied, keys.len());
        assert_sorted_reals_first(&out, &mut keys);
    }

    #[test]
    fn sorts_non_power_of_two_lengths_natively() {
        for n in [1000usize, 1537, 2049, 3000] {
            let cells = keyed_input(n, n as u64, 10); // heavy duplicates
            let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
            let (out, rep) = run_sort(&cells, 8, 320, &BucketSortConfig::seeded(5));
            assert!(!rep.in_cache, "n={n} should take the external path");
            assert_sorted_reals_first(&out, &mut keys);
        }
    }

    #[test]
    fn descending_order_is_supported() {
        let cells = keyed_input(2048, 3, 1000);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        bucket_oblivious_sort_by(
            &mut mem,
            &h,
            320,
            &BucketSortConfig::seeded(9),
            &cell_cmp_none_last_desc,
        )
        .unwrap();
        let out = mem.snapshot_cells(&h);
        let keys: Vec<u64> = out.iter().flatten().map(|e| e.key).collect();
        assert_eq!(keys.len(), 2048);
        assert!(keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn all_equal_keys_do_not_overflow() {
        // Tags come from positions, not keys: equal keys spread uniformly.
        let cells: Vec<Cell> = (0..4096).map(|i| Some(Element::new(7, i))).collect();
        let (out, _rep) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(1));
        assert!(out.iter().all(|c| c.map(|e| e.key) == Some(7)));
    }

    #[test]
    fn all_dummy_input_yields_all_dummy_output() {
        let cells: Vec<Cell> = vec![None; 2048];
        let (out, rep) = run_sort(&cells, 8, 320, &BucketSortConfig::seeded(2));
        assert_eq!(rep.occupied, 0);
        assert!(out.iter().all(|c| c.is_none()));
    }

    #[test]
    fn explicit_bucket_capacity_is_validated() {
        let cells = keyed_input(4096, 1, 100);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        for (z, reason_part) in [
            (48, "power of two"),
            (4, "at least one block"),
            (512, "M >= 2Z"),
        ] {
            let cfg = BucketSortConfig::with_bucket_capacity(0, z);
            let err =
                bucket_oblivious_sort_by(&mut mem, &h, 320, &cfg, &cell_cmp_none_last).unwrap_err();
            match err {
                BucketSortError::InvalidArgument { reason } => {
                    assert!(
                        reason.contains(reason_part),
                        "Z={z}: reason {reason:?} should mention {reason_part:?}"
                    );
                }
                other => panic!("Z={z}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn freak_cache_skew_rerolls_the_seed_instead_of_dying() {
        // Regression: with Z = M/2 and γ = 1 a freakishly full MergeSplit
        // group (2Z items + tag slots + a streamed block > M) used to kill
        // the sort with a data-dependent `BudgetExceeded` before any bucket
        // formally overflowed. (N, B, M) = (1024, 16, 128) with this
        // salt/seed reproduced the failure; the sort must now re-roll the
        // assignment seed internally and still deliver the sorted array.
        let cells: Vec<Cell> = (0..1024)
            .map(|i| Some(Element::keyed(hash64(i as u64, 3), i)))
            .collect();
        let (out, rep) = run_sort(&cells, 16, 128, &BucketSortConfig::seeded(1));
        assert!(!rep.in_cache);
        assert!(
            rep.attempts > 1 && rep.attempts <= MAX_SEED_ATTEMPTS,
            "this shape/seed must exercise the re-roll path, got attempts = {}",
            rep.attempts
        );
        let keys: Vec<u64> = out.iter().flatten().map(|e| e.key).collect();
        assert_eq!(keys.len(), 1024);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // The re-roll ladder is deterministic: a second run replays it.
        let (out2, rep2) = run_sort(&cells, 16, 128, &BucketSortConfig::seeded(1));
        assert_eq!(out, out2);
        assert_eq!(rep, rep2);
    }

    #[test]
    fn tiny_cache_is_a_typed_error_not_a_panic() {
        let cells = keyed_input(4096, 1, 100);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let err = bucket_oblivious_sort_by(
            &mut mem,
            &h,
            40, // < 8B
            &BucketSortConfig::default(),
            &cell_cmp_none_last,
        )
        .unwrap_err();
        assert!(matches!(err, BucketSortError::InvalidArgument { .. }));
    }

    #[test]
    fn same_seed_same_io_different_seed_may_differ() {
        let cells = keyed_input(4096, 21, 1 << 20);
        let (out1, rep1) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(77));
        let (out2, rep2) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(77));
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2, "same seed must reproduce the identical run");
        let (out3, _rep3) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(78));
        assert_eq!(out1, out3, "the sorted output is seed-independent");
    }

    #[test]
    fn beats_the_lemma2_sort_when_n_is_large_relative_to_m() {
        use crate::external_sort::try_external_oblivious_sort_by;
        let n = 1 << 14;
        let b = 64;
        let cache = 1 << 10; // N/M = 16
        let cells = keyed_input(n, 4, 1 << 30);

        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        let rep = bucket_oblivious_sort_by(
            &mut mem,
            &h,
            cache,
            &BucketSortConfig::default(),
            &cell_cmp_none_last,
        )
        .unwrap();

        let mut mem2 = ExtMem::new(b);
        let h2 = mem2.alloc_array_from_cells(&cells);
        let lemma2 =
            try_external_oblivious_sort_by(&mut mem2, &h2, cache, &cell_cmp_none_last).unwrap();

        assert_eq!(
            mem.snapshot_cells(&h),
            mem2.snapshot_cells(&h2),
            "both sorts must agree"
        );
        assert!(
            rep.io.total() < lemma2.io.total(),
            "bucket sort ({}) must beat Lemma 2 ({}) at N/M = 16",
            rep.io.total(),
            lemma2.io.total()
        );
    }

    /// Hashes a sort's output and, separately, its server-visible trace.
    fn output_and_trace_hashes(
        cells: &[Cell],
        b: usize,
        cache: usize,
        order: CellCmp,
        cfg: &BucketSortConfig,
    ) -> ((u64, u64), BucketSortReport) {
        let mut mem = ExtMem::with_trace(b);
        let h = mem.alloc_array_from_cells(cells);
        let rep = bucket_oblivious_sort_by(&mut mem, &h, cache, cfg, &order).expect("sort failed");
        let mut trace = 0u64;
        for ev in mem.take_trace().expect("trace was enabled") {
            let op = matches!(ev.op, extmem::AccessOp::Write) as u64;
            trace = hash64(trace ^ ((ev.addr as u64) << 1 | op), 0x7ace);
        }
        let mut output = 0u64;
        for cell in mem.snapshot_cells(&h) {
            let word = cell.map_or(u64::MAX, |e| hash64(e.key, e.payload));
            output = hash64(output ^ word, 0x0c7);
        }
        ((output, trace), rep)
    }

    /// The router's specification: `width` levels of chained [`merge_split`]
    /// nodes — level `t` pairs members differing in bit `t`.
    fn chained_merge_split(
        mut buckets: Vec<Vec<(Element, u32)>>,
        layout: &Layout,
        s: usize,
        base: usize,
    ) -> Result<Vec<Vec<(Element, u32)>>, BucketSortError> {
        let stride = layout.stride(s);
        for t in 0..buckets.len().trailing_zeros() as usize {
            let bit = 1usize << t;
            for j in (0..buckets.len()).filter(|j| j & bit == 0) {
                let k = j | bit;
                let a = std::mem::take(&mut buckets[j]);
                let c = std::mem::take(&mut buckets[k]);
                let (lo, hi) = merge_split(a, c, t as u32, layout.z).map_err(|e| {
                    BucketSortError::Overflow {
                        superlevel: s,
                        level: t,
                        bucket: base + if e.side == 0 { j } else { k } * stride,
                        size: e.size,
                        capacity: e.capacity,
                    }
                })?;
                buckets[j] = lo;
                buckets[k] = hi;
            }
        }
        Ok(buckets)
    }

    #[test]
    fn counting_router_matches_chained_merge_split() {
        let mut overflows = 0;
        for g in 1..=6usize {
            // Superlevel 1 of a two-superlevel butterfly, so member buckets
            // sit `2^g` apart and the overflow's bucket id is global.
            // Members over `z` (the last case) can overflow both sides of a
            // pair at once, which pins the lo-before-hi order.
            for (z, skew, max_len) in [
                (64usize, 0u64, 32usize),
                (16, 0, 16),
                (16, 3, 16),
                (8, 1, 8),
                (8, 0, 16),
            ] {
                let layout = Layout {
                    b: 1,
                    z,
                    buckets: 1 << (2 * g),
                    levels: 2 * g,
                    gamma: g,
                    superlevels: 2,
                    chunk: 0,
                    n: 0,
                    m: 0,
                    seed: 0,
                };
                let grp = 1usize << g;
                for gidx in [0, grp - 1, grp / 2 + 1] {
                    let base = layout.group_base(1, gidx);
                    let salt = hash64((g * 1000 + z) as u64 + skew, gidx as u64);
                    let mut group = Group::default();
                    group.reset(g);
                    let mut spec = vec![Vec::new(); grp];
                    for (m, bucket) in spec.iter_mut().enumerate() {
                        let len = hash64(m as u64, salt) as usize % (max_len + 1);
                        for i in 0..len {
                            let h = hash64((m * max_len + i) as u64, salt);
                            // Skewed groups pile tags onto the low buckets.
                            let tag = ((h & (grp as u64 - 1)) >> ((h >> 32) % (skew + 1))) as u32;
                            let item = Element::new(h % 5, (m * max_len + i) as u64);
                            group.push(m, item, tag);
                            bucket.push((item, tag));
                        }
                    }
                    let want = chained_merge_split(spec, &layout, 1, base);
                    let got = group.route(&layout, 1, base).map(|()| {
                        let mut start = 0;
                        group
                            .sizes
                            .iter()
                            .map(|&len| {
                                start += len;
                                group.routed[start - len..start].to_vec()
                            })
                            .collect::<Vec<_>>()
                    });
                    let want = want.map(|buckets| {
                        buckets
                            .into_iter()
                            .map(|b| b.into_iter().map(|(item, _)| item).collect::<Vec<_>>())
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(
                        got, want,
                        "g={g} z={z} skew={skew} len<={max_len} gidx={gidx}"
                    );
                    overflows += usize::from(got.is_err());
                }
            }
        }
        assert!(
            (10..80).contains(&overflows),
            "both routed and overflowing groups must be covered, got {overflows} overflows"
        );
    }

    type ElemCmp<'a> = &'a dyn Fn(&Element, &Element) -> Ordering;

    /// Lays `data` out as block-aligned runs on a fresh traced store, with
    /// an empty `dst_blocks`-block destination after them. With
    /// `piece = None` the runs sit back to back; with `Some(p)` they
    /// interleave in pieces of `p` blocks, as the last superlevel's runs
    /// interleave over their groups' buckets.
    fn stage_runs(
        data: &[Vec<Element>],
        b: usize,
        dst_blocks: usize,
        piece: Option<usize>,
    ) -> (ExtMem, ArrayHandle, Vec<RunMeta>, ArrayHandle) {
        let mut mem = ExtMem::new(b);
        let mut runs = Vec::new();
        let mut first_block = 0;
        for run in data {
            runs.push(match piece {
                None => RunMeta::contiguous(first_block, run.len()),
                Some(p) => RunMeta {
                    first_block: runs.len() * p,
                    piece: p,
                    piece_stride: data.len() * p,
                    reals: run.len(),
                },
            });
            first_block += run.len().div_ceil(b);
        }
        let src_blocks = runs
            .iter()
            .map(|r| r.block(r.reals.div_ceil(b).max(1) - 1) + 1)
            .max()
            .unwrap_or(1);
        let mut cells = vec![None; src_blocks * b];
        for (run, meta) in data.iter().zip(&runs) {
            for (i, &x) in run.iter().enumerate() {
                cells[meta.block(i / b) * b + i % b] = Some(x);
            }
        }
        let src = mem.alloc_array_from_cells(&cells);
        let dst = mem.alloc_array(dst_blocks * b);
        mem.enable_trace();
        (mem, src, runs, dst)
    }

    /// The merge's specification: every output picks the minimal head by a
    /// scan over all cursors, strict `<` so the earliest run wins ties.
    /// Loads and stores happen where [`merge_runs`] makes them.
    fn scan_merge(
        mem: &mut ExtMem,
        src: &ArrayHandle,
        runs: &[RunMeta],
        dst: &ArrayHandle,
        dst_first_block: usize,
        pad_to: Option<usize>,
        ecmp: ElemCmp,
    ) -> usize {
        let b = mem.block_elems();
        // (run block, slot, remaining, buffer) per run.
        let mut cur: Vec<(usize, usize, usize, Block)> = runs
            .iter()
            .map(|r| (0, 0, r.reals, Block::empty(b)))
            .collect();
        for (c, r) in cur.iter_mut().zip(runs).filter(|(c, _)| c.2 > 0) {
            c.3 = mem.load_block(src, r.block(0));
        }
        let (mut out, mut out_slot, mut out_block) = (Block::empty(b), 0, dst_first_block);
        let mut written = 0;
        loop {
            let mut best: Option<(usize, Element)> = None;
            for (i, c) in cur.iter().enumerate().filter(|(_, c)| c.2 > 0) {
                let head = c.3.get(c.1).unwrap();
                if best.is_none_or(|(_, x)| ecmp(&head, &x) == Ordering::Less) {
                    best = Some((i, head));
                }
            }
            let Some((i, item)) = best else { break };
            out.set(out_slot, Some(item));
            out_slot += 1;
            written += 1;
            if out_slot == b {
                mem.store_block(dst, out_block, out);
                (out, out_slot, out_block) = (Block::empty(b), 0, out_block + 1);
            }
            let c = &mut cur[i];
            c.1 += 1;
            c.2 -= 1;
            if c.1 == b && c.2 > 0 {
                c.0 += 1;
                c.3 = mem.load_block(src, runs[i].block(c.0));
                c.1 = 0;
            }
        }
        match pad_to {
            Some(n) => {
                while out_block < dst_first_block + n.div_ceil(b) {
                    mem.store_block(dst, out_block, out);
                    (out, out_block) = (Block::empty(b), out_block + 1);
                }
            }
            None if out_slot > 0 => mem.store_block(dst, out_block, out),
            None => {}
        }
        written
    }

    #[test]
    fn heap_merge_matches_the_linear_scan() {
        let b = 4;
        let cache = b + 10 * (b + 2);
        let fan = ((cache - b) / (b + 2)).max(2);
        assert_eq!(fan, 10);
        let by_key = |x: &Element, y: &Element| x.key.cmp(&y.key);
        let total = |x: &Element, y: &Element| x.cmp(y);
        let sorted_run = |len: usize, salt: u64, range: u64| {
            let mut run: Vec<Element> = (0..len)
                .map(|i| Element::new(hash64(i as u64, salt) % range, salt * 100 + i as u64))
                .collect();
            run.sort_by_key(|e| e.key);
            run
        };
        let cases: Vec<(&str, Vec<Vec<Element>>, ElemCmp)> = vec![
            (
                "equal keys across runs",
                (0..5).map(|r| sorted_run(3 + 4 * r, r as u64, 4)).collect(),
                &by_key,
            ),
            (
                "identical elements",
                (0..4).map(|r| vec![e(9); 2 + 3 * r]).collect(),
                &total,
            ),
            (
                "empty runs",
                (0..6)
                    .map(|r| sorted_run(if r % 2 == 0 { 0 } else { 9 }, r as u64, 50))
                    .collect(),
                &by_key,
            ),
            ("single run", vec![sorted_run(13, 1, 7)], &by_key),
            (
                "fan-in = fan",
                (0..fan)
                    .map(|r| sorted_run(1 + 2 * r, r as u64, 6))
                    .collect(),
                &by_key,
            ),
        ];
        for (label, data, ecmp) in cases {
            let n: usize = data.iter().map(Vec::len).sum();
            for (dst_first_block, pad_to, piece) in [
                (0, None, None),
                (2, None, None),
                (0, Some(n + 5), None),
                (0, None, Some(2)),
                (1, Some(n), Some(3)),
            ] {
                let dst_blocks = dst_first_block + n.div_ceil(b) + 2;
                let (mut mem, src, runs, dst) = stage_runs(&data, b, dst_blocks, piece);
                let mut budget = CacheBudget::new(cache);
                let written = merge_runs(
                    &mut mem,
                    &src,
                    &runs,
                    &dst,
                    dst_first_block,
                    pad_to,
                    &mut budget,
                    &ecmp,
                )
                .unwrap();
                assert_eq!(budget.in_use(), 0, "{label}: charge released");
                let got = (written, mem.snapshot_cells(&dst), mem.take_trace());

                let (mut mem, src, runs, dst) = stage_runs(&data, b, dst_blocks, piece);
                let written =
                    scan_merge(&mut mem, &src, &runs, &dst, dst_first_block, pad_to, ecmp);
                let want = (written, mem.snapshot_cells(&dst), mem.take_trace());
                assert_eq!(
                    got, want,
                    "{label}: dst block {dst_first_block}, pad {pad_to:?}, piece {piece:?}"
                );
            }
        }
    }

    #[test]
    fn golden_traces_and_outputs_are_pinned() {
        // Output hashes recorded on the merge-split router, Batcher run
        // formation and linear-scan merge: the in-cache steps and the run
        // layout may change how they compute, never what the sort emits.
        // Trace hashes pin which blocks it touches, in order.
        let identical: Vec<Cell> = (0..2048).map(|i| Some(e(i % 4))).collect();
        let freak: Vec<Cell> = (0..1024)
            .map(|i| Some(Element::keyed(hash64(i as u64, 3), i)))
            .collect();
        let cases = [
            (
                "dummies",
                dummies(keyed_input(4096, 13, 97), 99),
                8,
                512,
                ASC,
                BucketSortConfig::seeded(42),
            ),
            (
                "heavy duplicates",
                keyed_input(3000, 3000, 10),
                8,
                320,
                ASC,
                BucketSortConfig::seeded(5),
            ),
            (
                "identical elements, two merge passes",
                identical,
                8,
                128,
                DESC,
                BucketSortConfig::with_bucket_capacity(6, 16),
            ),
            (
                "freak skew re-roll",
                freak,
                16,
                128,
                ASC,
                BucketSortConfig::seeded(1),
            ),
            (
                "in cache",
                keyed_input(96, 7, 50),
                8,
                256,
                ASC,
                BucketSortConfig::default(),
            ),
        ];
        // (output hash, trace hash) per case.
        let golden: [(u64, u64); 5] = [
            (0x23a89d869b43d2c2, 0x78aa46714c697cd7),
            (0x9042c5f5aa3d8ced, 0xc503c52e416e871c),
            (0xbdefbd3d5529527f, 0xea476ae8866fd176),
            (0xfd4bd46a9674a4e2, 0xd48aac3bd899b87a),
            (0x2d2dbd1f90afc10e, 0x5c50dae272ed0400),
        ];
        for ((label, cells, b, cache, order, cfg), (want_output, want_trace)) in
            cases.iter().zip(golden)
        {
            let ((output, trace), rep) = output_and_trace_hashes(cells, *b, *cache, *order, cfg);
            assert_eq!(output, want_output, "{label}: output hash moved ({rep:?})");
            assert_eq!(trace, want_trace, "{label}: trace hash moved ({rep:?})");
        }
    }

    #[test]
    fn server_space_is_the_buckets_plus_one_pong_array() {
        // The runs live in the bucket array, which every attempt reuses;
        // only a multi-pass merge adds one `⌈N/B⌉ + runs`-block array. The
        // cases are the golden ones: one merge pass; two passes; two
        // passes after three re-rolls.
        let identical: Vec<Cell> = (0..2048).map(|i| Some(e(i % 4))).collect();
        let cases = [
            (
                dummies(keyed_input(4096, 13, 97), 99),
                8,
                512,
                BucketSortConfig::seeded(42),
                1024,
            ),
            (
                keyed_input(3000, 3000, 10),
                8,
                320,
                BucketSortConfig::seeded(5),
                1431,
            ),
            (
                identical,
                8,
                128,
                BucketSortConfig::with_bucket_capacity(6, 16),
                832,
            ),
        ];
        for (cells, b, cache, cfg, want) in cases {
            let mut mem = ExtMem::new(b);
            let h = mem.alloc_array_from_cells(&cells);
            let before = mem.allocated_blocks();
            let rep = bucket_oblivious_sort_by(&mut mem, &h, cache, &cfg, &cell_cmp_none_last)
                .expect("sort failed");
            let mut pong = 0;
            if rep.merge_passes > 1 {
                pong = cells.len().div_ceil(b) + rep.runs;
            }
            let grown = mem.allocated_blocks() - before;
            assert_eq!(grown, rep.buckets * rep.z / b + pong, "{rep:?}");
            assert_eq!(grown, want, "{rep:?}");
        }
    }

    #[test]
    fn trivial_lengths_are_reported_in_cache() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&[Some(e(3))]);
        let rep = bucket_oblivious_sort_by(
            &mut mem,
            &h,
            64,
            &BucketSortConfig::default(),
            &cell_cmp_none_last,
        )
        .unwrap();
        assert!(rep.in_cache);
        assert_eq!(rep.occupied, 1);
    }
}

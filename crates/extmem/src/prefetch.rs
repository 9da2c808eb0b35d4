//! [`PrefetchingStore`]: shape-derived read-ahead over a file-backed store.
//!
//! The oblivious algorithms in this workspace have a property a normal
//! program does not: **every pass knows its entire block-read schedule
//! before it starts**, because the schedule is a function of the input
//! *shape* alone (that is the definition of data-obliviousness). A pass can
//! therefore announce its schedule up front via
//! [`BlockStore::hint_blocks`], and this adapter turns those hints into
//! batched read-ahead on a small background thread pool: workers pull
//! addresses off the hint queue, perform the positioned read + decode off
//! the critical path (into buffers from the shared
//! [`BlockArena`](crate::arena::BlockArena)), and park the ready blocks
//! until the foreground asks for them.
//!
//! ## Why this is oblivious
//!
//! The server-visible read set is exactly the hinted schedule plus the
//! foreground's residual misses — all derived from shape, never from data.
//! Prefetching reorders *when* physical reads happen, but the logical trace
//! (what the algorithm asked for, in order) is recorded by this adapter
//! itself and is byte-identical to the trace the same run leaves over
//! [`ExtMem`](crate::mem::ExtMem); the trace-parity battery asserts this for
//! every primitive. For the one data-dependent schedule in the workspace —
//! the bucket sort's final multi-way merge — hints cover a fixed-depth
//! window of each run cursor's own upcoming blocks, so the physical reads
//! stay within the run set the cursor-advance schedule (already visible in
//! the trace) determines; only the lookahead depth differs from what the
//! merge itself does. The same argument covers write-behind: buffered
//! writes land at the same addresses a write-through run touches, merely
//! batched later into span writes.
//!
//! ## Consistency protocol
//!
//! Per global address the adapter tracks one slot:
//! `Queued → Fetching → Ready | Failed`, with `Cancelled` marking a block
//! invalidated by a foreground write while a worker was mid-fetch.
//!
//! * [`BlockStore::load_block`] takes `Ready` blocks for free ("hit"),
//!   *steals* `Queued` entries — claiming the whole contiguous hinted run
//!   and reading it with one positioned span read, parking the tail — so a
//!   deep queue can never deadlock the foreground; waits only on
//!   `Fetching` (a read already in flight); and falls back to a synchronous
//!   read otherwise ("miss").
//! * [`BlockStore::store_block`] invalidates any slot for the address, so a
//!   stale prefetch can never be served after a write. (The pass structure
//!   already guarantees every hinted block is consumed before the pass
//!   writes it back; this is the safety net.) Over a store with span-write
//!   support ([`Prefetchable::store_run`]) the write then parks in a
//!   bounded *write-behind buffer* — its slot marked `Buffered`, which
//!   hints skip and worker parks leave alone — and is flushed as one
//!   positioned span write per maximal contiguous run when the buffer
//!   fills, on [`PrefetchingStore::flush_writes`] /
//!   [`PrefetchingStore::inner_mut`], or on drop. Loads of a buffered
//!   address are served from the buffer (read-your-writes), never from the
//!   stale file copy.
//! * Workers respect `max_ready`: parked *plus* in-flight blocks never
//!   exceed it, bounding the adapter's memory at
//!   `(max_ready + write_buffer) · B` cells. This budget is accounted
//!   against the client's private memory `M` by the callers that size it.
//!
//! ## Why the pool is cheap
//!
//! A file on a fast device (or tmpfs in CI) serves a block read in about a
//! microsecond, so per-block locking would cost more than the reads it
//! hides. The pool therefore amortizes everything:
//!
//! * a worker claims a *batch* of queued addresses in one lock acquisition,
//!   reads contiguous runs with a single positioned span read
//!   ([`PrefetchRead::fetch_run`]), and parks the whole batch under one
//!   more lock acquisition;
//! * condvars are split (`work` for idle workers, `done` for a foreground
//!   load waiting on an in-flight fetch) and only signalled when the shared
//!   state says someone is actually waiting — the steady-state hit path
//!   performs one uncontended lock round-trip and no syscalls.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::block::Block;
use crate::error::StoreError;
use crate::mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, IoStats};
use crate::store::BlockStore;

/// A background block reader: the half of a store that can be cloned onto a
/// worker thread. Positioned reads must be independent of the foreground
/// (no shared seek cursor).
pub trait PrefetchRead: Send + 'static {
    /// Reads and decodes the block at global address `addr`.
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError>;

    /// Reads and decodes `count` consecutive blocks starting at `start`.
    /// The default loops [`fetch`](PrefetchRead::fetch); implementations
    /// with positioned I/O should override it with one span read so a
    /// sequential schedule costs one syscall per batch instead of one per
    /// block.
    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        (start..start + count).map(|a| self.fetch(a)).collect()
    }
}

/// A store that can hand out independent background readers; implementing
/// this is what makes a store wrappable by [`PrefetchingStore`].
pub trait Prefetchable: BlockStore {
    /// The background reader type.
    type Reader: PrefetchRead;

    /// Creates a reader sharing this store's file and buffer pool.
    fn reader(&self) -> Self::Reader;

    /// True when [`store_run`](Prefetchable::store_run) performs a real
    /// positioned span write. Gates the adapter's write-behind buffer: a
    /// store that leaves this `false` gets plain write-through.
    fn supports_store_runs(&self) -> bool {
        false
    }

    /// Writes `blks` to consecutive global addresses starting at `start`
    /// (one positioned write for the whole run), recycling the buffers.
    /// Only called when [`supports_store_runs`](Prefetchable::supports_store_runs)
    /// returns true.
    ///
    /// The default body is for stores that never advertise span-write
    /// support: a wrapper that calls it anyway (misreporting
    /// `supports_store_runs`) gets a typed [`StoreError::Corrupted`] for the
    /// run's first address — the write was *not* performed — rather than a
    /// process-killing panic. Debug builds additionally `debug_assert` so
    /// the misbehavior is loud under test.
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        debug_assert!(
            false,
            "store_run requires supports_store_runs() == true (run of {} at {start})",
            blks.len()
        );
        drop(blks);
        Err(StoreError::Corrupted { addr: start })
    }
}

/// Tuning knobs for the prefetch pool.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Background reader threads. Zero is legitimate: every hinted load is
    /// then served by a foreground batch-steal (one span read per
    /// contiguous hinted run), which is the profitable mode on a machine
    /// where extra threads cannot overlap anything.
    pub workers: usize,
    /// Maximum decoded blocks parked awaiting consumption.
    pub max_ready: usize,
    /// Write-behind buffer capacity in blocks (0 disables). Stores are
    /// accepted into the buffer and flushed as coalesced span writes — one
    /// positioned write per maximal contiguous run — once it fills, on
    /// [`PrefetchingStore::flush_writes`], or on drop. Only effective over
    /// stores whose [`Prefetchable::supports_store_runs`] is true.
    pub write_buffer: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        // Leave one core for the algorithm itself; on a single-core
        // machine that means no background readers at all — they could
        // only time-slice against the foreground, so batched foreground
        // steals do all the coalescing instead.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get() - 1);
        PrefetchConfig {
            workers: workers.min(3),
            max_ready: 64,
            write_buffer: 64,
        }
    }
}

/// Counters describing how effective the read-ahead was.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Loads served from a parked prefetched block.
    pub hits: u64,
    /// Loads with no matching hint: synchronous read.
    pub misses: u64,
    /// Loads that found their hint still queued and read synchronously
    /// (the pool had not gotten to it yet).
    pub steals: u64,
    /// Loads that waited for an in-flight background read.
    pub waits: u64,
    /// Parked or in-flight blocks invalidated by a foreground write.
    pub invalidated: u64,
    /// Hints accepted onto the queue.
    pub hinted: u64,
    /// Loads served by cloning a block still parked in the write-behind
    /// buffer (read-your-writes without touching the file).
    pub wb_hits: u64,
    /// Physical span writes issued by write-behind flushes (each covers one
    /// maximal contiguous run of buffered addresses).
    pub write_spans: u64,
}

#[derive(Debug)]
enum Slot {
    /// No hint outstanding for this address.
    Empty,
    Queued,
    Fetching,
    Ready(Block),
    Failed(StoreError),
    Cancelled,
    /// The newest content for this address sits in the adapter's
    /// write-behind buffer; the file copy is stale until the next flush.
    /// Workers never touch this state (hints skip it, parks leave it).
    Buffered,
}

/// Most addresses a worker claims per lock acquisition. Batching is what
/// keeps the pool's synchronization cost below the cost of the reads it
/// hides; contiguous claims also collapse into span reads.
const CLAIM_BATCH: usize = 16;

#[derive(Debug)]
struct Shared {
    /// Worker feed: hinted addresses in hint order. Left empty when the
    /// pool has no workers (foreground batch-steals read `slots` directly,
    /// so queue maintenance would be pure overhead).
    queue: VecDeque<usize>,
    /// Per-address slot state, indexed by global block address. The file's
    /// address space is dense and small, so a flat vector keeps the hot
    /// hit path at an indexed load instead of a hash lookup.
    slots: Vec<Slot>,
    /// Decoded blocks parked in `slots`.
    ready: usize,
    /// Blocks claimed by a worker and not yet parked; `ready + inflight`
    /// never exceeds `max_ready`.
    inflight: usize,
    /// Workers parked on `SharedSync::work` (gates wakeup syscalls).
    idle_workers: usize,
    /// Foreground loads parked on `SharedSync::done` (gates wakeups).
    fg_waiting: usize,
    max_ready: usize,
    n_workers: usize,
    shutdown: bool,
}

impl Shared {
    /// The slot for `addr` (addresses past the vector are `Empty`).
    fn slot(&self, addr: usize) -> &Slot {
        self.slots.get(addr).unwrap_or(&Slot::Empty)
    }

    /// Sets the slot for `addr`, growing the vector on first touch.
    fn set(&mut self, addr: usize, s: Slot) {
        if self.slots.len() <= addr {
            self.slots.resize_with(addr + 1, || Slot::Empty);
        }
        self.slots[addr] = s;
    }

    /// Removes and returns the slot for `addr`.
    fn take_slot(&mut self, addr: usize) -> Slot {
        if self.slots.len() <= addr {
            return Slot::Empty;
        }
        std::mem::replace(&mut self.slots[addr], Slot::Empty)
    }

    /// True when a parked worker would find something to do.
    fn has_work(&self) -> bool {
        !self.queue.is_empty() && self.ready + self.inflight < self.max_ready
    }

    /// True when a parked worker could claim a whole batch (or fill the
    /// budget, for tiny budgets). Consumers wake workers on *this* rather
    /// than on [`has_work`](Shared::has_work) so one wakeup syscall buys a
    /// batch worth of refill instead of a single block.
    fn batch_slack(&self) -> bool {
        !self.queue.is_empty()
            && self.ready + self.inflight + CLAIM_BATCH.min(self.max_ready) <= self.max_ready
    }
}

#[derive(Debug)]
struct SharedSync {
    state: Mutex<Shared>,
    /// Workers wait here for queue items or ready budget.
    work: Condvar,
    /// The foreground waits here for an in-flight fetch to park.
    done: Condvar,
}

impl SharedSync {
    /// Locks the shared state, *recovering* a poisoned mutex instead of
    /// cascading the panic. The state is repairable by construction — see
    /// [`repair`](SharedSync::repair) — so a thread that panicked while
    /// holding the lock must not condemn every later client load to an
    /// `.expect("prefetch state poisoned")` panic: the pool degrades to
    /// synchronous reads for the orphaned claims and keeps serving.
    fn lock_state(&self) -> MutexGuard<'_, Shared> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                self.state.clear_poison();
                self.repair(&mut g);
                g
            }
        }
    }

    /// Waits on `cv`, applying the same poison recovery as
    /// [`lock_state`](SharedSync::lock_state) on wakeup.
    fn wait_on<'a>(&self, cv: &Condvar, g: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        match cv.wait(g) {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                self.state.clear_poison();
                self.repair(&mut g);
                g
            }
        }
    }

    /// Restores the shared invariants after a panic under the lock. The
    /// panicking thread may have died owning in-flight claims, so demote
    /// every `Fetching` slot to `Cancelled` (consumers fall back to a
    /// synchronous read; a surviving worker parking into a `Cancelled` slot
    /// just drops its block), zero the in-flight count, and wake every
    /// sleeper so nobody keeps waiting on a fetch that will never park.
    /// Surviving threads decrement `inflight` with saturating arithmetic,
    /// so the zeroed count cannot underflow afterwards.
    fn repair(&self, g: &mut Shared) {
        for slot in &mut g.slots {
            if matches!(slot, Slot::Fetching) {
                *slot = Slot::Cancelled;
            }
        }
        g.inflight = 0;
        self.done.notify_all();
        self.work.notify_all();
    }
}

type SharedState = Arc<SharedSync>;

fn worker_loop<R: PrefetchRead>(mut reader: R, shared: SharedState) {
    let mut claimed: Vec<usize> = Vec::with_capacity(CLAIM_BATCH);
    loop {
        // Claim up to a batch of queued addresses in one lock acquisition.
        {
            let mut g = shared.lock_state();
            loop {
                if g.shutdown {
                    return;
                }
                while claimed.len() < CLAIM_BATCH && g.ready + g.inflight < g.max_ready {
                    // Skip entries the foreground stole or cancelled.
                    let Some(a) = g.queue.pop_front() else { break };
                    if matches!(g.slot(a), Slot::Queued) {
                        g.set(a, Slot::Fetching);
                        g.inflight += 1;
                        claimed.push(a);
                    }
                }
                if !claimed.is_empty() {
                    break;
                }
                g.idle_workers += 1;
                g = shared.wait_on(&shared.work, g);
                g.idle_workers -= 1;
            }
        }

        // Fetch outside the lock, collapsing contiguous runs into span reads.
        // A panicking reader must not take its claims (or the pool) down
        // with it: catch the unwind and park every claimed address as a
        // retryable `Transient` failure — the `try_*` path surfaces it as a
        // typed `Err`, a plain reload falls back to a synchronous read, and
        // the worker lives to serve the next batch.
        let results: Vec<(usize, Result<Block, StoreError>)> =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut results = Vec::with_capacity(claimed.len());
                let mut i = 0;
                while i < claimed.len() {
                    let mut j = i + 1;
                    while j < claimed.len() && claimed[j] == claimed[j - 1] + 1 {
                        j += 1;
                    }
                    let start = claimed[i];
                    for (k, res) in reader.fetch_run(start, j - i).into_iter().enumerate() {
                        results.push((start + k, res));
                    }
                    i = j;
                }
                results
            })) {
                Ok(results) => results,
                Err(_) => claimed
                    .iter()
                    .map(|&a| (a, Err(StoreError::Transient { addr: a })))
                    .collect(),
            };
        claimed.clear();

        // Park the whole batch under one more lock acquisition.
        let mut g = shared.lock_state();
        for (addr, res) in results {
            g.inflight = g.inflight.saturating_sub(1);
            match g.slot(addr) {
                Slot::Fetching => match res {
                    Ok(blk) => {
                        g.ready += 1;
                        g.set(addr, Slot::Ready(blk));
                    }
                    Err(e) => {
                        g.set(addr, Slot::Failed(e));
                    }
                },
                // A foreground write raced the fetch: the block is stale,
                // drop it.
                Slot::Cancelled => {
                    g.set(addr, Slot::Empty);
                }
                _ => {}
            }
        }
        if g.fg_waiting > 0 {
            shared.done.notify_all();
        }
    }
}

/// The read-ahead adapter. Wraps any [`Prefetchable`] store and honors
/// [`BlockStore::hint_blocks`] schedules with a background thread pool; see
/// the module docs for the protocol and obliviousness argument.
#[derive(Debug)]
pub struct PrefetchingStore<S: Prefetchable> {
    inner: S,
    shared: SharedState,
    workers: Vec<JoinHandle<()>>,
    /// Reader for foreground batch-steals (span reads of hinted runs the
    /// pool has not reached yet).
    fg_reader: S::Reader,
    /// Logical I/O counters: what the algorithm asked for, independent of
    /// whether a background worker or the foreground did the physical read.
    stats: IoStats,
    trace: Option<AccessTrace>,
    prefetch_stats: PrefetchStats,
    /// Write-behind buffer: `(global address, newest block)` pairs, flushed
    /// as coalesced span writes. Every entry has its slot set to
    /// [`Slot::Buffered`], which is what keeps workers and hints away.
    wb: Vec<(usize, Block)>,
    /// Capacity of `wb`; 0 when the inner store has no span-write support.
    wb_cap: usize,
}

impl<S: Prefetchable> PrefetchingStore<S> {
    /// Wraps `inner` with the default pool configuration.
    pub fn new(inner: S) -> Self {
        Self::with_config(inner, PrefetchConfig::default())
    }

    /// Wraps `inner` with an explicit pool configuration.
    pub fn with_config(inner: S, cfg: PrefetchConfig) -> Self {
        assert!(cfg.max_ready >= 1, "prefetch pool needs a ready budget");
        let shared: SharedState = Arc::new(SharedSync {
            state: Mutex::new(Shared {
                queue: VecDeque::new(),
                slots: Vec::new(),
                ready: 0,
                inflight: 0,
                idle_workers: 0,
                fg_waiting: 0,
                max_ready: cfg.max_ready,
                n_workers: cfg.workers,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let reader = inner.reader();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(reader, shared))
            })
            .collect();
        let fg_reader = inner.reader();
        let wb_cap = if inner.supports_store_runs() {
            cfg.write_buffer
        } else {
            0
        };
        PrefetchingStore {
            inner,
            shared,
            workers,
            fg_reader,
            stats: IoStats::default(),
            trace: None,
            prefetch_stats: PrefetchStats::default(),
            wb: Vec::with_capacity(wb_cap),
            wb_cap,
        }
    }

    /// The wrapped store. NOTE: does *not* flush the write-behind buffer —
    /// pending writes are not yet visible through the inner store. Use
    /// [`inner_mut`](PrefetchingStore::inner_mut) (which flushes) or
    /// [`flush_writes`](PrefetchingStore::flush_writes) before reading the
    /// inner store's contents directly.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store, after flushing the write-behind
    /// buffer so the inner store reflects every accepted write.
    pub fn inner_mut(&mut self) -> &mut S {
        self.flush_writes()
            .unwrap_or_else(|e| panic!("PrefetchingStore: write-behind flush failed: {e}"));
        &mut self.inner
    }

    /// Writes every buffered block back to the wrapped store, coalescing
    /// contiguous addresses into single span writes. A no-op when nothing
    /// is buffered; returns the first error a span (or its per-block retry)
    /// surfaces.
    pub fn flush_writes(&mut self) -> Result<(), StoreError> {
        if self.wb.is_empty() {
            return Ok(());
        }
        let mut wb = std::mem::take(&mut self.wb);
        wb.sort_by_key(|(a, _)| *a);
        {
            let mut g = self.shared.lock_state();
            for (a, _) in &wb {
                debug_assert!(matches!(g.slot(*a), Slot::Buffered));
                g.set(*a, Slot::Empty);
            }
        }
        let mut first_err = None;
        let mut iter = wb.into_iter().peekable();
        while let Some((start, blk)) = iter.next() {
            let mut run = vec![blk];
            let mut next = start + 1;
            while iter.peek().is_some_and(|(a, _)| *a == next) {
                run.push(iter.next().expect("peeked").1);
                next += 1;
            }
            self.prefetch_stats.write_spans += 1;
            if let Err(e) = self.inner.store_run(start, run) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Accepts a write into the write-behind buffer (the newest content for
    /// `addr` now lives here; any prefetch state for it is invalidated) and
    /// flushes when the buffer fills.
    fn buffer_write(&mut self, addr: usize, blk: Block) -> Result<(), StoreError> {
        let mut g = self.shared.lock_state();
        match g.slot(addr) {
            Slot::Buffered => {
                drop(g);
                let entry = self
                    .wb
                    .iter_mut()
                    .find(|(a, _)| *a == addr)
                    .expect("Buffered slot implies a buffer entry");
                let old = std::mem::replace(&mut entry.1, blk);
                self.inner.recycle(old);
                return Ok(());
            }
            Slot::Ready(_) => {
                g.take_slot(addr);
                g.ready -= 1;
                self.prefetch_stats.invalidated += 1;
                if g.idle_workers > 0 && g.batch_slack() {
                    self.shared.work.notify_one();
                }
            }
            // A fetch in flight parks into `_ => {}` once it sees the slot
            // is no longer `Fetching`, so overwriting the state right away
            // is safe — the worker still decrements `inflight` itself.
            Slot::Fetching | Slot::Queued | Slot::Failed(_) => {
                self.prefetch_stats.invalidated += 1;
            }
            Slot::Empty | Slot::Cancelled => {}
        }
        g.set(addr, Slot::Buffered);
        drop(g);
        self.wb.push((addr, blk));
        if self.wb.len() >= self.wb_cap {
            self.flush_writes()?;
        }
        Ok(())
    }

    /// Read-ahead effectiveness counters.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Starts recording the *logical* access trace — the algorithm's request
    /// order, byte-identical to the trace the same run leaves over a
    /// non-prefetching store.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the captured logical trace, if any.
    pub fn take_trace(&mut self) -> Option<AccessTrace> {
        self.trace.take()
    }

    fn record(&mut self, op: AccessOp, addr: usize) {
        match op {
            AccessOp::Read => self.stats.reads += 1,
            AccessOp::Write => self.stats.writes += 1,
        }
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { op, addr });
        }
    }

    fn take_prefetched(&mut self, addr: usize) -> Option<Result<Block, StoreError>> {
        let mut g = self.shared.lock_state();
        loop {
            match g.slot(addr) {
                Slot::Empty => {
                    self.prefetch_stats.misses += 1;
                    return None;
                }
                Slot::Queued => {
                    // The pool has not gotten here yet: steal the whole
                    // contiguous hinted run in the foreground with one span
                    // read, park the tail as ready. On a machine where the
                    // pool cannot overlap (one core, or reads served from
                    // the page cache), this coalescing is the schedule's
                    // entire payoff: one syscall per run instead of one per
                    // block.
                    let spare = g.max_ready.saturating_sub(g.ready + g.inflight);
                    let mut run = 1usize;
                    while run < CLAIM_BATCH
                        && run <= spare
                        && matches!(g.slot(addr + run), Slot::Queued)
                    {
                        run += 1;
                    }
                    for k in 0..run {
                        g.set(addr + k, Slot::Fetching);
                    }
                    g.inflight += run;
                    drop(g);

                    let mut results = self.fg_reader.fetch_run(addr, run);
                    let first = results.remove(0);
                    self.prefetch_stats.steals += 1;

                    g = self.shared.lock_state();
                    g.inflight = g.inflight.saturating_sub(run);
                    g.set(addr, Slot::Empty);
                    for (k, res) in results.into_iter().enumerate() {
                        let a = addr + 1 + k;
                        match g.slot(a) {
                            Slot::Fetching => match res {
                                Ok(blk) => {
                                    g.ready += 1;
                                    g.set(a, Slot::Ready(blk));
                                }
                                Err(e) => {
                                    g.set(a, Slot::Failed(e));
                                }
                            },
                            Slot::Cancelled => {
                                g.set(a, Slot::Empty);
                            }
                            _ => {}
                        }
                    }
                    return Some(first);
                }
                Slot::Cancelled => {
                    g.set(addr, Slot::Empty);
                    self.prefetch_stats.steals += 1;
                    return None;
                }
                Slot::Fetching => {
                    self.prefetch_stats.waits += 1;
                    g.fg_waiting += 1;
                    g = self.shared.wait_on(&self.shared.done, g);
                    g.fg_waiting -= 1;
                }
                Slot::Ready(_) => {
                    let Slot::Ready(blk) = g.take_slot(addr) else {
                        unreachable!("slot state checked under the same lock");
                    };
                    g.ready -= 1;
                    // Consuming a parked block frees ready budget; wake one
                    // worker only once a whole batch of budget is free.
                    if g.idle_workers > 0 && g.batch_slack() {
                        self.shared.work.notify_one();
                    }
                    self.prefetch_stats.hits += 1;
                    return Some(Ok(blk));
                }
                Slot::Failed(_) => {
                    let Slot::Failed(e) = g.take_slot(addr) else {
                        unreachable!("slot state checked under the same lock");
                    };
                    return Some(Err(e));
                }
                Slot::Buffered => {
                    // Read-your-writes: the newest content is still in the
                    // write-behind buffer — serve a copy without touching
                    // the file (the slot stays Buffered; the entry remains
                    // the durable source until flushed).
                    self.prefetch_stats.wb_hits += 1;
                    let blk = self
                        .wb
                        .iter()
                        .find(|(a, _)| *a == addr)
                        .expect("Buffered slot implies a buffer entry")
                        .1
                        .clone();
                    return Some(Ok(blk));
                }
            }
        }
    }

    fn invalidate(&mut self, addr: usize) {
        let mut g = self.shared.lock_state();
        match g.slot(addr) {
            Slot::Ready(_) => {
                g.set(addr, Slot::Empty);
                g.ready -= 1;
                self.prefetch_stats.invalidated += 1;
                if g.idle_workers > 0 && g.batch_slack() {
                    self.shared.work.notify_one();
                }
            }
            Slot::Fetching => {
                g.set(addr, Slot::Cancelled);
                self.prefetch_stats.invalidated += 1;
            }
            Slot::Queued | Slot::Failed(_) => {
                g.set(addr, Slot::Empty);
                self.prefetch_stats.invalidated += 1;
            }
            // Buffered is unreachable here: invalidate() is only used on the
            // write-through path (wb_cap == 0), which never buffers.
            Slot::Cancelled | Slot::Empty | Slot::Buffered => {}
        }
    }
}

impl<S: Prefetchable> Drop for PrefetchingStore<S> {
    fn drop(&mut self) {
        // Best-effort durability: a flush error cannot surface from Drop,
        // but callers that care read back through `inner_mut`/`flush_writes`
        // first, which do propagate it.
        let _ = self.flush_writes();
        {
            let mut g = self.shared.lock_state();
            g.shutdown = true;
            g.queue.clear();
            self.shared.work.notify_all();
            self.shared.done.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<S: Prefetchable> BlockStore for PrefetchingStore<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }

    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        self.try_load_block(h, i)
            .unwrap_or_else(|e| panic!("PrefetchingStore: {e}"))
    }

    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        self.try_store_block(h, i, blk)
            .unwrap_or_else(|e| panic!("PrefetchingStore: {e}"))
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        let mut g = self.shared.lock_state();
        for &i in blocks {
            let addr = h.global_block(i);
            if matches!(g.slot(addr), Slot::Empty) {
                g.set(addr, Slot::Queued);
                if g.n_workers > 0 {
                    g.queue.push_back(addr);
                }
                self.prefetch_stats.hinted += 1;
            }
        }
        if g.idle_workers > 0 && g.has_work() {
            self.shared.work.notify_all();
        }
    }

    fn recycle(&mut self, blk: Block) {
        self.inner.recycle(blk);
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        let addr = h.global_block(i);
        let blk = match self.take_prefetched(addr) {
            Some(res) => res?,
            None => self.inner.try_load_block(h, i)?,
        };
        self.record(AccessOp::Read, addr);
        Ok(blk)
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        let addr = h.global_block(i);
        if self.wb_cap == 0 {
            self.invalidate(addr);
            self.inner.try_store_block(h, i, blk)?;
        } else {
            self.buffer_write(addr, blk)?;
        }
        self.record(AccessOp::Write, addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Cell, Element};
    use crate::file::FileStore;

    fn e(k: u64) -> Element {
        Element::new(k, k + 1000)
    }

    fn temp_prefetching(b: usize) -> PrefetchingStore<FileStore> {
        PrefetchingStore::new(FileStore::temp(b).expect("temp file"))
    }

    #[test]
    fn unhinted_loads_are_plain_misses() {
        let mut store = temp_prefetching(4);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..16).map(e).collect::<Vec<_>>());
        for i in 0..4 {
            assert_eq!(store.load_block(&h, i).occupied()[0], e(i as u64 * 4));
        }
        let ps = store.prefetch_stats();
        assert_eq!(ps.misses, 4);
        assert_eq!(ps.hits, 0);
    }

    #[test]
    fn hinted_blocks_are_served_and_correct() {
        let mut store = temp_prefetching(4);
        let cells: Vec<Cell> = (0..64).map(|k| Some(e(k))).collect();
        let h = store.inner_mut().alloc_array_from_cells(&cells);
        let schedule: Vec<usize> = (0..h.n_blocks()).collect();
        store.hint_blocks(&h, &schedule);
        let mut out = Vec::new();
        for i in 0..h.n_blocks() {
            out.extend(store.load_block(&h, i).occupied());
        }
        assert_eq!(out, (0..64).map(e).collect::<Vec<_>>());
        let ps = store.prefetch_stats();
        assert_eq!(ps.hinted, 16);
        assert_eq!(
            ps.misses, 0,
            "every load was covered by the schedule, got {ps:?}"
        );
        assert_eq!(ps.hits + ps.steals, 16);
    }

    #[test]
    fn writes_invalidate_parked_prefetches() {
        let mut store = temp_prefetching(2);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        store.hint_blocks(&h, &[0, 1, 2, 3]);
        // Give the pool time to park everything, then overwrite block 1.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut blk = Block::empty(2);
        blk.set(0, Some(e(777)));
        store.store_block(&h, 1, blk);
        assert_eq!(store.load_block(&h, 1).get(0), Some(e(777)));
    }

    #[test]
    fn logical_stats_count_requests_not_physical_reads() {
        let mut store = temp_prefetching(4);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
        store.hint_blocks(&h, &(0..8).collect::<Vec<_>>());
        for i in 0..8 {
            let blk = store.load_block(&h, i);
            store.recycle(blk);
        }
        assert_eq!(store.io_stats().reads, 8);
    }

    #[test]
    fn logical_trace_is_identical_to_an_unprefetched_run() {
        let run = |hint: bool| {
            let mut store = temp_prefetching(4);
            store.enable_trace();
            let h = store
                .inner_mut()
                .alloc_array_from_elements(&(0..32).map(e).collect::<Vec<_>>());
            if hint {
                store.hint_blocks(&h, &(0..8).collect::<Vec<_>>());
            }
            for i in 0..8 {
                let mut blk = store.load_block(&h, i);
                blk.set(0, Some(e(1)));
                store.store_block(&h, i, blk);
            }
            store.take_trace().unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn a_poisoned_mutex_is_recovered_not_cascaded() {
        crate::retry::install_quiet_abort_hook();
        // No background workers: a worker taking the lock would repair the
        // poison before the setup assert below could observe it.
        let cfg = PrefetchConfig {
            workers: 0,
            ..PrefetchConfig::default()
        };
        let mut store = PrefetchingStore::with_config(FileStore::temp(2).expect("temp file"), cfg);
        let h = store
            .inner_mut()
            .alloc_array_from_elements(&(0..8).map(e).collect::<Vec<_>>());
        // Poison the shared mutex exactly the way a crashed thread would:
        // panic while holding the lock. (The typed `StoreAbort` payload only
        // keeps the quiet panic hook from spamming test output.)
        let shared = Arc::clone(&store.shared);
        let _ = std::thread::spawn(move || {
            let _g = shared.state.lock().unwrap();
            std::panic::panic_any(crate::retry::StoreAbort(StoreError::Transient { addr: 0 }));
        })
        .join();
        assert!(store.shared.state.is_poisoned(), "setup must poison");
        // Pre-fix every later client load died on
        // `.expect("prefetch state poisoned")`; now the guard is recovered
        // and the store keeps serving — including fresh hints.
        assert_eq!(store.load_block(&h, 0).occupied()[0], e(0));
        assert!(!store.shared.state.is_poisoned(), "lock must be repaired");
        store.hint_blocks(&h, &[1, 2, 3]);
        for i in 1..4 {
            assert_eq!(store.load_block(&h, i).occupied()[0], e(i as u64 * 2));
        }
    }

    /// A store that implements [`Prefetchable`] but never advertises (or
    /// overrides) span writes — the shape of a minimal custom wrapper.
    struct NoRuns(crate::mem::ExtMem);

    struct NoRunsReader;

    impl PrefetchRead for NoRunsReader {
        fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
            Err(StoreError::Transient { addr })
        }
    }

    impl BlockStore for NoRuns {
        fn block_elems(&self) -> usize {
            self.0.block_elems()
        }
        fn alloc_array(&mut self, len: usize) -> ArrayHandle {
            self.0.alloc_array(len)
        }
        fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
            self.0.read_block(h, i)
        }
        fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
            self.0.write_block(h, i, blk);
        }
        fn io_stats(&self) -> IoStats {
            self.0.stats()
        }
    }

    impl Prefetchable for NoRuns {
        type Reader = NoRunsReader;
        fn reader(&self) -> NoRunsReader {
            NoRunsReader
        }
    }

    /// Regression: the default `store_run` body used to be `unreachable!`,
    /// so a wrapper that misreported `supports_store_runs` panicked instead
    /// of erroring. It must now surface a typed error (and only
    /// `debug_assert` in debug builds).
    #[test]
    fn default_store_run_is_a_typed_error_not_an_unconditional_panic() {
        let mut s = NoRuns(crate::mem::ExtMem::new(2));
        assert!(!s.supports_store_runs());
        #[cfg(debug_assertions)]
        {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.store_run(3, vec![Block::empty(2)])
            }));
            assert!(r.is_err(), "debug builds assert loudly");
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(
                s.store_run(3, vec![Block::empty(2)]),
                Err(StoreError::Corrupted { addr: 3 }),
                "release builds report a typed error for the run start"
            );
        }
    }

    #[test]
    fn stale_hints_left_behind_do_not_leak_on_drop() {
        let mut store = temp_prefetching(2);
        let h = store.inner_mut().alloc_array(64);
        store.hint_blocks(&h, &(0..32).collect::<Vec<_>>());
        // Never consume them; drop must shut the pool down cleanly.
        drop(store);
    }
}

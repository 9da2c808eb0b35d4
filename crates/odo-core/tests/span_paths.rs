//! The passes move contiguous runs as spans, and the span paths are an
//! optimisation only.
//!
//! * **Trace parity.** Behind a wrapper that forwards only the block ops
//!   and hints, every span a pass issues runs through the trait's per-block
//!   defaults. Compaction, selection and the bucket sort must then leave
//!   byte-identical traces, outputs and reports with the plain store, at
//!   the headline shape, at a bucket capacity of half the cache, at a small
//!   block size and at a length that is not a power of two.
//! * **Spans arrive.** Through a façade's retry layer, selection's sampling
//!   spans and the bucket sort's bucket spans reach a prefetching store as
//!   spans, not as block ops.

use std::cell::RefCell;
use std::rc::Rc;

use odo_core::extmem::element::{cell_cmp_none_last, Cell};
use odo_core::extmem::util::hash64;
use odo_core::extmem::RetryingStore;
use odo_core::obliv_net::bucket_oblivious_sort_by;
use odo_core::{
    try_compact, try_select_kth, AccessTrace, ArrayHandle, Block, BlockStore, BucketSortConfig,
    Element, ExtMem, IoStats, PrefetchingStore, RetryPolicy, StoreError,
};

/// Forwards only the block ops, hints and recycling: its span ops are the
/// per-block trait defaults.
struct BlockOpsOnly(ExtMem);

impl BlockStore for BlockOpsOnly {
    fn block_elems(&self) -> usize {
        self.0.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        BlockStore::alloc_array(&mut self.0, len_elements)
    }
    fn io_stats(&self) -> IoStats {
        self.0.io_stats()
    }
    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.0.hint_blocks(h, blocks)
    }
    fn recycle(&mut self, blk: Block) {
        self.0.recycle(blk)
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.0.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.0.try_store_block(h, i, blk)
    }
}

/// Half the cells occupied, distinct elements.
fn input(n: usize, salt: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            (hash64(i as u64, salt) & 1 == 1)
                .then(|| Element::new(hash64(i as u64, !salt) >> 24, i as u64))
        })
        .collect()
}

/// Everything one pipeline leaves behind: the trace and reports of each
/// pass, and the array after them.
type Outcome = (Vec<AccessTrace>, Vec<String>, Vec<Cell>);

/// Runs compaction, selection of the median and the bucket sort over the
/// store `wrap` builds around a traced `ExtMem`.
fn pipeline<S: BlockStore>(
    cells: &[Cell],
    b: usize,
    m: usize,
    wrap: impl FnOnce(ExtMem) -> S,
    mem: impl Fn(&mut S) -> &mut ExtMem,
) -> Outcome {
    let mut inner = ExtMem::new(b);
    let h = inner.alloc_array_from_cells(cells);
    let mut store = wrap(inner);
    let policy = RetryPolicy::default();
    let (mut traces, mut reports) = (Vec::new(), Vec::new());
    let mut traced = |store: &mut S, run: &mut dyn FnMut(&mut S) -> String| {
        mem(store).enable_trace();
        reports.push(run(store));
        traces.push(mem(store).take_trace().expect("trace enabled"));
    };
    traced(&mut store, &mut |s| {
        format!("{:?}", try_compact(s, &h, m, policy).expect("compaction"))
    });
    let k = cells.iter().flatten().count() / 2;
    traced(&mut store, &mut |s| {
        format!(
            "{:?}",
            try_select_kth(s, &h, m, k, policy).expect("selection")
        )
    });
    traced(&mut store, &mut |s| {
        let mut rs = RetryingStore::new(s, policy);
        let cfg = BucketSortConfig::seeded(0x5027);
        let report = bucket_oblivious_sort_by(&mut rs, &h, m, &cfg, &cell_cmp_none_last)
            .expect("bucket sort");
        format!("{report:?} {:?}", rs.stats())
    });
    (traces, reports, mem(&mut store).snapshot_cells(&h))
}

fn assert_span_paths_match_block_ops(n: usize, b: usize, m: usize) {
    let cells = input(n, (n ^ b ^ m) as u64);
    let plain = pipeline(&cells, b, m, |mem| mem, |s| s);
    let blocks = pipeline(&cells, b, m, BlockOpsOnly, |s| &mut s.0);
    let shape = format!("N={n} B={b} M={m}");
    assert_eq!(plain.1, blocks.1, "{shape}: reports");
    for (pass, (a, d)) in ["compact", "select", "sort"]
        .iter()
        .zip(plain.0.iter().zip(&blocks.0))
    {
        assert!(a == d, "{shape}: {pass} traces differ");
    }
    assert_eq!(plain.2, blocks.2, "{shape}: outputs");
}

#[test]
fn span_paths_match_block_ops_at_the_headline() {
    assert_span_paths_match_block_ops(1 << 18, 64, 1 << 13);
}

#[test]
fn span_paths_match_block_ops_at_tight_and_small_shapes() {
    // Z = M/2 (γ = 1), where every bucket-sort span falls back to a block.
    assert_span_paths_match_block_ops(1 << 12, 16, 256);
    assert_span_paths_match_block_ops(1 << 13, 8, 512);
    // A partial last block in every array the passes allocate.
    assert_span_paths_match_block_ops(3 * 1024 + 37, 64, 1024);
}

/// The span calls that reached the store below the façades: `(is_store,
/// elements)` each.
type Calls = Rc<RefCell<Vec<(bool, usize)>>>;

/// Logs every span call that reaches the prefetching store it wraps.
struct Recorder {
    inner: PrefetchingStore<ExtMem>,
    calls: Calls,
}

impl BlockStore for Recorder {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.inner.alloc_array(len_elements)
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        self.inner.hint_blocks(h, blocks)
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.inner.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.inner.try_store_block(h, i, blk)
    }
    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        let len = elem_hi.saturating_sub(elem_lo);
        self.calls.borrow_mut().push((false, len));
        self.inner.try_load_span(h, elem_lo, elem_hi)
    }
    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        self.calls.borrow_mut().push((true, cells.len()));
        self.inner.try_store_span(h, elem_lo, cells)
    }
}

fn recorded(n: usize, b: usize) -> (Recorder, ArrayHandle, Calls) {
    let mut inner = PrefetchingStore::new(ExtMem::new(b));
    let h = inner.alloc_array(n);
    inner.try_store_span(&h, 0, &input(n, 0x5A)).unwrap();
    let calls = Rc::default();
    let rec = Recorder {
        inner,
        calls: Rc::clone(&calls),
    };
    (rec, h, calls)
}

#[test]
fn sampling_and_bucket_spans_reach_the_prefetching_store_as_spans() {
    let (n, b, m) = (1 << 16, 64, 1 << 13);
    let policy = RetryPolicy::default();

    // Selection reads each sampling chunk of g cells with one span.
    let (mut rec, h, calls) = recorded(n, b);
    let k = n / 4;
    let (_, report, _) = try_select_kth(&mut rec, &h, m, k, policy).unwrap();
    let g = report.chunk_elems;
    let chunk_loads = calls
        .borrow()
        .iter()
        .filter(|&&(store, len)| !store && len == g)
        .count();
    assert!(g > b, "chunks span many blocks");
    assert!(
        chunk_loads >= n / g,
        "{chunk_loads} sampling spans of {g} cells"
    );

    // The bucket sort writes each bucket with one span of Z cells when it
    // distributes, and reads each bucket with one span in its last
    // superlevel: with Z = 128 its groups have 16 buckets, which leave the
    // cache room for one more.
    let (mut rec, h, calls) = recorded(n, b);
    let cfg = BucketSortConfig::with_bucket_capacity(0x5027, 128);
    let mut rs = RetryingStore::new(&mut rec, policy);
    let report = bucket_oblivious_sort_by(&mut rs, &h, m, &cfg, &cell_cmp_none_last).unwrap();
    let z = report.z;
    assert!(z > b, "a bucket spans several blocks");
    let calls = calls.borrow();
    let count = |store: bool| {
        calls
            .iter()
            .filter(|&&(s, len)| s == store && len == z)
            .count()
    };
    assert!(
        count(true) >= report.buckets,
        "{} bucket writes as spans",
        count(true)
    );
    assert!(
        count(false) >= report.buckets,
        "{} bucket reads as spans",
        count(false)
    );
}

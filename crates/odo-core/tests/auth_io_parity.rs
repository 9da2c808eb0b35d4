//! The authentication layer costs no block I/O of its own: against an
//! honest server every read and write is checked against the client's
//! `(version, tag)` table, so below the layer the I/O count is the pass's
//! own until a checkpoint flush. The server MAC array is read only to
//! classify a block that failed its check — including one a prefetch steal
//! fetched.

use std::sync::{Arc, Mutex};

use extmem::prefetch::{PrefetchRead, Prefetchable};
use extmem::util::hash64;
use odo_core::prelude::*;
use odo_core::{ArrayHandle, Block, IoStats};

const KEY: u64 = 0x4D41_4353;

/// Compaction at this shape runs a column sweep of stride `W/B = 64`
/// blocks: every access of that sweep falls in a different MAC block.
const N: usize = 1 << 13;
const B: usize = 8;
const M: usize = 1 << 10;

fn input(seed: u64) -> Vec<Cell> {
    (0..N)
        .map(|i| {
            (!hash64(i as u64, seed).is_multiple_of(3))
                .then(|| Element::new(hash64(i as u64, seed ^ 0xE) >> 16, i as u64))
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Pass {
    Compact,
    Select,
    Lemma2Sort,
    BucketSort,
}

const PASSES: [Pass; 4] = [
    Pass::Compact,
    Pass::Select,
    Pass::Lemma2Sort,
    Pass::BucketSort,
];

fn run<S: BlockStore>(pass: Pass, store: &mut S, h: &ArrayHandle) {
    let policy = RetryPolicy::default();
    match pass {
        Pass::Compact => {
            let (report, _) = try_compact(store, h, M, policy).unwrap();
            assert!(report.external_passes >= 1 && report.window_elems / B >= 64);
        }
        Pass::Select => {
            try_select_kth(store, h, M, N / 3, policy).unwrap();
        }
        Pass::Lemma2Sort => {
            try_sort(store, h, M, SortOrder::Ascending, policy).unwrap();
        }
        Pass::BucketSort => {
            OblivSorter::bucket(7)
                .try_sort(store, h, M, SortOrder::Ascending, policy)
                .unwrap();
        }
    }
}

/// The I/Os `pass` costs over `store`, measured by `stats`.
fn ios<S: BlockStore>(pass: Pass, store: &mut S, stats: impl Fn(&S) -> IoStats) -> u64 {
    let h = BlockStore::alloc_array(store, N);
    store.try_store_span(&h, 0, &input(5)).unwrap();
    let before = stats(store);
    run(pass, store, &h);
    (stats(store) - before).total()
}

#[test]
fn authenticated_passes_cost_exactly_their_logical_ios() {
    for pass in PASSES {
        let logical = ios(pass, &mut ExtMem::new(B), |s| s.stats());
        let mut auth = AuthenticatedStore::new(ExtMem::new(B), KEY);
        let bottom = ios(pass, &mut auth, |s| s.inner().stats());
        assert_eq!(bottom, logical, "{pass:?}: bottom-level I/Os");
        assert_eq!(
            auth.mac_io().total(),
            0,
            "{pass:?}: MAC I/Os before a flush"
        );
        // The checkpoint flush then writes one block per B dirty entries.
        auth.flush_macs().unwrap();
        assert!(auth.mac_io().writes > 0 && auth.mac_io().reads == 0);
    }
}

/// A store layer that passes everything through and logs the global
/// address of every block its readers fetch, and every array allocated
/// through it.
struct Recorder<S> {
    inner: S,
    fetched: Arc<Mutex<Vec<usize>>>,
    arrays: Vec<ArrayHandle>,
}

struct RecordingReader<R> {
    inner: R,
    fetched: Arc<Mutex<Vec<usize>>>,
}

impl<R: PrefetchRead> PrefetchRead for RecordingReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        self.fetched.lock().unwrap().push(addr);
        self.inner.fetch(addr)
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        self.fetched.lock().unwrap().extend(start..start + count);
        self.inner.fetch_run(start, count)
    }
}

impl<S: BlockStore> BlockStore for Recorder<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        let h = self.inner.alloc_array(len_elements);
        self.arrays.push(h);
        h
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.inner.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.inner.try_store_block(h, i, blk)
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

impl<S: Prefetchable> Prefetchable for Recorder<S> {
    type Reader = RecordingReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        RecordingReader {
            inner: self.inner.reader(),
            fetched: Arc::clone(&self.fetched),
        }
    }
    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }
    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        self.inner.store_run(start, blks)
    }
}

#[test]
fn prefetch_steals_fetch_no_mac_block() {
    let enc = EncryptedStore::with_backing(FileStore::temp(B).unwrap(), 0xA11CE);
    let fetched = Arc::new(Mutex::new(Vec::new()));
    let recorder = Recorder {
        inner: enc,
        fetched: Arc::clone(&fetched),
        arrays: Vec::new(),
    };
    let mut ps = PrefetchingStore::new(AuthenticatedStore::new(recorder, KEY));
    let h = BlockStore::alloc_array(&mut ps, N);
    ps.try_store_span(&h, 0, &input(9)).unwrap();
    try_compact(&mut ps, &h, M, RetryPolicy::default()).unwrap();
    try_select_kth(&mut ps, &h, M, N / 4, RetryPolicy::default()).unwrap();
    ps.flush_writes().unwrap();

    assert!(
        ps.prefetch_stats().steals > 0,
        "the passes hint, so loads steal"
    );
    let auth = ps.inner();
    // The auth layer allocates each data array, then its MAC array.
    let recorder = auth.inner();
    let mac_arrays: Vec<&ArrayHandle> = recorder.arrays.iter().skip(1).step_by(2).collect();
    let fetched = fetched.lock().unwrap();
    assert!(!fetched.is_empty());
    for addr in fetched.iter() {
        assert!(
            !mac_arrays
                .iter()
                .any(|m| (m.global_block(0)..m.global_block(0) + m.n_blocks()).contains(addr)),
            "a steal fetched MAC block {addr}"
        );
    }
    assert_eq!(auth.mac_io().total(), 0);
}

/// A consistent rollback — data and checkpoint replaced by their state at
/// an earlier flush — is `Stale` when a prefetch steal serves the block,
/// exactly as on the foreground path.
#[test]
fn a_stolen_consistent_rollback_is_stale() {
    let cells = |salt: u64| -> Vec<Cell> {
        (0..4 * B)
            .map(|i| Some(Element::new(hash64(i as u64, salt), i as u64)))
            .collect()
    };
    let mut ps = PrefetchingStore::new(AuthenticatedStore::new(FileStore::temp(B).unwrap(), KEY));
    let h = BlockStore::alloc_array(&mut ps, 4 * B);
    ps.try_store_span(&h, 0, &cells(1)).unwrap();
    ps.flush_writes().unwrap();
    ps.inner_mut().flush_macs().unwrap();
    let path = ps.inner().inner().path().to_path_buf();
    let first = std::fs::read(&path).unwrap();

    ps.try_store_span(&h, 0, &cells(2)).unwrap();
    ps.flush_writes().unwrap();
    ps.inner_mut().flush_macs().unwrap();
    std::fs::write(&path, &first).unwrap();

    ps.hint_blocks(&h, &[0, 1, 2, 3]);
    for beta in 0..4 {
        assert_eq!(
            ps.try_load_block(&h, beta).unwrap_err(),
            StoreError::Stale {
                addr: h.global_block(beta),
                expected: 2,
                got: 1
            },
            "block {beta}"
        );
    }
    assert_eq!(ps.prefetch_stats().steals, 1, "one steal served the run");
    assert_eq!(
        ps.inner().mac_io().reads,
        4,
        "one classification read per block"
    );
}

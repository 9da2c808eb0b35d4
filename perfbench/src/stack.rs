//! The two store stacks the workloads run over, each in a plain form (the
//! library's own types, measured for the end-to-end metrics) and a traced
//! form (a [`Tapped`] boundary above every layer, measured for the per-layer
//! metrics).
//!
//! * `mem`: [`ExtMem`], the in-memory server. No store layers: every
//!   nanosecond is client CPU in the algorithms.
//! * `secure`: `Prefetching(Auth(Encrypted(FileStore)))`, the defended
//!   file-backed stack a real client composes. The plain form still carries
//!   a clock-less tap above the `FileStore`, because prefetch workers read the
//!   file through readers the store's own counters do not see; the tap counts
//!   those block transfers and never reads the clock.

use extmem::file::CELL_BYTES;
use extmem::{
    AccessTrace, ArenaStats, AuthenticatedStore, BackingStore, BlockStore, EncryptedStore, ExtMem,
    FileStore, IoStats, PrefetchStats, PrefetchingStore,
};

use crate::tap::{LayerSnapshot, Tapped};

/// Block size `B` of every workload.
pub const B: usize = 64;
/// Client cache `M` of every workload, in elements.
pub const M: usize = 1 << 13;

const ENC_KEY: u64 = 0x0D0_E4C;
const MAC_KEY: u64 = 0x0D0_4AC;

/// Raw per-layer counters at one instant; the difference of two views
/// gives a window's per-layer metrics.
#[derive(Clone, Debug, Default)]
pub struct LayerView {
    /// `(layer, tap counters)`, outermost layer first.
    pub taps: Vec<(&'static str, LayerSnapshot)>,
    /// Counters of the tap above the `FileStore`, which plain and traced
    /// secure stacks both carry; zero on the mem stacks.
    pub bottom: LayerSnapshot,
    pub prefetch: PrefetchStats,
    pub mac_io: IoStats,
    pub arena: ArenaStats,
}

/// A store stack as the workloads see it.
pub trait Stack: BlockStore {
    /// Starts recording the logical access trace: the block requests the
    /// algorithms issue into the top of the stack, in order.
    fn start_trace(&mut self);
    /// Stops recording and returns the logical trace.
    fn finish_trace(&mut self) -> AccessTrace;
    /// Bytes the server holds for this stack.
    fn server_bytes(&self) -> u64;
    /// Block transfers the bottom store served so far, on every thread.
    fn server_blocks(&self) -> u64;
    /// Per-layer counters; taps are empty on a plain stack.
    fn view(&self) -> LayerView;
}

fn server_bytes_of(blocks: usize) -> u64 {
    (blocks * B * CELL_BYTES) as u64
}

// ---- mem ----------------------------------------------------------------

impl Stack for ExtMem {
    fn start_trace(&mut self) {
        ExtMem::enable_trace(self);
    }
    fn finish_trace(&mut self) -> AccessTrace {
        ExtMem::take_trace(self).expect("trace was enabled")
    }
    fn server_bytes(&self) -> u64 {
        server_bytes_of(self.allocated_blocks())
    }
    fn server_blocks(&self) -> u64 {
        self.stats().total()
    }
    fn view(&self) -> LayerView {
        LayerView {
            arena: self.arena().stats(),
            ..LayerView::default()
        }
    }
}

impl Stack for Tapped<ExtMem> {
    fn start_trace(&mut self) {
        self.inner_mut().start_trace();
    }
    fn finish_trace(&mut self) -> AccessTrace {
        self.inner_mut().finish_trace()
    }
    fn server_bytes(&self) -> u64 {
        self.inner().server_bytes()
    }
    fn server_blocks(&self) -> u64 {
        self.inner().server_blocks()
    }
    fn view(&self) -> LayerView {
        LayerView {
            taps: vec![("mem", self.snapshot())],
            ..self.inner().view()
        }
    }
}

// ---- secure -------------------------------------------------------------

type FileL = Tapped<FileStore>;
pub type PlainSecure = PrefetchingStore<AuthenticatedStore<EncryptedStore<FileL>>>;
pub type TracedSecure =
    Tapped<PrefetchingStore<Tapped<AuthenticatedStore<Tapped<EncryptedStore<FileL>>>>>>;

fn file() -> FileStore {
    FileStore::temp(B).expect("a block file in the benchmark's data directory")
}

/// The plain secure stack, empty.
pub fn plain_secure() -> PlainSecure {
    let enc = EncryptedStore::with_backing(Tapped::new(file(), false), ENC_KEY);
    PrefetchingStore::new(AuthenticatedStore::new(enc, MAC_KEY))
}

/// The traced twin of [`plain_secure`].
pub fn traced_secure() -> TracedSecure {
    let enc = EncryptedStore::with_backing(Tapped::new(file(), true), ENC_KEY);
    let auth = AuthenticatedStore::new(Tapped::new(enc, true), MAC_KEY);
    Tapped::new(PrefetchingStore::new(Tapped::new(auth, true)), true)
}

impl Stack for PlainSecure {
    fn start_trace(&mut self) {
        self.enable_trace();
    }
    fn finish_trace(&mut self) -> AccessTrace {
        self.take_trace().expect("trace was enabled")
    }
    fn server_bytes(&self) -> u64 {
        server_bytes_of(self.inner().inner().backing().allocated_blocks())
    }
    fn server_blocks(&self) -> u64 {
        self.inner().inner().backing().snapshot().blocks
    }
    fn view(&self) -> LayerView {
        let auth = self.inner();
        LayerView {
            taps: Vec::new(),
            bottom: auth.inner().backing().snapshot(),
            prefetch: self.prefetch_stats(),
            mac_io: auth.mac_io(),
            arena: auth.inner().backing().inner().arena().stats(),
        }
    }
}

impl Stack for TracedSecure {
    fn start_trace(&mut self) {
        self.inner_mut().enable_trace();
    }
    fn finish_trace(&mut self) -> AccessTrace {
        self.inner_mut().take_trace().expect("trace was enabled")
    }
    fn server_bytes(&self) -> u64 {
        server_bytes_of(self.file().allocated_blocks())
    }
    fn server_blocks(&self) -> u64 {
        self.file().snapshot().blocks
    }
    fn view(&self) -> LayerView {
        let prefetch = self.inner();
        let auth_tap = prefetch.inner();
        let auth = auth_tap.inner();
        let crypto_tap = auth.inner();
        let file_tap = crypto_tap.inner().backing();
        LayerView {
            taps: vec![
                ("prefetch", self.snapshot()),
                ("auth", auth_tap.snapshot()),
                ("crypto", crypto_tap.snapshot()),
                ("file", file_tap.snapshot()),
            ],
            bottom: file_tap.snapshot(),
            prefetch: prefetch.prefetch_stats(),
            mac_io: auth.mac_io(),
            arena: file_tap.inner().arena().stats(),
        }
    }
}

impl TracedSecure {
    fn file(&self) -> &FileL {
        self.inner().inner().inner().inner().inner().backing()
    }
}

//! # odo-extmem — the external-memory model substrate
//!
//! This crate implements the machine model of Goodrich's SPAA 2011 paper
//! *"Data-Oblivious External-Memory Algorithms for the Compaction, Selection,
//! and Sorting of Outsourced Data"*:
//!
//! * a client (**Alice**) owning a small private cache of `M` words,
//! * a storage server (**Bob**) holding the bulk of the data as an array of
//!   blocks of `B` words each,
//! * an honest-but-curious adversary who observes the **sequence of block
//!   addresses** Alice reads and writes (but not the encrypted contents).
//!
//! Everything the algorithm crates need from the model lives here:
//!
//! * [`Element`] — the machine-word record (key, payload) the paper's arrays
//!   hold; cells may be empty (dummy).
//! * [`Block`] — a block of `B` element slots.
//! * [`ExtMem`] — the block store: allocation of arrays, block reads/writes,
//!   per-operation I/O accounting ([`IoStats`]) and access-trace capture
//!   ([`AccessTrace`]), which is exactly the adversary's view.
//! * [`CacheBudget`] — a debug-level accounting helper used by algorithms to
//!   assert that their private working set never exceeds `M` words.
//! * [`BlockStore`] — the backend trait both [`ExtMem`] and
//!   [`EncryptedStore`] implement, so algorithms written against it (the
//!   external butterfly compaction in `odo-core`) run unchanged, with
//!   identical traces and I/O counts, over plaintext or re-encrypted storage.
//! * [`EncryptedStore`] — a masking layer that models semantically secure
//!   re-encryption of every block write (each write produces a fresh
//!   ciphertext even for identical plaintexts).
//! * [`trace`] — utilities for comparing access traces, the basis of the
//!   obliviousness test-suite used across the workspace.
//!
//! ## The untrusted/unreliable server
//!
//! The paper's server is not merely curious — it is *untrusted*. The fault
//! model (see the repo-root `DESIGN.md`) extends the substrate accordingly:
//!
//! * [`StoreError`] — the typed failure vocabulary, and the `try_*`
//!   fallible operations every [`BlockStore`] carries: `try_load_block` and
//!   `try_store_block` are the two required block ops. The algorithms call
//!   only these and propagate the first error with `?`.
//! * [`FaultyStore`] — a seeded, deterministic fault injector: transient
//!   read failures, ciphertext corruption, stale replays, dropped writes, at
//!   configurable per-op rates.
//! * [`AuthenticatedStore`] — per-block MACs checked against a client-side
//!   `(version, tag)` table at no extra I/O: corruption and rollback surface
//!   as `Err(Corrupted | Stale)`, never as wrong data.
//! * [`RetryingStore`] — bounded retry of transient faults;
//!   every other error passes through as a value.
//!
//! ## Cost model
//!
//! Every [`BlockStore::try_load_block`] / [`BlockStore::try_store_block`] on
//! an [`ExtMem`] costs exactly one I/O, mirroring the paper's cost model
//! (I/Os are counted at block granularity; CPU time inside the client cache
//! is free). Algorithms that claim `O(N/B)` I/Os can therefore be validated
//! by reading [`ExtMem::stats`] after a run, which is what the `odo-bench`
//! experiment harness does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod auth;
pub mod block;
pub mod budget;
pub mod cache;
pub mod crypto;
pub mod element;
pub mod error;
pub mod fault;
pub mod file;
pub mod mem;
pub mod prefetch;
pub mod retry;
pub mod store;
pub mod trace;
pub mod util;

pub use arena::{ArenaStats, BlockArena};
pub use auth::{AuthClientState, AuthenticatedStore};
pub use block::Block;
pub use budget::CacheBudget;
pub use cache::BlockCache;
pub use crypto::EncryptedStore;
pub use element::{Cell, Element};
pub use error::StoreError;
pub use fault::{FaultKind, FaultSpec, FaultStats, FaultyStore};
pub use file::{install_quiet_abort_hook, FileStore, InjectedCrash};
pub use mem::{AccessEvent, AccessOp, AccessTrace, ArrayHandle, ExtMem, IoStats};
pub use prefetch::{PrefetchConfig, PrefetchRead, PrefetchStats, Prefetchable, PrefetchingStore};
pub use retry::{RetryPolicy, RetryStats, RetryingStore};
pub use store::{BackingStore, BlockStore};

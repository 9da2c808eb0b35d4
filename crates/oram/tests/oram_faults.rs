//! ORAM fault battery over the full untrusted-server stack:
//! `Auth ∘ Faulty ∘ Encrypted ∘ FileStore`.
//!
//! Safety claim, same as the algorithm-level batteries in `odo-core`:
//! tampering (corrupted blocks, rollbacks, dropped writes) surfaces as a
//! typed tampering error — never a silently wrong value — while transient
//! faults are retried to the *exact* result a fault-free run produces. On
//! top of that, the ORAM adds client state that can be left inconsistent by
//! an aborted access, so a fatal error poisons the client: every later
//! `try_*` call reports [`OdoError::InvalidState`] instead of serving from
//! a hierarchy that no longer matches the server.

use std::collections::HashMap;

use extmem::util::hash64;
use extmem::{
    ArrayHandle, AuthenticatedStore, Block, BlockStore, EncryptedStore, ExtMem, FaultSpec,
    FaultyStore, FileStore, IoStats, RetryPolicy, StoreError,
};
use odo_core::{BucketSortConfig, OblivSorter, OdoError};
use oram::{Oram, OramConfig};

type Stack = AuthenticatedStore<FaultyStore<EncryptedStore<FileStore>>>;

const N: u64 = 64;
const B: usize = 8;
const WARMUP: u64 = 96;
const FAULTY_ACCESSES: u64 = 160;

fn stack(seed: u64) -> Stack {
    let file = FileStore::temp(B).expect("tempdir-backed block file");
    let enc = EncryptedStore::with_backing(file, 0xA11CE ^ seed);
    let faulty = FaultyStore::new(enc, seed, FaultSpec::none());
    AuthenticatedStore::new(faulty, 0x4D41_4353 ^ seed)
}

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Detected,
    Correct,
    SilentWrong,
}

/// Builds an ORAM on a fresh stack, warms it up fault-free, then runs a
/// mixed request load under `spec`, checking every answer against a
/// client-side mirror.
fn run_case(seed: u64, spec: FaultSpec) -> (u64, u64, Outcome) {
    let mut auth = stack(seed);
    let mut oram = Oram::new(&mut auth, N, &OramConfig::new(8, 64, seed));
    let mut mirror: HashMap<u64, u64> = HashMap::new();

    for k in 0..WARMUP {
        let addr = hash64(k, seed) % N;
        let v = hash64(k, !seed) >> 1;
        oram.write(&mut auth, addr, v);
        mirror.insert(addr, v);
    }

    auth.inner_mut().set_spec(spec);
    let mut retries = 0u64;
    let mut outcome = Outcome::Correct;
    for k in 0..FAULTY_ACCESSES {
        let addr = hash64(k, seed ^ 0xF4417) % N;
        let result = if k % 3 == 0 {
            let v = hash64(k, seed ^ 0xBEEF) >> 1;
            oram.try_write(&mut auth, addr, v, RetryPolicy::default())
                .map(|stats| {
                    mirror.insert(addr, v);
                    (None, stats)
                })
        } else {
            oram.try_read(&mut auth, addr, RetryPolicy::default())
                .map(|(value, stats)| (Some(value), stats))
        };
        match result {
            Ok((value, stats)) => {
                retries += stats.retries;
                if let Some(got) = value {
                    let want = mirror.get(&addr).copied().unwrap_or(0);
                    if got != want {
                        outcome = Outcome::SilentWrong;
                        break;
                    }
                }
            }
            Err(e) => {
                assert!(
                    e.is_tampering(),
                    "seed {seed}: fatal error must classify as tampering, got {e:?}"
                );
                // A fatal abort poisons the client: the hierarchy may be
                // mid-rebuild, so serving more requests could be wrong.
                let next = oram.try_read(&mut auth, 0, RetryPolicy::default());
                assert!(
                    matches!(next, Err(OdoError::InvalidState { .. })),
                    "seed {seed}: post-abort access must refuse, got {next:?}"
                );
                outcome = Outcome::Detected;
                break;
            }
        }
    }
    auth.inner_mut().set_spec(FaultSpec::none());
    let tampering = auth.inner().fault_stats().tampering();
    (tampering, retries, outcome)
}

const TAMPER_LANES: [(&str, FaultSpec); 4] = [
    (
        "corrupt",
        FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 1500,
            stale_read_ppm: 0,
            drop_write_ppm: 0,
            transient_write_ppm: 0,
        },
    ),
    (
        "stale",
        FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 0,
            stale_read_ppm: 6000,
            drop_write_ppm: 0,
            transient_write_ppm: 0,
        },
    ),
    (
        "drop",
        FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 0,
            stale_read_ppm: 0,
            drop_write_ppm: 1500,
            transient_write_ppm: 0,
        },
    ),
    (
        "mixed",
        FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 700,
            stale_read_ppm: 700,
            drop_write_ppm: 700,
            transient_write_ppm: 0,
        },
    ),
];

#[test]
fn tampered_oram_accesses_are_detected_never_silently_wrong() {
    let mut tampered_runs = 0u64;
    let mut detected_runs = 0u64;
    for (lane, spec) in TAMPER_LANES {
        for seed in 1..=5u64 {
            let (tampering, _, outcome) = run_case(seed, spec);
            assert_ne!(
                outcome,
                Outcome::SilentWrong,
                "{lane} seed {seed}: SILENT WRONG ANSWER with {tampering} \
                 tampering faults injected"
            );
            if tampering > 0 {
                tampered_runs += 1;
                if outcome == Outcome::Detected {
                    detected_runs += 1;
                }
            }
        }
    }
    assert!(
        tampered_runs >= 10,
        "the lane rates are meant to fire in most runs, got {tampered_runs}/20"
    );
    assert!(
        detected_runs > 0,
        "detection never fired ({detected_runs}/{tampered_runs})"
    );
}

#[test]
fn transient_faults_retry_to_the_exact_mirror_results() {
    let spec = FaultSpec {
        transient_read_ppm: 20_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    };
    let mut total_retries = 0u64;
    for seed in 1..=3u64 {
        let (tampering, retries, outcome) = run_case(seed, spec);
        assert_eq!(tampering, 0, "transients are not tampering");
        assert_eq!(
            outcome,
            Outcome::Correct,
            "seed {seed}: every answer must match the mirror exactly"
        );
        total_retries += retries;
    }
    assert!(
        total_retries > 0,
        "the transient rate is meant to fire and be retried"
    );
}

#[test]
fn a_fault_free_run_over_the_stack_matches_the_mirror() {
    let (tampering, retries, outcome) = run_case(77, FaultSpec::none());
    assert_eq!(tampering, 0);
    assert_eq!(retries, 0);
    assert_eq!(outcome, Outcome::Correct);
}

/// A rebuild whose bucket sort overflows returns the typed
/// `BucketOverflow` and poisons the client. Buckets of capacity 8 at
/// `B = 8`, `M = 64` overflow within a few hundred accesses.
#[test]
fn a_bucket_overflow_in_a_rebuild_is_a_typed_error() {
    let mut mem = ExtMem::new(8);
    let sorter = OblivSorter::Bucket(BucketSortConfig::with_bucket_capacity(7, 8));
    let cfg = OramConfig::new(8, 64, 7).with_sorter(sorter);
    let mut oram = Oram::new(&mut mem, 1024, &cfg);
    let policy = RetryPolicy::default();
    let mut failed = None;
    for k in 0..2_000u64 {
        if let Err(e) = oram.try_write(&mut mem, hash64(k, 7) % 1024, k, policy) {
            failed = Some(e);
            break;
        }
    }
    let err = failed.expect("a bucket of capacity 8 overflows within 2,000 accesses");
    assert!(
        matches!(err, OdoError::BucketOverflow { .. }),
        "got {err:?}"
    );
    let next = oram.try_write(&mut mem, 0, 0, policy).unwrap_err();
    assert!(
        matches!(next, OdoError::InvalidState { .. }),
        "got {next:?}"
    );
}

/// A store that fails its `fail_at`-th block I/O (1-based) with
/// `Corrupted`, and counts every block I/O it is asked for — including any
/// issued after the failure.
struct FailAt {
    mem: ExtMem,
    ops: usize,
    fail_at: usize,
}

impl FailAt {
    fn tick(&mut self, h: &ArrayHandle, i: usize) -> Result<(), StoreError> {
        self.ops += 1;
        if self.ops == self.fail_at {
            return Err(StoreError::Corrupted {
                addr: h.global_block(i),
            });
        }
        Ok(())
    }
}

impl BlockStore for FailAt {
    fn block_elems(&self) -> usize {
        self.mem.block_elems()
    }
    fn alloc_array(&mut self, len: usize) -> ArrayHandle {
        self.mem.alloc_array(len)
    }
    fn io_stats(&self) -> IoStats {
        self.mem.stats()
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.tick(h, i)?;
        self.mem.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.tick(h, i)?;
        self.mem.try_store_block(h, i, blk)
    }
}

/// Like every algorithm-level `try_*` entry point (see `odo-core`'s fault
/// battery), `Oram::try_write` returns the first fatal store error and
/// issues no block I/O after it — whether the failing op is a probe or part
/// of a rebuild.
#[test]
fn try_write_stops_at_the_first_fatal_error() {
    const WRITES: u64 = 64;
    let run = |fail_at: usize| {
        let mut store = FailAt {
            mem: ExtMem::new(B),
            ops: 0,
            fail_at,
        };
        let mut oram = Oram::new(&mut store, N, &OramConfig::new(8, 64, 3));
        let policy = RetryPolicy::default();
        let res = (0..WRITES).try_for_each(|k| {
            oram.try_write(&mut store, hash64(k, 3) % N, k, policy)
                .map(drop)
        });
        (res, store.ops)
    };
    let (res, total) = run(usize::MAX);
    res.expect("fault-free run");
    for k in (1..total).step_by((total / 64).max(1)).chain([total]) {
        let (res, ops) = run(k);
        assert!(
            matches!(res, Err(OdoError::Store(StoreError::Corrupted { .. }))),
            "failing op {k} of {total}: got {res:?}"
        );
        assert_eq!(ops, k, "block I/O issued after failing op {k}");
    }
}

//! The untrusted-server fault battery: sort, compact and select over an
//! authenticated, fault-injected, encrypted store.
//!
//! The safety claim under test is the paper-setting one: the server is
//! *untrusted*, and with [`AuthenticatedStore`] in the stack a tampering
//! server (bit flips, rollbacks, dropped writes — injected deterministically
//! by [`FaultyStore`]) can cause a typed `Err(Corrupted | Stale)` but
//! **never a silently wrong answer**; a merely *unreliable* server
//! (transient faults) is ridden out by the retry policy to the exact correct
//! result. The battery also asserts the obliviousness side-condition:
//! injected faults and the retries they trigger leave the server-visible
//! trace data-independent.

use extmem::util::hash64;
use odo_core::prelude::*;
use odo_core::{ArrayHandle, Block};

type Stack = AuthenticatedStore<FaultyStore<EncryptedStore>>;

const N: usize = 1024;
/// Compaction and selection (whose prune rounds compact) run on a larger
/// array: at `N` compaction needs so few I/Os (768 at this `M`) that the
/// tamper lanes would miss about half the seeds. At `4N` compaction's
/// stride-8 row table also outgrows the cache and streams from the server,
/// so the battery tampers with that table too.
const LARGE_N: usize = 4 * N;
const B: usize = 8;
const M: usize = 128;

fn stack(seed: u64) -> Stack {
    let enc = EncryptedStore::new(B, 0xA11CE ^ seed);
    let faulty = FaultyStore::new(enc, seed, FaultSpec::none());
    AuthenticatedStore::new(faulty, 0x4D41_4353 ^ seed)
}

/// Allocates and populates an array through the authenticated layer with
/// faults disabled, then flushes the MAC state to the server so the run
/// starts from a consistent, fully-verifiable state.
fn populate(auth: &mut Stack, cells: &[Cell]) -> ArrayHandle {
    assert!(auth.inner().spec().is_none(), "populate with faults off");
    let h = BlockStore::alloc_array(auth, cells.len());
    auth.try_store_span(&h, 0, cells).unwrap();
    auth.flush_macs().unwrap();
    h
}

fn sort_input(seed: u64) -> Vec<Cell> {
    (0..N)
        .map(|i| Some(Element::new(hash64(i as u64, seed) >> 16, i as u64)))
        .collect()
}

fn compact_input(seed: u64) -> Vec<Cell> {
    (0..LARGE_N)
        .map(|i| {
            (!hash64(i as u64, seed ^ 0xC0).is_multiple_of(3))
                .then(|| Element::new(i as u64, i as u64))
        })
        .collect()
}

fn select_input(seed: u64) -> Vec<Cell> {
    // Duplicate-heavy keys; payload = original position (the tie-breaker).
    (0..LARGE_N)
        .map(|i| Some(Element::new(hash64(i as u64, seed ^ 0x5E) % 97, i as u64)))
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Prim {
    Sort,
    Compact,
    Select,
}

/// Runs one primitive over the fault-injected authenticated stack and
/// classifies the outcome. Returns `(tampering_faults_injected, outcome)`.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// The run (or the verified read-back) surfaced tampering as an error.
    Detected,
    /// Everything verified and the output is exactly correct.
    Correct,
    /// The forbidden case: a completed run with wrong output.
    SilentWrong,
}

fn run_case(prim: Prim, seed: u64, spec: FaultSpec) -> (u64, Outcome) {
    let mut auth = stack(seed);
    let input = match prim {
        Prim::Sort => sort_input(seed),
        Prim::Compact => compact_input(seed),
        Prim::Select => select_input(seed),
    };
    let h = populate(&mut auth, &input);
    auth.inner_mut().set_spec(spec);
    let policy = RetryPolicy::default();
    let k = input.len() / 3;

    // Run the primitive; erase the per-primitive payload down to
    // "selected element, if any" + the error.
    let run_result: Result<Option<Element>, OdoError> = match prim {
        Prim::Sort => OblivSorter::default()
            .try_sort(&mut auth, &h, M, SortOrder::Ascending, policy)
            .map(|_| None),
        Prim::Compact => try_compact(&mut auth, &h, M, policy).map(|_| None),
        Prim::Select => try_select_kth(&mut auth, &h, M, k, policy).map(|(elem, _, _)| Some(elem)),
    };

    // Faults off for the verified read-back: any error now reflects
    // tampering that *persisted* on the server (e.g. a dropped write),
    // caught by authentication rather than served.
    auth.inner_mut().set_spec(FaultSpec::none());
    let tampering = auth.inner().fault_stats().tampering();
    let readback = auth.try_load_span(&h, 0, input.len());

    let outcome = match (run_result, readback) {
        (Err(e), _) => {
            assert!(
                e.is_tampering(),
                "{prim:?} seed {seed}: with no transient lane enabled, every \
                 run error must be Corrupted|Stale, got {e:?}"
            );
            Outcome::Detected
        }
        (Ok(_), Err(e)) => {
            assert!(
                matches!(e, StoreError::Corrupted { .. } | StoreError::Stale { .. }),
                "{prim:?} seed {seed}: read-back error must be tampering, got {e:?}"
            );
            Outcome::Detected
        }
        (Ok(selected), Ok(cells)) => {
            let correct = match prim {
                Prim::Sort => {
                    let keys_sorted = cells
                        .windows(2)
                        .all(|w| w[0].unwrap().key <= w[1].unwrap().key);
                    let mut got: Vec<Element> = cells.iter().map(|c| c.unwrap()).collect();
                    let mut want: Vec<Element> = input.iter().map(|c| c.unwrap()).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    keys_sorted && got == want
                }
                Prim::Compact => {
                    let survivors: Vec<Element> = input.iter().flatten().copied().collect();
                    let prefix: Vec<Element> = cells
                        .iter()
                        .take(survivors.len())
                        .map(|c| c.unwrap())
                        .collect();
                    prefix == survivors && cells[survivors.len()..].iter().all(|c| c.is_none())
                }
                Prim::Select => {
                    let mut want: Vec<(u64, u64)> = input
                        .iter()
                        .map(|c| {
                            let e = c.unwrap();
                            (e.key, e.payload)
                        })
                        .collect();
                    want.sort_unstable();
                    let e = selected.unwrap();
                    // The input array itself must be untouched as well.
                    (e.key, e.payload) == want[k] && cells == input
                }
            };
            if correct {
                Outcome::Correct
            } else {
                Outcome::SilentWrong
            }
        }
    };
    (tampering, outcome)
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
        // Stale replays are only *material* on blocks that were rewritten
        // with new content since populate, so this lane runs at a higher
        // rate than the others to fire reliably across the seed grid.
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
        // Only writes can be dropped, and only a write that changes the
        // block counts, so this lane too runs at a higher rate than the
        // read lanes to fire reliably across the seed grid.
        "drop",
        FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 0,
            stale_read_ppm: 0,
            drop_write_ppm: 3000,
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

/// The headline acceptance gate: across every primitive × tamper lane ×
/// seed, zero silent wrong answers — tampering is either detected as a
/// typed error or provably did not affect the (exactly correct) output —
/// and detection actually fires throughout the grid.
#[test]
fn tampered_runs_are_detected_never_silently_wrong() {
    let mut tampered_runs = 0u64;
    let mut detected_runs = 0u64;
    for prim in [Prim::Sort, Prim::Compact, Prim::Select] {
        for (lane, spec) in TAMPER_LANES {
            let mut lane_tampered = 0u64;
            let mut lane_detected = 0u64;
            for seed in 1..=6u64 {
                let (tampering, outcome) = run_case(prim, seed, spec);
                assert_ne!(
                    outcome,
                    Outcome::SilentWrong,
                    "{prim:?}/{lane} seed {seed}: SILENT WRONG ANSWER with \
                     {tampering} tampering faults injected"
                );
                if outcome == Outcome::Detected {
                    assert!(
                        tampering > 0,
                        "{prim:?}/{lane} seed {seed}: detection without injection"
                    );
                }
                if tampering > 0 {
                    lane_tampered += 1;
                    tampered_runs += 1;
                    if outcome == Outcome::Detected {
                        lane_detected += 1;
                        detected_runs += 1;
                    }
                }
            }
            assert!(
                lane_tampered >= 4,
                "{prim:?}/{lane}: the rates are meant to fire in most runs, \
                 got {lane_tampered}/6"
            );
            assert!(
                lane_detected >= 1,
                "{prim:?}/{lane}: detection never fired across the lane"
            );
        }
    }
    // Detection is the overwhelmingly common outcome; the rare remainder is
    // tampering that provably never reached the output (e.g. a dropped
    // write to scratch that was never read again) and was verified correct.
    assert!(
        detected_runs * 10 >= tampered_runs * 8,
        "only {detected_runs}/{tampered_runs} tampered runs were detected"
    );
}

/// A merely unreliable server: transient faults at ~3% per op are retried
/// to the exact correct result, with the retry counters showing real work.
#[test]
fn transient_only_faults_retry_to_the_correct_result() {
    let spec = FaultSpec {
        transient_read_ppm: 30_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    };
    let mut total_retries = 0u64;
    for seed in 1..=4u64 {
        let (tampering, outcome) = run_case(Prim::Sort, seed, spec);
        assert_eq!(tampering, 0, "transients are not tampering");
        assert_eq!(outcome, Outcome::Correct, "seed {seed}");
        let (_, outcome) = run_case(Prim::Compact, seed, spec);
        assert_eq!(outcome, Outcome::Correct, "seed {seed}");
        let (_, outcome) = run_case(Prim::Select, seed, spec);
        assert_eq!(outcome, Outcome::Correct, "seed {seed}");

        // Measure the retry work explicitly on one primitive.
        let mut auth = stack(seed);
        let h = populate(&mut auth, &sort_input(seed));
        auth.inner_mut().set_spec(spec);
        let (_, retry) = OblivSorter::default()
            .try_sort(
                &mut auth,
                &h,
                M,
                SortOrder::Ascending,
                RetryPolicy::default(),
            )
            .unwrap();
        assert!(retry.retries > 0, "3% transients must cause retries");
        total_retries += retry.retries;
    }
    assert!(total_retries > 20, "got only {total_retries} retries");
}

/// The obliviousness side-condition of the fault model: the fault schedule
/// is a function of the operation index only, so two same-shape datasets see
/// identical injected faults, identical retries, and a byte-identical
/// server-visible trace — through the full Auth∘Faulty∘Encrypted stack.
#[test]
fn injected_fault_retries_leave_the_encrypted_trace_data_independent() {
    let spec = FaultSpec {
        transient_read_ppm: 40_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    };
    let run = |dataset_salt: u64| {
        let mut auth = stack(9); // same stack seed: same fault schedule
        let cells: Vec<Cell> = (0..N)
            .map(|i| Some(Element::new(hash64(i as u64, dataset_salt) >> 16, i as u64)))
            .collect();
        let h = populate(&mut auth, &cells);
        auth.inner_mut().inner_mut().enable_trace();
        auth.inner_mut().set_spec(spec);
        let (_, retry) = OblivSorter::default()
            .try_sort(
                &mut auth,
                &h,
                M,
                SortOrder::Ascending,
                RetryPolicy::default(),
            )
            .unwrap();
        let trace = auth.inner_mut().inner_mut().take_trace().unwrap();
        let log = auth.inner().fault_log().to_vec();
        (trace, retry, log)
    };
    let (trace_a, retry_a, log_a) = run(0xDA7A_0001);
    let (trace_b, retry_b, log_b) = run(0xDA7A_0002);
    assert!(!trace_a.is_empty());
    assert_eq!(retry_a, retry_b, "retry schedule must be data-independent");
    assert_eq!(log_a, log_b, "fault schedule must be data-independent");
    assert_eq!(
        trace_a, trace_b,
        "the encrypted server-visible trace must be byte-identical across \
         same-shape datasets even under injected faults and retries"
    );
    assert!(retry_a.retries > 0, "the comparison must exercise retries");
}

/// Same property on the plaintext substrate: FaultyStore directly over a
/// traced ExtMem arena, no encryption/authentication in the stack.
#[test]
fn injected_fault_retries_leave_the_plaintext_trace_data_independent() {
    let spec = FaultSpec {
        transient_read_ppm: 40_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    };
    let run = |dataset_salt: u64| {
        let mem = ExtMem::with_trace(B);
        let mut faulty = FaultyStore::new(mem, 17, FaultSpec::none());
        let h = BlockStore::alloc_array(&mut faulty, N);
        let cells: Vec<Cell> = (0..N)
            .map(|i| Some(Element::new(hash64(i as u64, dataset_salt), i as u64)))
            .collect();
        faulty.try_store_span(&h, 0, &cells).unwrap();
        faulty.set_spec(spec);
        let (_, retry) = OblivSorter::default()
            .try_sort(
                &mut faulty,
                &h,
                M,
                SortOrder::Ascending,
                RetryPolicy::default(),
            )
            .unwrap();
        let trace = faulty.inner_mut().take_trace().unwrap();
        (trace, retry)
    };
    let (trace_a, retry_a) = run(0x1111);
    let (trace_b, retry_b) = run(0x2222);
    assert_eq!(retry_a, retry_b);
    assert_eq!(trace_a, trace_b);
    assert!(retry_a.retries > 0);
}

/// Seeded determinism end to end: the same stack seed and workload yield
/// byte-identical fault schedules, retry counters, I/O totals and outcomes
/// across two completely fresh runs.
#[test]
fn same_seed_same_workload_is_byte_identical_across_runs() {
    let spec = FaultSpec {
        transient_read_ppm: 25_000,
        corrupt_read_ppm: 400,
        stale_read_ppm: 400,
        drop_write_ppm: 400,
        transient_write_ppm: 0,
    };
    let run = || {
        let mut auth = stack(23);
        let h = populate(&mut auth, &sort_input(23));
        auth.inner_mut().set_spec(spec);
        let result = OblivSorter::default().try_sort(
            &mut auth,
            &h,
            M,
            SortOrder::Ascending,
            RetryPolicy::default(),
        );
        let classified = match &result {
            Ok((report, retry)) => format!("ok io={} retries={}", report.io.total(), retry.retries),
            Err(e) => format!("err {e}"),
        };
        (
            classified,
            auth.inner().fault_log().to_vec(),
            auth.inner().fault_stats(),
            auth.io_stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert!(a.2.total() > 0, "the mixed spec must actually inject");
}

/// The façade propagates the typed error shape the quickstart demonstrates:
/// `Err(OdoError::Store(StoreError::Corrupted { .. }))` on a corrupting
/// server, instead of silent wrong output.
#[test]
fn facade_error_shape_matches_the_documented_contract() {
    let mut auth = stack(31);
    let h = populate(&mut auth, &sort_input(31));
    auth.inner_mut().set_spec(FaultSpec {
        transient_read_ppm: 0,
        corrupt_read_ppm: 1_000_000,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    });
    let err = OblivSorter::default()
        .try_sort(
            &mut auth,
            &h,
            M,
            SortOrder::Ascending,
            RetryPolicy::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, OdoError::Store(StoreError::Corrupted { .. })),
        "got {err:?}"
    );
}

/// A selection whose scratch array's MAC table does not fit the auth
/// layer's client budget returns the budget's typed refusal instead of
/// panicking. The input's table fills the 1,024-word budget exactly, so the
/// first scratch array (32 blocks, 64 words) is refused, and every op on it
/// returns that refusal.
#[test]
fn an_auth_table_past_the_budget_is_a_typed_error_not_a_panic() {
    let (n, b, m) = (4096, 8, 256);
    let enc = EncryptedStore::new(b, 0xA11CE);
    let mut auth = AuthenticatedStore::with_budget(enc, 0x4D41_4353, 1024);
    let input: Vec<Cell> = (0..n as u64)
        .map(|i| Some(Element::new(hash64(i, 0x5E) % 97, i)))
        .collect();
    let h = BlockStore::alloc_array(&mut auth, n);
    auth.try_store_span(&h, 0, &input).unwrap();
    let err = try_select_kth(&mut auth, &h, m, n / 2, RetryPolicy::default()).unwrap_err();
    assert_eq!(
        err,
        OdoError::Store(StoreError::BudgetExceeded {
            requested: 64,
            in_use: 1024,
            capacity: 1024,
        })
    );
}

/// Satellite pin for the butterfly-routing bugfix: when a *corrupting* but
/// unauthenticated server feeds garbage into an external routing pass, the
/// fallible façade must surface a typed, tampering-classified
/// [`OdoError::CorruptedRouting`] — the pre-fix code panicked on an
/// `unwrap()` of the routed cells instead. (Without authentication a
/// silently wrong answer also remains possible — the documented trade-off
/// pinned by the `plain_corrupt_silent` bench lane — but a panic never is.)
#[test]
fn unauthenticated_corruption_in_routing_is_a_typed_error_not_a_panic() {
    let mut corrupted_routing = 0u64;
    for seed in 1..=12u64 {
        let enc = EncryptedStore::new(B, 0xBAD_C0DE ^ seed);
        let mut faulty = FaultyStore::new(enc, seed, FaultSpec::none());
        let input = compact_input(seed);
        let h = BlockStore::alloc_array(&mut faulty, input.len());
        faulty.store_span(&h, 0, &input);
        faulty.set_spec(FaultSpec {
            transient_read_ppm: 0,
            corrupt_read_ppm: 120_000,
            stale_read_ppm: 0,
            drop_write_ppm: 0,
            transient_write_ppm: 0,
        });
        match try_compact(&mut faulty, &h, M, RetryPolicy::default()) {
            // Corruption can miss the label-critical reads entirely; only
            // the *shape* of the failure is pinned, not that it must fire
            // on every seed.
            Ok(_) => {}
            Err(e @ OdoError::CorruptedRouting { .. }) => {
                assert!(e.is_tampering());
                corrupted_routing += 1;
            }
            Err(e) => panic!("seed {seed}: expected CorruptedRouting, got {e:?}"),
        }
    }
    assert!(
        corrupted_routing > 0,
        "the corrupt lane never reached the routing validator"
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

type Pass<'a> = &'a dyn Fn(&mut FailAt, &ArrayHandle) -> Result<(), OdoError>;

/// Runs `pass` over `cells` on a `FailAt` store with block size `b` that
/// fails at op `fail_at`. Returns the outcome and the block I/Os issued.
fn run_failing(
    b: usize,
    cells: &[Cell],
    fail_at: usize,
    pass: Pass,
) -> (Result<(), OdoError>, usize) {
    let mut store = FailAt {
        mem: ExtMem::new(b),
        ops: 0,
        fail_at,
    };
    let h = store.mem.alloc_array_from_cells(cells);
    let res = pass(&mut store, &h);
    (res, store.ops)
}

/// Every `try_*` entry point stops at the first fatal store error: it
/// returns that error and issues no block I/O after it — no write-back of
/// cached blocks, no retry of a permanent fault.
#[test]
fn a_pass_stops_at_the_first_fatal_error() {
    let policy = RetryPolicy::default();
    let sparse = &compact_input(7)[..N];
    let targets: Vec<usize> = (0..N).filter(|&i| sparse[i].is_some()).collect();
    let mut packed: Vec<Cell> = sparse.iter().flatten().map(|&e| Some(e)).collect();
    packed.resize(N, None);
    let cases: [(&str, usize, &[Cell], Pass); 6] = [
        ("Lemma 2 sort", B, sparse, &|s, h| {
            OblivSorter::default()
                .try_sort(s, h, M, SortOrder::Ascending, policy)
                .map(drop)
        }),
        // B = 3, M = 6: the in-cache region is 2 cells, so every external
        // level is a `BlockCache` sweep; N = 40 also pads to 64.
        ("Lemma 2 sort, cache sweep", 3, &sparse[..40], &|s, h| {
            OblivSorter::default()
                .try_sort(s, h, 6, SortOrder::Ascending, policy)
                .map(drop)
        }),
        ("bucket sort", B, sparse, &|s, h| {
            OblivSorter::bucket(5)
                .try_sort(s, h, M, SortOrder::Ascending, policy)
                .map(drop)
        }),
        ("compaction", B, sparse, &|s, h| {
            try_compact(s, h, M, policy).map(drop)
        }),
        ("expansion", B, &packed, &|s, h| {
            try_expand(s, h, &targets, M, policy).map(drop)
        }),
        ("selection", B, sparse, &|s, h| {
            try_select_kth(s, h, M, 100, policy).map(drop)
        }),
    ];
    for (name, b, cells, pass) in cases {
        let (res, total) = run_failing(b, cells, usize::MAX, pass);
        res.unwrap_or_else(|e| panic!("{name}: fault-free run failed: {e}"));
        let step = (total / 64).max(1);
        for k in (1..total).step_by(step).chain([total]) {
            let (res, ops) = run_failing(b, cells, k, pass);
            assert!(
                matches!(res, Err(OdoError::Store(StoreError::Corrupted { .. }))),
                "{name}, failing op {k} of {total}: got {res:?}"
            );
            assert_eq!(ops, k, "{name}: block I/O issued after failing op {k}");
        }
    }
}

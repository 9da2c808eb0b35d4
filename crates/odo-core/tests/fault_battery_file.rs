//! The untrusted-server fault battery with a *real file* at the bottom of
//! the stack: `Auth ∘ Faulty ∘ Encrypted ∘ FileStore` over a tempdir-backed
//! block file.
//!
//! Same safety claim as `fault_battery.rs` — tampering yields a typed
//! `Err(Corrupted | Stale)`, never a silently wrong answer; transients are
//! retried to the exact result — now verified with durable storage actually
//! doing the I/O, plus the file-specific lane: genuine disk-level damage
//! (truncation, garbled bytes) surfaces as a typed [`StoreError`], not a
//! panic or silent garbage.

use extmem::util::hash64;
use odo_core::prelude::*;
use odo_core::{ArrayHandle, FileStore};

type Stack = AuthenticatedStore<FaultyStore<EncryptedStore<FileStore>>>;

const N: usize = 1024;
const B: usize = 8;
const M: usize = 128;

fn stack(seed: u64) -> Stack {
    let file = FileStore::temp(B).expect("tempdir-backed block file");
    let enc = EncryptedStore::with_backing(file, 0xA11CE ^ seed);
    let faulty = FaultyStore::new(enc, seed, FaultSpec::none());
    AuthenticatedStore::new(faulty, 0x4D41_4353 ^ seed)
}

fn populate(auth: &mut Stack, cells: &[Cell]) -> ArrayHandle {
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

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Detected,
    Correct,
    SilentWrong,
}

fn run_sort_case(seed: u64, spec: FaultSpec) -> (u64, Outcome) {
    let mut auth = stack(seed);
    let input = sort_input(seed);
    let h = populate(&mut auth, &input);
    auth.inner_mut().set_spec(spec);
    let run = OblivSorter::default().try_sort(
        &mut auth,
        &h,
        M,
        SortOrder::Ascending,
        RetryPolicy::default(),
    );
    auth.inner_mut().set_spec(FaultSpec::none());
    let tampering = auth.inner().fault_stats().tampering();
    let readback = auth.try_load_span(&h, 0, N);

    let outcome = match (run, readback) {
        (Err(e), _) => {
            assert!(e.is_tampering(), "seed {seed}: got {e:?}");
            Outcome::Detected
        }
        (Ok(_), Err(e)) => {
            assert!(
                matches!(e, StoreError::Corrupted { .. } | StoreError::Stale { .. }),
                "seed {seed}: read-back error must be tampering, got {e:?}"
            );
            Outcome::Detected
        }
        (Ok(_), Ok(cells)) => {
            let keys_sorted = cells
                .windows(2)
                .all(|w| w[0].unwrap().key <= w[1].unwrap().key);
            let mut got: Vec<Element> = cells.iter().map(|c| c.unwrap()).collect();
            let mut want: Vec<Element> = input.iter().map(|c| c.unwrap()).collect();
            got.sort_unstable();
            want.sort_unstable();
            if keys_sorted && got == want {
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

#[test]
fn tampered_file_backed_runs_are_detected_never_silently_wrong() {
    let mut tampered_runs = 0u64;
    let mut detected_runs = 0u64;
    for (lane, spec) in TAMPER_LANES {
        let mut lane_tampered = 0u64;
        for seed in 1..=6u64 {
            let (tampering, outcome) = run_sort_case(seed, spec);
            assert_ne!(
                outcome,
                Outcome::SilentWrong,
                "{lane} seed {seed}: SILENT WRONG ANSWER over the file store \
                 with {tampering} tampering faults injected"
            );
            if tampering > 0 {
                lane_tampered += 1;
                tampered_runs += 1;
                if outcome == Outcome::Detected {
                    detected_runs += 1;
                }
            }
        }
        assert!(
            lane_tampered >= 4,
            "{lane}: the rates are meant to fire in most runs, got {lane_tampered}/6"
        );
    }
    assert!(
        detected_runs > 0,
        "detection never fired ({detected_runs}/{tampered_runs})"
    );
}

#[test]
fn transient_faults_over_the_file_store_retry_to_the_correct_result() {
    let spec = FaultSpec {
        transient_read_ppm: 30_000,
        corrupt_read_ppm: 0,
        stale_read_ppm: 0,
        drop_write_ppm: 0,
        transient_write_ppm: 0,
    };
    for seed in 1..=3u64 {
        let (tampering, outcome) = run_sort_case(seed, spec);
        assert_eq!(tampering, 0, "transients are not tampering");
        assert_eq!(outcome, Outcome::Correct, "seed {seed}");
    }
}

/// Disk-level damage below every software fault layer: garble bytes in the
/// backing file out of band, then read through the full stack.
#[test]
fn out_of_band_file_damage_surfaces_as_a_typed_error() {
    let mut auth = stack(99);
    let h = populate(&mut auth, &sort_input(99));
    let path = auth.inner().inner().backing().path().to_path_buf();

    // Garble the occupancy word of the first cell: FileStore decodes
    // occupancy strictly (0 | 1), so this is disk corruption it must
    // classify itself, before authentication even sees a block.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&u64::MAX.to_le_bytes()).unwrap();
    }

    let err = auth
        .try_load_block(&h, 0)
        .expect_err("damaged block must not load");
    assert!(
        matches!(err, StoreError::Corrupted { addr: 0 }),
        "got {err:?}"
    );

    // Blocks on undamaged sectors still verify.
    assert!(auth.try_load_block(&h, 1).is_ok());
}

/// Truncating the file under a live stack turns reads past the cut into
/// typed corruption errors — never a panic, never fabricated data.
#[test]
fn truncation_under_a_live_stack_is_a_typed_error() {
    let mut auth = stack(101);
    let h = populate(&mut auth, &sort_input(101));
    let path = auth.inner().inner().backing().path().to_path_buf();
    let keep = 4 * B as u64 * 24; // first 4 data blocks survive the cut
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(keep)
        .unwrap();

    // Every read past the cut must fail with a typed error, never panic or
    // fabricate cells. The client holds every block's tag, so a surviving
    // data block still verifies without the (cut) server MAC array.
    for beta in [8usize, h.n_blocks() - 1] {
        let err = auth
            .try_load_block(&h, beta)
            .expect_err("reads from a truncated file must fail");
        assert!(
            matches!(err, StoreError::Corrupted { .. } | StoreError::Io { .. }),
            "block {beta}: got {err:?}"
        );
    }
    let survivor = auth
        .try_load_block(&h, 0)
        .expect("an intact block verifies");
    assert_eq!(survivor.slots(), &sort_input(101)[..B]);
}

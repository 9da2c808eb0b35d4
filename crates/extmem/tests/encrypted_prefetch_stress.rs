//! Seeded-interleaving stress battery for the *encrypted* span pipeline:
//! span steals that decrypt ([`EncryptedReader`] under [`PrefetchingStore`])
//! and verify ([`AuthenticatedReader`] in the full
//! `Prefetching(Auth(Encrypted(FileStore)))` stack), and run-straddling
//! span rewrites through every layer.
//!
//! Mirrors the prefetch battery (`prefetch_stress.rs`): many seeded
//! sequences of hints, loads and stores against adapter geometries chosen to
//! stress its bookkeeping, with every load checked against an in-memory
//! mirror immediately and the full state checked at the end.

use extmem::element::Cell;
use extmem::prefetch::Prefetchable;
use extmem::util::hash64;
use extmem::{
    AuthenticatedStore, Block, BlockStore, Element, EncryptedStore, FileStore, PrefetchConfig,
    PrefetchingStore,
};

const B: usize = 8;
const BLOCKS: usize = 64;

fn fresh_mirror(seed: u64) -> Vec<Cell> {
    (0..BLOCKS * B)
        .map(|i| Some(Element::keyed(hash64(i as u64, seed), i)))
        .collect()
}

/// One seeded session over `Prefetching(Encrypted(FileStore))`: a
/// pseudo-random interleaving of hints, loads and stores. Steals decrypt
/// through the reader's own scratch buffer; every load is checked against
/// the plaintext mirror immediately, so a stale nonce, a torn scratch
/// buffer, or a slot served across an invalidation shows up as a failed
/// assertion, not silent garbage.
fn encrypted_session(seed: u64, cfg: PrefetchConfig, ops: usize) {
    let mut enc = EncryptedStore::with_backing(FileStore::temp(B).expect("temp store"), seed | 1);
    let mut mirror = fresh_mirror(seed);
    let h = enc.alloc_array_from_cells(&mirror);
    let mut ps = PrefetchingStore::with_config(enc, cfg);

    for op in 0..ops {
        let r = hash64(op as u64, seed ^ 0x5EED);
        let beta = (r as usize >> 8) % BLOCKS;
        match r % 10 {
            0..=2 => {
                let w = 1 + (r as usize >> 20) % 8;
                let schedule: Vec<usize> = (0..w).map(|j| (beta + j) % BLOCKS).collect();
                ps.hint_blocks(&h, &schedule);
            }
            3..=6 => {
                let blk = ps.load_block(&h, beta);
                for t in 0..B {
                    assert_eq!(
                        blk.get(t),
                        mirror[beta * B + t],
                        "seed {seed} op {op}: block {beta} slot {t} diverged"
                    );
                }
                ps.recycle(blk);
            }
            _ => {
                let mut blk = Block::empty(B);
                for t in 0..B {
                    let e = Element::keyed(hash64((op * B + t) as u64, seed), beta * B + t);
                    blk.set(t, Some(e));
                    mirror[beta * B + t] = Some(e);
                }
                ps.store_block(&h, beta, blk);
            }
        }
    }

    // Drain through the foreground decrypt path (flushes write-behind).
    let final_cells = ps.inner_mut().snapshot_cells(&h);
    assert_eq!(final_cells, mirror, "seed {seed}: final state diverged");

    let stats = ps.prefetch_stats();
    let loads = ps.io_stats().reads;
    assert_eq!(
        stats.hits + stats.misses + stats.steals + stats.wb_hits,
        loads,
        "seed {seed}: every load is a hit, miss, steal or write-buffer hit"
    );
}

/// Same battery over the full stack: spans are encrypted behind, MACed as a
/// batch, and decrypted *and verified* when stolen — any block a steal
/// verified against a stale `(version, tag)` entry would panic the load.
fn authenticated_session(seed: u64, cfg: PrefetchConfig, ops: usize) {
    let enc = EncryptedStore::with_backing(FileStore::temp(B).expect("temp store"), seed | 1);
    let mut auth = AuthenticatedStore::new(enc, seed ^ 0x4D41_4343);
    let mut mirror = fresh_mirror(seed);
    let h = BlockStore::alloc_array(&mut auth, BLOCKS * B);
    auth.try_store_span(&h, 0, &mirror).expect("initial fill");
    let mut ps = PrefetchingStore::with_config(auth, cfg);

    for op in 0..ops {
        let r = hash64(op as u64, seed ^ 0xA57E);
        let beta = (r as usize >> 8) % BLOCKS;
        match r % 10 {
            0..=2 => {
                let w = 1 + (r as usize >> 20) % 8;
                let schedule: Vec<usize> = (0..w).map(|j| (beta + j) % BLOCKS).collect();
                ps.hint_blocks(&h, &schedule);
            }
            3..=6 => {
                let blk = ps.load_block(&h, beta);
                for t in 0..B {
                    assert_eq!(
                        blk.get(t),
                        mirror[beta * B + t],
                        "seed {seed} op {op}: block {beta} slot {t} diverged"
                    );
                }
                ps.recycle(blk);
            }
            _ => {
                let mut blk = Block::empty(B);
                for t in 0..B {
                    let e = Element::keyed(hash64((op * B + t) as u64, seed), beta * B + t);
                    blk.set(t, Some(e));
                    mirror[beta * B + t] = Some(e);
                }
                ps.store_block(&h, beta, blk);
            }
        }
    }

    // Drain through the verified foreground path.
    for beta in 0..BLOCKS {
        let blk = ps.load_block(&h, beta);
        for t in 0..B {
            assert_eq!(blk.get(t), mirror[beta * B + t], "seed {seed}: final state");
        }
        ps.recycle(blk);
    }
    // The MAC checkpoint flushes cleanly after all that span traffic.
    ps.inner_mut().flush_macs().expect("flush_macs");
}

/// A one-slot ready set with a two-block write buffer.
const STARVED: PrefetchConfig = PrefetchConfig {
    max_ready: 1,
    write_buffer: 2,
};

/// A wide ready set and a deep write buffer, so steals park long tails that
/// later stores must invalidate. (The `racing_workers` test names date from
/// when background workers filled the ready set; loads now steal on the
/// caller's thread.)
const WIDE: PrefetchConfig = PrefetchConfig {
    max_ready: 16,
    write_buffer: 8,
};

#[test]
fn encrypted_interleavings_with_a_starved_pool() {
    for seed in 0..6u64 {
        encrypted_session(seed, STARVED, 600);
    }
}

#[test]
fn encrypted_interleavings_with_racing_workers() {
    for seed in 100..106u64 {
        encrypted_session(seed, WIDE, 600);
    }
}

#[test]
fn authenticated_interleavings_with_a_starved_pool() {
    for seed in 200..205u64 {
        authenticated_session(seed, STARVED, 500);
    }
}

#[test]
fn authenticated_interleavings_with_racing_workers() {
    for seed in 300..305u64 {
        authenticated_session(seed, WIDE, 500);
    }
}

#[test]
fn run_straddling_rewrites_stay_identical_to_scalar_writes() {
    // Overlapping span writes — runs that straddle earlier runs at every
    // offset — must leave byte-identical ciphertext to issuing the same
    // writes block at a time: the nonce sequence is the same, so the
    // keystream is the same, so the server sees the same bytes.
    let b = 4;
    let n_blocks = 24;
    let spans: &[(usize, usize)] = &[
        (0, 8),  // a fresh run
        (4, 8),  // straddles the tail of the first
        (2, 3),  // interior rewrite, shorter than a keystream chunk
        (7, 17), // long run crossing the 8-wide lane boundary at both ends
        (23, 1), // single trailing block
        (0, 24), // the whole array in one run
    ];

    let mk_block = |round: usize, addr: usize| {
        let mut blk = Block::empty(b);
        for t in 0..b {
            blk.set(
                t,
                Some(Element::new(
                    hash64((round * 100 + addr * b + t) as u64, 0xC0FFEE),
                    (addr * b + t) as u64,
                )),
            );
        }
        blk
    };

    let mut run = EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 0x5EC7E7);
    let mut one = EncryptedStore::with_backing(FileStore::temp(b).unwrap(), 0x5EC7E7);
    let hr = run.alloc_array(n_blocks * b);
    let ho = one.alloc_array(n_blocks * b);

    for (round, &(start, len)) in spans.iter().enumerate() {
        let blks: Vec<Block> = (0..len).map(|k| mk_block(round, start + k)).collect();
        run.store_run(hr.global_block(start), blks.clone()).unwrap();
        for (k, blk) in blks.into_iter().enumerate() {
            one.try_store_block(&ho, start + k, blk).unwrap();
        }
        // Ciphertext equality after every round, not just at the end.
        for i in 0..n_blocks {
            assert_eq!(
                run.raw_ciphertext(&hr, i),
                one.raw_ciphertext(&ho, i),
                "round {round}: ciphertext of block {i} diverged"
            );
        }
    }
    // And both decrypt to the same plaintext.
    assert_eq!(run.snapshot_cells(&hr), one.snapshot_cells(&ho));
}

#[test]
fn run_straddling_rewrites_verify_through_the_auth_layer() {
    // The same overlap pattern through Auth(Encrypted(FileStore)): each
    // straddling run bumps versions and MACs for exactly the rewritten
    // blocks, and the result verifies block for block against a twin fed
    // one block at a time.
    let b = 4;
    let n_blocks = 16;
    let mk = |enc_key: u64| {
        AuthenticatedStore::new(
            EncryptedStore::with_backing(FileStore::temp(b).unwrap(), enc_key),
            0x4D4143,
        )
    };
    let mut run = mk(7);
    let mut one = mk(7);
    let hr = BlockStore::alloc_array(&mut run, n_blocks * b);
    let ho = BlockStore::alloc_array(&mut one, n_blocks * b);

    let mk_block = |round: usize, addr: usize| {
        let mut blk = Block::empty(b);
        for t in 0..b {
            blk.set(
                t,
                Some(Element::new(
                    hash64((round * 64 + addr) as u64, 9),
                    t as u64,
                )),
            );
        }
        blk
    };

    for (round, &(start, len)) in [(0usize, 10usize), (6, 10), (3, 5), (0, 16)]
        .iter()
        .enumerate()
    {
        let blks: Vec<Block> = (0..len).map(|k| mk_block(round, start + k)).collect();
        run.store_run(hr.global_block(start), blks.clone()).unwrap();
        for (k, blk) in blks.into_iter().enumerate() {
            one.try_store_block(&ho, start + k, blk).unwrap();
        }
    }
    for i in 0..n_blocks {
        assert_eq!(
            run.try_load_block(&hr, i).unwrap(),
            one.try_load_block(&ho, i).unwrap(),
            "block {i} diverged"
        );
    }
    // Version tables agree, so future freshness checks agree too.
    run.flush_macs().unwrap();
    one.flush_macs().unwrap();
}

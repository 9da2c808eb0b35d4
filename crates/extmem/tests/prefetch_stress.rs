//! Seeded-interleaving stress battery for the prefetch adapter and the
//! block arena: many seeded sequences of hints, loads and stores
//! against adapter geometries chosen to stress its bookkeeping (a one-slot
//! ready set with a two-block write buffer, and a wider one), with
//! correctness checked against an in-memory mirror after every load and at
//! the end.

use extmem::element::Cell;
use extmem::util::hash64;
use extmem::{Block, BlockArena, BlockStore, Element, FileStore, PrefetchConfig, PrefetchingStore};

const B: usize = 8;
const BLOCKS: usize = 64;

fn mk_store() -> (PrefetchingStore<FileStore>, extmem::ArrayHandle, Vec<Cell>) {
    let mut fs = FileStore::temp(B).expect("temp store");
    let cells: Vec<Cell> = (0..BLOCKS * B)
        .map(|i| Some(Element::keyed(i as u64, i)))
        .collect();
    let h = fs.alloc_array_from_cells(&cells).unwrap();
    (PrefetchingStore::new(fs), h, cells)
}

/// One seeded session: a pseudo-random interleaving of hints, loads and
/// stores, with every load checked against the mirror immediately.
fn stress_session(seed: u64, cfg: PrefetchConfig, ops: usize) {
    let mut fs = FileStore::temp(B).expect("temp store");
    let mut mirror: Vec<Cell> = (0..BLOCKS * B)
        .map(|i| Some(Element::keyed(hash64(i as u64, seed), i)))
        .collect();
    let h = fs.alloc_array_from_cells(&mirror).unwrap();
    let mut ps = PrefetchingStore::with_config(fs, cfg);

    for op in 0..ops {
        let r = hash64(op as u64, seed ^ 0x5EED);
        let beta = (r as usize >> 8) % BLOCKS;
        match r % 10 {
            // Hint a random window of upcoming blocks (dups on purpose).
            0..=2 => {
                let w = 1 + (r as usize >> 20) % 8;
                let schedule: Vec<usize> = (0..w).map(|j| (beta + j) % BLOCKS).collect();
                ps.hint_blocks(&h, &schedule);
            }
            // Load and verify against the mirror.
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
            // Store fresh content — must invalidate any parked prefetch.
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

    // Drain: every block must hold exactly the mirror's final contents.
    // `inner_mut` flushes the write-behind buffer first — unflushed `inner`
    // would still show stale file contents for buffered addresses.
    let final_cells = ps.inner_mut().snapshot_cells(&h);
    assert_eq!(final_cells, mirror, "seed {seed}: final state diverged");

    // Accounting: every foreground load was served exactly once.
    let stats = ps.prefetch_stats();
    let loads = ps.io_stats().reads;
    assert_eq!(
        stats.hits + stats.misses + stats.steals + stats.wb_hits,
        loads,
        "seed {seed}: every load is a hit, miss, steal or write-buffer hit"
    );
}

#[test]
fn seeded_interleavings_with_a_starved_pool() {
    let cfg = PrefetchConfig {
        max_ready: 1,
        write_buffer: 2,
    };
    for seed in 0..8u64 {
        stress_session(seed, cfg, 600);
    }
}

/// The wide geometry: many parked blocks and a deep write buffer, so steals
/// park long tails that later stores must invalidate. (The name dates from
/// when background workers filled the ready set; loads now steal on the
/// caller's thread.)
#[test]
fn seeded_interleavings_with_racing_workers() {
    let cfg = PrefetchConfig {
        max_ready: 16,
        write_buffer: 8,
    };
    for seed in 100..108u64 {
        stress_session(seed, cfg, 600);
    }
}

#[test]
fn hint_storms_then_immediate_overwrites_stay_consistent() {
    // The nastiest schedule for staleness: hint *everything*, then overwrite
    // blocks before any of them is read, then read it all back.
    let (mut ps, h, mut mirror) = mk_store();
    for round in 0..20u64 {
        let all: Vec<usize> = (0..BLOCKS).collect();
        ps.hint_blocks(&h, &all);
        for beta in 0..BLOCKS {
            if hash64(beta as u64, round).is_multiple_of(2) {
                let mut blk = Block::empty(B);
                for t in 0..B {
                    let e = Element::keyed(round * 1000 + beta as u64, beta * B + t);
                    blk.set(t, Some(e));
                    mirror[beta * B + t] = Some(e);
                }
                ps.store_block(&h, beta, blk);
            }
        }
        for beta in 0..BLOCKS {
            let blk = ps.load_block(&h, beta);
            for t in 0..B {
                assert_eq!(
                    blk.get(t),
                    mirror[beta * B + t],
                    "round {round} block {beta}"
                );
            }
            ps.recycle(blk);
        }
    }
}

#[test]
fn arena_survives_contended_take_put_across_threads() {
    // The arena is owned by one store, so it is never contended; it moves
    // with its store from thread to thread. Mixed sizes, recycled and
    // dropped buffers across eight hand-offs must keep every buffer clean.
    let mut arena = BlockArena::new();
    for t in 0..8u64 {
        arena = std::thread::spawn(move || {
            for i in 0..2000u64 {
                let size = [4usize, 8, 16][(hash64(i, t) % 3) as usize];
                let mut buf = arena.take(size);
                assert!(buf.capacity() >= size);
                assert!(buf.is_empty(), "arena must hand out emptied buffers");
                // Dirty it so a recycled buffer that isn't emptied is caught.
                buf.push(Some(Element::keyed(i, t as usize)));
                if !hash64(i, t ^ 0xF00).is_multiple_of(4) {
                    arena.put(buf);
                } // else: drop it, exercising the non-recycled path
            }
            arena
        })
        .join()
        .expect("arena stress thread panicked");
    }
    let stats = arena.stats();
    assert_eq!(stats.allocated + stats.reused, 8 * 2000);
    assert!(stats.reused > 0, "reuse must actually occur");
}

//! ORAM serving: an `oram::Oram` with `n = 2^14` addresses and flush period
//! `P = 128`, serving a closed loop of seeded uniform accesses, half
//! `try_read` and half `try_write`, each checked against a shadow map. A
//! traced `pipeline_secure` run serves one cycle of it to measure the ORAM
//! layer.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use extmem::util::hash64;
use extmem::{ExtMem, RetryPolicy};
use odo_core::{OblivSorter, OdoError};
use oram::{Oram, OramConfig};

use crate::stack::{Stack, B, M};

/// Addresses served.
pub const N: u64 = 1 << 14;
/// Flush period `P`.
pub const PERIOD: usize = 128;
/// One cycle of the binary-counter rebuild schedule after set-up: `2n`
/// accesses, flushes `n/P + 1` to `3n/P`. Every cycle rebuilds the same
/// levels the same number of times (every level at least once, the deepest
/// at flush `2n/P` and its multiples, the next at the odd multiples of
/// `n/P`), so a cycle holds the same mix of probes and rebuilds whatever
/// the seed.
pub const CYCLE: u64 = 2 * N;

/// One request of the seeded sequence: the address and, for a write, the
/// value. Values stay below 2^63 so they fit the encrypted store.
pub fn request(seed: u64, r: u64) -> (u64, Option<u64>) {
    let addr = hash64(r, seed ^ 0xADD2) % N;
    let write = (hash64(r, seed ^ 0x3417E) & 1 == 1).then(|| hash64(r, seed ^ 0x7A1) >> 1);
    (addr, write)
}

/// An ORAM over a stack, with the shadow map its reads are checked against.
pub struct Served {
    pub oram: Oram,
    shadow: Vec<u64>,
    seed: u64,
    next: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_reads: u64,
}

/// One timed access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    pub ns: u64,
    /// The level a rebuild during this access targeted, if one ran.
    pub rebuilt: Option<usize>,
    pub value: u64,
}

impl Served {
    /// Builds the ORAM and writes every address once (the set-up).
    pub fn new<S: Stack>(store: &mut S, seed: u64) -> Served {
        let cfg = OramConfig::new(PERIOD, M, seed);
        let oram = Oram::new(store, N, &cfg);
        let mut s = Served {
            oram,
            shadow: vec![0; N as usize],
            seed,
            next: 0,
            attempted: 0,
            failed: 0,
            wrong_reads: 0,
        };
        for addr in 0..N {
            s.access(store, addr, Some(hash64(addr, seed) >> 1));
        }
        s
    }

    /// Serves the next request of the seeded sequence.
    fn step<S: Stack>(&mut self, store: &mut S) -> Access {
        let (addr, write) = request(self.seed, self.next);
        self.next += 1;
        self.access(store, addr, write)
    }

    fn access<S: Stack>(&mut self, store: &mut S, addr: u64, write: Option<u64>) -> Access {
        let policy = RetryPolicy::default();
        let flushes = self.oram.flushes();
        self.attempted += 1;
        let oram = &mut self.oram;
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| -> Result<u64, OdoError> {
            match write {
                Some(v) => oram.try_write(store, addr, v, policy).map(|_| v),
                None => oram.try_read(store, addr, policy).map(|(v, _)| v),
            }
        }));
        let ns = start.elapsed().as_nanos() as u64;
        let value = match res {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                eprintln!("ORAM access failed: {e}");
                None
            }
            Err(_) => {
                eprintln!("ORAM access panicked");
                None
            }
        };
        let slot = &mut self.shadow[addr as usize];
        match (write, value) {
            (_, None) => self.failed += 1,
            (Some(v), Some(_)) => *slot = v,
            (None, Some(got)) => self.wrong_reads += u64::from(got != *slot),
        }
        let rebuilt = (self.oram.flushes() > flushes)
            .then(|| Oram::target_level(self.oram.flushes(), self.oram.level_count()));
        Access {
            ns,
            rebuilt,
            value: value.unwrap_or(0),
        }
    }

    /// True when every access succeeded and every read matched the shadow.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong_reads == 0
    }
}

impl Served {
    /// Serves the next `count` requests, returning each access.
    pub fn serve<S: Stack>(&mut self, store: &mut S, count: u64) -> Vec<Access> {
        (0..count).map(|_| self.step(store)).collect()
    }

    /// Level count of the workload ORAM, a function of its shape alone.
    pub fn levels<S: Stack>(store: &mut S) -> usize {
        Oram::new(store, N, &OramConfig::new(PERIOD, M, 0)).level_count()
    }
}

fn median_of(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs.get(xs.len() / 2).copied().unwrap_or(0)
}

/// The ORAM's per-layer metrics over a window of accesses: the latency of
/// plain probing accesses, and of rebuilding ones by target level.
pub fn access_metrics(accesses: &[Access], out: &mut BTreeMap<String, f64>) {
    let probes = accesses.iter().filter(|a| a.rebuilt.is_none());
    out.insert(
        "oram.probe_p50_us".into(),
        median_of(probes.map(|a| a.ns).collect()) as f64 / 1e3,
    );
    let mut by_level: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for a in accesses {
        if let Some(j) = a.rebuilt {
            by_level.entry(j).or_default().push(a.ns);
        }
    }
    let rebuild_ns: u64 = by_level.values().flatten().sum();
    let total_ns: u64 = accesses.iter().map(|a| a.ns).sum();
    out.insert(
        "oram.rebuilds".into(),
        by_level.values().map(Vec::len).sum::<usize>() as f64,
    );
    out.insert(
        "oram.rebuild_share".into(),
        rebuild_ns as f64 / total_ns.max(1) as f64,
    );
    for (j, ns) in by_level {
        out.insert(format!("oram.rebuild_ms.L{j}"), median_of(ns) as f64 / 1e6);
    }
}

/// Canonicalized ORAM traces must not depend on the requests: two
/// equal-length request sequences from different seeds must leave the same
/// trace once each probe's bucket is folded away. Checked over `ExtMem`
/// with the deterministic bitonic rebuild engine (whose trace is a function
/// of shape alone), and, for the workload's bucket engine, the trace length.
pub fn spot_check(errors: &mut Vec<String>, seed: u64) {
    const SMALL_N: u64 = 1 << 10;
    const REQUESTS: u64 = 4 * SMALL_N;
    let run = |sorter: Option<OblivSorter>, seed: u64| {
        let mut mem = ExtMem::with_trace(B);
        let mut cfg = OramConfig::new(32, M, 0x0B11);
        if let Some(s) = sorter {
            cfg = cfg.with_sorter(s);
        }
        let mut oram = Oram::new(&mut mem, SMALL_N, &cfg);
        for r in 0..REQUESTS {
            let (addr, write) = request(seed, r);
            let addr = addr % SMALL_N;
            match write {
                Some(v) => oram.write(&mut mem, addr, v),
                None => drop(oram.read(&mut mem, addr)),
            }
        }
        let trace = mem.take_trace().expect("trace enabled");
        oram.canonicalize_trace(&trace)
    };
    let other = seed ^ 0x5EED_0B11;
    if run(Some(OblivSorter::Bitonic), seed) != run(Some(OblivSorter::Bitonic), other) {
        errors.push("canonicalized ORAM trace depends on the requests".into());
    }
    if run(None, seed).len() != run(None, other).len() {
        errors.push("ORAM trace length depends on the requests".into());
    }
}

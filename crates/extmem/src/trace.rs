//! Access-trace analysis: the machinery behind the obliviousness tests.
//!
//! The paper defines an access sequence to be data-oblivious when its
//! distribution depends only on the problem, `N`, `M`, `B` and the sequence
//! length — never on the data values. For the algorithms in this workspace
//! this has a sharp, testable consequence:
//!
//! * deterministic algorithms must produce **identical** traces on any two
//!   inputs of the same shape;
//! * randomized algorithms must produce identical traces on any two inputs of
//!   the same shape **once the random seed is fixed** (the trace is a function
//!   of shape and coins only).
//!
//! [`assert_oblivious`] and [`first_divergence`] implement those checks, and
//! [`TraceSummary`] offers aggregate statistics (length, read/write mix,
//! distinct addresses, hottest-address frequency).

use crate::mem::{AccessEvent, AccessOp, AccessTrace};
use std::collections::BTreeMap;

/// Returns the index of the first position where the traces differ, or `None`
/// if one is a prefix of the other of equal length (i.e. they are equal).
pub fn first_divergence(a: &AccessTrace, b: &AccessTrace) -> Option<usize> {
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        Some(common)
    } else {
        None
    }
}

/// Panics with a descriptive message if the traces differ; used by tests.
pub fn assert_oblivious(a: &AccessTrace, b: &AccessTrace, context: &str) {
    if let Some(i) = first_divergence(a, b) {
        let ea = a.get(i);
        let eb = b.get(i);
        panic!(
            "obliviousness violation in {context}: traces diverge at step {i} \
             ({ea:?} vs {eb:?}); lengths {} vs {}",
            a.len(),
            b.len()
        );
    }
}

/// Aggregate statistics of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of accesses.
    pub len: usize,
    /// Number of reads.
    pub reads: usize,
    /// Number of writes.
    pub writes: usize,
    /// Number of distinct block addresses touched.
    pub distinct_addrs: usize,
    /// Maximum number of accesses to any single address.
    pub max_addr_frequency: usize,
}

impl TraceSummary {
    /// Computes the summary of a trace.
    pub fn of(trace: &AccessTrace) -> Self {
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        let mut reads = 0;
        let mut writes = 0;
        for ev in trace {
            *hist.entry(ev.addr).or_insert(0) += 1;
            match ev.op {
                AccessOp::Read => reads += 1,
                AccessOp::Write => writes += 1,
            }
        }
        TraceSummary {
            len: trace.len(),
            reads,
            writes,
            distinct_addrs: hist.len(),
            max_addr_frequency: hist.values().copied().max().unwrap_or(0),
        }
    }
}

/// Convenience constructor for tests in other crates.
pub fn event(op: AccessOp, addr: usize) -> AccessEvent {
    AccessEvent { op, addr }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(addr: usize) -> AccessEvent {
        event(AccessOp::Read, addr)
    }
    fn w(addr: usize) -> AccessEvent {
        event(AccessOp::Write, addr)
    }

    #[test]
    fn equal_traces_have_no_divergence() {
        let t = vec![r(0), w(1), r(2)];
        assert_eq!(first_divergence(&t, &t.clone()), None);
    }

    #[test]
    fn divergence_index_points_at_first_difference() {
        let a = vec![r(0), w(1), r(2)];
        let b = vec![r(0), w(5), r(2)];
        assert_eq!(first_divergence(&a, &b), Some(1));
    }

    #[test]
    fn length_mismatch_diverges_at_common_length() {
        let a = vec![r(0), w(1)];
        let b = vec![r(0), w(1), r(2)];
        assert_eq!(first_divergence(&a, &b), Some(2));
    }

    #[test]
    #[should_panic(expected = "obliviousness violation")]
    fn assert_oblivious_panics_on_divergence() {
        let a = vec![r(0)];
        let b = vec![w(0)];
        assert_oblivious(&a, &b, "unit test");
    }

    #[test]
    fn summary_counts_ops_and_addresses() {
        let t = vec![r(0), w(0), r(1), r(0)];
        let s = TraceSummary::of(&t);
        assert_eq!(s.len, 4);
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 1);
        assert_eq!(s.distinct_addrs, 2);
        assert_eq!(s.max_addr_frequency, 3);
    }
}

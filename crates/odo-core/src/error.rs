//! The workspace-level error type of the `try_*` primitives.
//!
//! Every primitive has one entry point, and it is fallible:
//! [`OblivSorter::try_sort`], [`try_compact`], [`try_select_kth`] and their
//! siblings run the paper's algorithms against an untrusted or unreliable
//! server. Each pass returns its first failure as an [`OdoError`] with `?`,
//! and stops there: transient faults are retried by the policy's
//! `RetryingStore`, tampering detected by
//! [`AuthenticatedStore`](extmem::auth::AuthenticatedStore) surfaces as
//! `OdoError::Store(Corrupted | Stale)` — never as a wrong answer — and a
//! shape the pass cannot run as [`OdoError::InvalidArgument`] — never as a
//! panic.
//!
//! [`OblivSorter::try_sort`]: crate::sorter::OblivSorter::try_sort
//! [`try_compact`]: crate::compact::try_compact
//! [`try_select_kth`]: crate::select::try_select_kth

use std::fmt;

use extmem::StoreError;
use obliv_net::bucket_sort::BucketSortError;

/// Everything a fallible algorithm run can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OdoError {
    /// The block store failed: a transient fault survived every retry, the
    /// server tampered with data (corruption/rollback), the client-side
    /// budget ran out, or a payload did not fit the encrypted encoding.
    Store(StoreError),
    /// The caller's arguments don't describe a runnable pass (bad targets,
    /// cache too small, non-power-of-two blocks, …). `Display` prints
    /// `reason` verbatim.
    InvalidArgument {
        /// Human-readable validation failure.
        reason: &'static str,
    },
    /// Routed cells and routing labels disagree — the symptom of garbage
    /// served by a corrupted (but unauthenticated) store reaching a routing
    /// pass. Classified as tampering: wrap the store in
    /// [`AuthenticatedStore`](extmem::auth::AuthenticatedStore) to catch it
    /// at the block level instead.
    CorruptedRouting {
        /// What disagreed.
        reason: &'static str,
        /// The cell index where the disagreement was detected.
        cell: usize,
    },
    /// A stateful client object (the ORAM) was used after a fatal error
    /// left it mid-operation. Hierarchical state (cache, level occupancy,
    /// epoch salts) may be inconsistent with the server image, so further
    /// accesses could silently return stale data — the client refuses
    /// instead. Rebuild the client from scratch to recover.
    InvalidState {
        /// What the client was in the middle of when it failed.
        reason: &'static str,
    },
    /// An ORAM rebuild found more client items (cached entries plus stash)
    /// than the slots it reserves for them. Like a bucket overflow, a tail
    /// event of the randomized layout: every rebuild bucket that overflows
    /// adds its surplus reals to the stash. The rebuild refuses before its
    /// first write, and the client is poisoned.
    StashOverflow {
        /// Client items the rebuild had to place.
        items: usize,
        /// The client slots a rebuild reserves.
        slots: usize,
    },
    /// A randomized bucket-sort pass overflowed a bucket; retry with a
    /// fresh seed (probability `≈ exp(−Z/6)` per bucket-level).
    BucketOverflow {
        /// Global index of the bucket that overflowed.
        bucket: usize,
        /// How many items wanted the bucket.
        size: usize,
        /// The configured bucket capacity `Z`.
        capacity: usize,
    },
}

impl OdoError {
    /// Whether the underlying failure indicates server-side tampering.
    pub fn is_tampering(&self) -> bool {
        matches!(self, OdoError::Store(e) if e.is_tampering())
            || matches!(self, OdoError::CorruptedRouting { .. })
    }
}

impl fmt::Display for OdoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdoError::Store(e) => write!(f, "store error: {e}"),
            OdoError::InvalidArgument { reason } => write!(f, "{reason}"),
            OdoError::InvalidState { reason } => {
                write!(
                    f,
                    "client state is poisoned by an earlier failure: {reason}"
                )
            }
            OdoError::CorruptedRouting { reason, cell } => {
                write!(f, "corrupted routing state at cell {cell}: {reason}")
            }
            OdoError::StashOverflow { items, slots } => write!(
                f,
                "ORAM client state overflowed its slots: {items} items for {slots} slots; \
                 increase the period or block size"
            ),
            OdoError::BucketOverflow {
                bucket,
                size,
                capacity,
            } => write!(
                f,
                "bucket overflow: {size} items routed to bucket {bucket} of capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for OdoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OdoError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BucketSortError> for OdoError {
    fn from(e: BucketSortError) -> Self {
        match e {
            BucketSortError::Overflow {
                bucket,
                size,
                capacity,
                ..
            } => OdoError::BucketOverflow {
                bucket,
                size,
                capacity,
            },
            BucketSortError::InvalidArgument { reason } => OdoError::InvalidArgument { reason },
            BucketSortError::Store(e) => OdoError::Store(e),
        }
    }
}

impl From<StoreError> for OdoError {
    fn from(e: StoreError) -> Self {
        match e {
            // A store-level validation failure is the same class of error as
            // a workspace-level one — surface it under the variant whose
            // `Display` prints the reason verbatim.
            StoreError::InvalidArgument { reason } => OdoError::InvalidArgument { reason },
            other => OdoError::Store(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_convert_and_classify() {
        let e: OdoError = StoreError::Stale {
            addr: 4,
            expected: 3,
            got: 1,
        }
        .into();
        assert!(e.is_tampering());
        assert!(e.to_string().contains("rollback"));
        let t: OdoError = StoreError::Transient { addr: 0 }.into();
        assert!(!t.is_tampering());
        // Store-level validation failures convert to the workspace-level
        // InvalidArgument variant, not to Store(..).
        let v: OdoError = StoreError::InvalidArgument { reason: "nope" }.into();
        assert_eq!(v, OdoError::InvalidArgument { reason: "nope" });
        assert_eq!(v.to_string(), "nope");
    }

    #[test]
    fn invalid_argument_displays_its_reason_verbatim() {
        // `Display` is the reason alone, so a caller can print or match it
        // without unwrapping a prefix.
        let e = OdoError::InvalidArgument {
            reason: "expansion targets must be strictly increasing",
        };
        assert_eq!(
            e.to_string(),
            "expansion targets must be strictly increasing"
        );
        assert!(!e.is_tampering());
    }

    #[test]
    fn corrupted_routing_classifies_as_tampering() {
        let e = OdoError::CorruptedRouting {
            reason: "labels and occupancy must agree",
            cell: 7,
        };
        assert!(e.is_tampering());
        assert!(e.to_string().contains("cell 7"));
    }

    #[test]
    fn bucket_sort_errors_convert() {
        let e: OdoError = BucketSortError::Overflow {
            superlevel: 1,
            level: 2,
            bucket: 9,
            size: 130,
            capacity: 128,
        }
        .into();
        assert!(matches!(e, OdoError::BucketOverflow { bucket: 9, .. }));
        let e: OdoError = BucketSortError::InvalidArgument { reason: "nope" }.into();
        assert_eq!(e.to_string(), "nope");
    }
}

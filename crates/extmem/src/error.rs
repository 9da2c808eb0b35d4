//! Typed failures of the untrusted/unreliable server.
//!
//! The paper's setting is an *untrusted* server: Bob stores Alice's encrypted
//! blocks, and nothing stops him (or the network between them) from losing a
//! write, flipping ciphertext bits, or replaying yesterday's version of a
//! block. The original `BlockStore` API modelled a perfectly honest,
//! perfectly reliable server — every operation infallible — which made those
//! failure modes *silent data corruption* by construction.
//!
//! [`StoreError`] is the typed vocabulary of everything that can go wrong at
//! the block interface:
//!
//! * [`StoreError::Transient`] — the server (or the channel) failed this one
//!   operation; retrying may succeed. Injected by
//!   [`FaultyStore`](crate::fault::FaultyStore) and absorbed by
//!   [`RetryingStore`](crate::retry::RetryingStore).
//! * [`StoreError::Corrupted`] — the returned block fails authentication:
//!   its MAC does not verify against any version the client ever wrote.
//!   Raised by [`AuthenticatedStore`](crate::auth::AuthenticatedStore);
//!   **never** surfaced as wrong data.
//! * [`StoreError::Stale`] — the returned block is an *authentic but old*
//!   version: the MAC verifies for a version older than the client's version
//!   table expects (a rollback/replay attack).
//! * [`StoreError::BudgetExceeded`] — a claim on the private-memory budget
//!   was refused ([`CacheBudget::try_acquire`]): a pass's client state, or
//!   the client table of an array an
//!   [`AuthenticatedStore`](crate::auth::AuthenticatedStore) allocated past
//!   its budget.
//! * [`StoreError::PayloadTooWide`] — the payload does not fit the encrypted
//!   encoding's 63-bit payload field (see
//!   [`EncryptedStore`](crate::crypto::EncryptedStore)).
//!
//! [`CacheBudget::try_acquire`]: crate::budget::CacheBudget::try_acquire

use std::fmt;

/// A typed failure of a block-store operation against an untrusted or
/// unreliable server. See the module documentation for the taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A transient I/O failure: the operation did not complete, the server's
    /// state is unchanged, and a retry may succeed.
    Transient {
        /// Global block address of the failed operation.
        addr: usize,
    },
    /// The block failed authentication: its contents do not match any MAC the
    /// client ever produced for this address (bit flips, fabricated data, or
    /// an inconsistent partial rollback).
    Corrupted {
        /// Global block address of the tampered block.
        addr: usize,
    },
    /// The block is an authentic but *old* version — the server rolled back
    /// or replayed a previous state (freshness violation).
    Stale {
        /// Global block address of the replayed block.
        addr: usize,
        /// The version the client's version table expects.
        expected: u64,
        /// The (older) version the server actually served.
        got: u64,
    },
    /// A pass's client-side state would exceed the private cache budget.
    BudgetExceeded {
        /// Slots the failed acquisition requested.
        requested: usize,
        /// Slots already in use.
        in_use: usize,
        /// The budget's capacity.
        capacity: usize,
    },
    /// The payload does not fit the encrypted encoding's 63-bit payload
    /// field.
    PayloadTooWide {
        /// Global block address of the rejected write.
        addr: usize,
        /// The offending payload value.
        payload: u64,
    },
    /// A real operating-system I/O failure from a file-backed store
    /// ([`FileStore`](crate::file::FileStore)). Retryable kinds
    /// (`Interrupted`, `TimedOut`, `WouldBlock`) are mapped to
    /// [`StoreError::Transient`] at the store, and truncated/garbled reads
    /// to [`StoreError::Corrupted`], so an `Io` error is a *permanent*
    /// environmental failure (permissions, disk full, bad descriptor, …).
    Io {
        /// Global block address of the failed operation.
        addr: usize,
        /// The underlying [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
    },
    /// A store was constructed or configured with arguments that don't
    /// describe a usable stack — e.g. wrapping a non-empty backend in
    /// [`EncryptedStore::try_with_backing`] — or a fallible span or pair op
    /// was handed a span outside its array or a repeated block. Purely
    /// client-side: no I/O was performed. The workspace
    /// error type maps this to `OdoError::InvalidArgument`, whose `Display`
    /// prints `reason` verbatim (it doubles as the panic message of the
    /// infallible constructors).
    ///
    /// [`EncryptedStore::try_with_backing`]: crate::crypto::EncryptedStore::try_with_backing
    InvalidArgument {
        /// Human-readable validation failure.
        reason: &'static str,
    },
}

impl StoreError {
    /// Whether the error is transient, i.e. worth retrying. Corruption,
    /// staleness, budget and encoding errors are permanent: retrying cannot
    /// fix tampered data.
    #[inline]
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient { .. })
    }

    /// Whether the error indicates server-side tampering (corruption or a
    /// rollback), as opposed to a transient fault or a client-side error.
    #[inline]
    pub fn is_tampering(&self) -> bool {
        matches!(
            self,
            StoreError::Corrupted { .. } | StoreError::Stale { .. }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Transient { addr } => {
                write!(f, "transient I/O failure at block {addr}")
            }
            StoreError::Corrupted { addr } => {
                write!(f, "block {addr} failed authentication (corrupted)")
            }
            StoreError::Stale {
                addr,
                expected,
                got,
            } => write!(
                f,
                "block {addr} is stale: server served version {got}, client expects {expected} \
                 (rollback/replay detected)"
            ),
            StoreError::BudgetExceeded {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "private cache budget exceeded: requested {requested} with {in_use} in use, \
                 capacity {capacity}"
            ),
            StoreError::PayloadTooWide { addr, payload } => write!(
                f,
                "payload {payload:#x} at block {addr} exceeds the 63-bit limit of the \
                 encrypted encoding"
            ),
            StoreError::Io { addr, kind } => {
                write!(f, "file I/O error ({kind:?}) at block {addr}")
            }
            StoreError::InvalidArgument { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_is_the_only_retryable_kind() {
        assert!(StoreError::Transient { addr: 3 }.is_transient());
        assert!(!StoreError::Corrupted { addr: 3 }.is_transient());
        assert!(!StoreError::Stale {
            addr: 3,
            expected: 2,
            got: 1
        }
        .is_transient());
        assert!(!StoreError::BudgetExceeded {
            requested: 1,
            in_use: 0,
            capacity: 0
        }
        .is_transient());
        assert!(!StoreError::PayloadTooWide {
            addr: 0,
            payload: 0
        }
        .is_transient());
        // Retryable io::ErrorKinds are mapped to Transient *at the store*,
        // so an Io that reaches callers is permanent by construction.
        assert!(!StoreError::Io {
            addr: 0,
            kind: std::io::ErrorKind::PermissionDenied
        }
        .is_transient());
    }

    #[test]
    fn tampering_covers_corruption_and_rollback_only() {
        assert!(StoreError::Corrupted { addr: 0 }.is_tampering());
        assert!(StoreError::Stale {
            addr: 0,
            expected: 5,
            got: 4
        }
        .is_tampering());
        assert!(!StoreError::Transient { addr: 0 }.is_tampering());
    }

    #[test]
    fn display_names_the_address_and_versions() {
        let msg = StoreError::Stale {
            addr: 7,
            expected: 9,
            got: 4,
        }
        .to_string();
        assert!(msg.contains("block 7"));
        assert!(msg.contains("version 4"));
        assert!(msg.contains("expects 9"));
        let msg = StoreError::PayloadTooWide {
            addr: 1,
            payload: u64::MAX,
        }
        .to_string();
        assert!(msg.contains("63-bit"));
    }

    #[test]
    fn invalid_argument_displays_its_reason_verbatim() {
        // The infallible constructors panic with `Display` of this variant,
        // so it must be exactly the validation message.
        let e = StoreError::InvalidArgument {
            reason: "EncryptedStore must own its backend from the start",
        };
        assert_eq!(
            e.to_string(),
            "EncryptedStore must own its backend from the start"
        );
        assert!(!e.is_transient());
        assert!(!e.is_tampering());
    }
}

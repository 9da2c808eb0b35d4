//! Private-cache budget accounting.
//!
//! The model gives Alice a private cache of `M` words that the adversary
//! cannot observe. The algorithms in this workspace are written so that their
//! client-side working set never exceeds `M`; [`CacheBudget`] makes that an
//! explicit, testable claim. Algorithms claim capacity (in element slots)
//! with [`CacheBudget::try_acquire`] or [`CacheBudget::with`] when they pull
//! blocks into the cache and `release` it when they evict. A claim past the
//! capacity is refused with [`StoreError::BudgetExceeded`], leaving the
//! budget untouched, and the `try_*` passes return that refusal, so an
//! algorithm that quietly assumes a larger cache than the configuration
//! allows fails with a typed error instead of a panic. Releasing more than
//! was claimed is the caller's logic error and panics.

use crate::error::StoreError;

/// Tracks how much of the private cache an algorithm is currently using.
#[derive(Clone, Debug)]
pub struct CacheBudget {
    capacity: usize,
    in_use: usize,
    high_water: usize,
}

impl CacheBudget {
    /// Creates a budget with capacity `capacity` element slots (typically `M`).
    pub fn new(capacity: usize) -> Self {
        CacheBudget {
            capacity,
            in_use: 0,
            high_water: 0,
        }
    }

    /// Capacity in element slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently accounted as in use.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// The maximum number of slots that were ever simultaneously in use.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Claims `slots` slots of private cache, or returns
    /// [`StoreError::BudgetExceeded`] leaving the budget untouched when the
    /// claim would exceed the capacity.
    pub fn try_acquire(&mut self, slots: usize) -> Result<(), StoreError> {
        if self.in_use + slots > self.capacity {
            return Err(StoreError::BudgetExceeded {
                requested: slots,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += slots;
        self.high_water = self.high_water.max(self.in_use);
        Ok(())
    }

    /// Releases `slots` previously acquired slots.
    pub fn release(&mut self, slots: usize) {
        assert!(
            slots <= self.in_use,
            "releasing more cache than was acquired"
        );
        self.in_use -= slots;
    }

    /// Runs `f` with `slots` slots temporarily claimed, releasing them
    /// whatever `f` returns. A refused claim returns its
    /// [`StoreError::BudgetExceeded`] without running `f`.
    pub fn with<R, E: From<StoreError>>(
        &mut self,
        slots: usize,
        f: impl FnOnce(&mut Self) -> Result<R, E>,
    ) -> Result<R, E> {
        self.try_acquire(slots)?;
        let r = f(self);
        self.release(slots);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_tracks_usage_and_high_water() {
        let mut b = CacheBudget::new(10);
        b.try_acquire(4).unwrap();
        b.try_acquire(3).unwrap();
        assert_eq!(b.in_use(), 7);
        b.release(5);
        assert_eq!(b.in_use(), 2);
        assert_eq!(b.high_water(), 7);
    }

    /// The refusal of a claim of `requested` slots on top of `in_use`.
    fn refused(requested: usize, in_use: usize, capacity: usize) -> StoreError {
        StoreError::BudgetExceeded {
            requested,
            in_use,
            capacity,
        }
    }

    #[test]
    fn exceeding_capacity_is_refused() {
        let mut b = CacheBudget::new(4);
        assert_eq!(b.try_acquire(5), Err(refused(5, 0, 4)));
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "releasing more cache")]
    fn over_release_panics() {
        let mut b = CacheBudget::new(4);
        b.try_acquire(2).unwrap();
        b.release(3);
    }

    #[test]
    fn scoped_with_releases_on_exit() {
        let mut b = CacheBudget::new(8);
        let r = b.with(6, |inner| Ok::<_, StoreError>(inner.in_use()));
        assert_eq!(r, Ok(6));
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.high_water(), 6);
    }

    #[test]
    fn acquire_to_exactly_capacity_is_allowed() {
        // The boundary case: using every last slot of M is legal; it is
        // capacity + 1 that is the violation.
        let mut b = CacheBudget::new(10);
        b.try_acquire(10).unwrap();
        assert_eq!(b.in_use(), 10);
        assert_eq!(b.high_water(), 10);
        b.release(10);
        assert_eq!(b.in_use(), 0);
        b.try_acquire(9).unwrap();
        b.try_acquire(1).unwrap(); // incremental path to exactly-full is legal too
        assert_eq!(b.in_use(), 10);
    }

    #[test]
    fn one_past_capacity_is_refused_even_incrementally() {
        let mut b = CacheBudget::new(10);
        b.try_acquire(10).unwrap();
        assert_eq!(b.try_acquire(1), Err(refused(1, 10, 10)));
        assert_eq!(
            b.with(1, |_| Ok::<_, StoreError>(())),
            Err(refused(1, 10, 10))
        );
        assert_eq!(b.in_use(), 10);
    }

    #[test]
    fn release_to_exactly_zero_is_allowed() {
        let mut b = CacheBudget::new(4);
        b.try_acquire(4).unwrap();
        b.release(4);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "releasing more cache")]
    fn release_below_zero_panics_from_empty() {
        let mut b = CacheBudget::new(4);
        b.release(1);
    }

    #[test]
    fn high_water_tracks_the_peak_across_nested_acquires() {
        let mut b = CacheBudget::new(32);
        b.with(8, |b| {
            b.with(16, |b| {
                b.try_acquire(4)?; // peak: 8 + 16 + 4 = 28
                b.release(4);
                Ok::<_, StoreError>(())
            })?;
            assert_eq!(b.in_use(), 8);
            Ok::<_, StoreError>(())
        })
        .unwrap();
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.high_water(), 28, "the peak survives every release");
        // A later, smaller burst never lowers the recorded peak.
        b.with(5, |_| Ok::<_, StoreError>(())).unwrap();
        assert_eq!(b.high_water(), 28);
    }

    #[test]
    fn try_acquire_succeeds_up_to_capacity() {
        let mut b = CacheBudget::new(10);
        b.try_acquire(10).unwrap();
        assert_eq!(b.in_use(), 10);
        assert_eq!(b.high_water(), 10);
    }

    #[test]
    fn try_acquire_over_capacity_is_a_typed_error_and_leaves_state_untouched() {
        let mut b = CacheBudget::new(10);
        b.try_acquire(7).unwrap();
        assert_eq!(b.try_acquire(4), Err(refused(4, 7, 10)));
        assert_eq!(b.in_use(), 7, "a failed claim must not leak slots");
        assert_eq!(b.high_water(), 7);
        b.try_acquire(3).unwrap(); // the budget remains usable
        assert_eq!(b.in_use(), 10);
    }
}

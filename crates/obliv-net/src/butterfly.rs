//! The butterfly-like compaction network (paper Section 3, Figure 1).
//!
//! The network has `⌈log n⌉ + 1` levels of `n` cells each. Cell `j` of level
//! `L_i` is connected to cells `j` and `j − 2^i` of level `L_{i+1}`. An
//! occupied cell starts on level `L_0` labelled with the *distance* it must
//! move to the left to reach its destination in a tight compaction; on level
//! `L_i` the cell routes along the `j − 2^i` wire exactly when bit `i` of its
//! remaining distance is set, and the label is reduced accordingly
//! (`d ← d − (d mod 2^{i+1})`). Lemma 5 of the paper shows that valid
//! distance labels — those arising from an order-preserving compaction, or
//! more generally any labels that are *non-decreasing* over occupied cells
//! with strictly increasing destinations `j − d_j` — never collide at an
//! internal cell. (Monotone destinations alone are **not** enough: cells
//! `2, 3` with labels `2, 1` have destinations `0 < 2` yet collide on level
//! `L_1`; the exhaustive Lemma 5 test exercises both sides.)
//!
//! This module provides the in-memory circuit form: routing with explicit
//! labels, stable-compaction label computation and the reverse (expansion)
//! direction. Figure 1's instance is one of its Lemma 5 test cases. The
//! external-memory, I/O-efficient execution of the same circuit lives in
//! `odo-core`'s `compact` module.

/// Error returned when two occupied cells try to enter the same cell of an
/// internal level, i.e. the distance labels were not valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingCollision {
    /// The level at which the collision happened (destination level index).
    pub level: usize,
    /// The cell index both items tried to occupy.
    pub cell: usize,
}

impl std::fmt::Display for RoutingCollision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "butterfly routing collision at level {} cell {}",
            self.level, self.cell
        )
    }
}

impl std::error::Error for RoutingCollision {}

/// Number of routing levels for an `n`-cell network (`⌈log2 n⌉`).
pub fn levels(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Computes the distance labels of a stable tight compaction: occupied cell
/// `j` with rank `ρ(j)` (number of occupied cells strictly before it) gets
/// label `j − ρ(j)`. Unoccupied cells get `None`.
pub fn compaction_labels<T>(cells: &[Option<T>]) -> Vec<Option<usize>> {
    let mut rank = 0usize;
    cells
        .iter()
        .enumerate()
        .map(|(j, c)| {
            if c.is_some() {
                let d = j - rank;
                rank += 1;
                Some(d)
            } else {
                None
            }
        })
        .collect()
}

/// Routes items through the butterfly network according to their distance
/// labels (`labels[j]` must be `Some(d)` exactly when `cells[j]` is occupied,
/// with `d ≤ j`). Returns the contents of the final level, or the first
/// [`RoutingCollision`] when the labels are not valid (Lemma 5).
///
/// # Panics
/// Panics if labels and occupancy disagree, if a label would move an item
/// past cell 0, or if distance is left over after the last level.
pub fn route_with_labels<T: Clone>(
    cells: &[Option<T>],
    labels: &[Option<usize>],
) -> Result<Vec<Option<T>>, RoutingCollision> {
    assert_eq!(cells.len(), labels.len(), "one label per cell");
    let n = cells.len();
    let lv = levels(n);
    // Current level state: (item, remaining distance).
    let mut cur: Vec<Option<(T, usize)>> = Vec::with_capacity(n);
    for (j, (c, l)) in cells.iter().zip(labels.iter()).enumerate() {
        cur.push(match (c, l) {
            (Some(item), Some(d)) => {
                assert!(*d <= j, "distance label may not move an item past cell 0");
                Some((item.clone(), *d))
            }
            (None, None) => None,
            _ => panic!("labels and occupancy must agree at cell {j}"),
        });
    }

    for i in 0..lv {
        let mut next: Vec<Option<(T, usize)>> = vec![None; n];
        let step = 1usize << i;
        let modulus = step << 1;
        for (j, slot) in cur.into_iter().enumerate() {
            if let Some((item, d)) = slot {
                let hop = d % modulus; // either 0 or 2^i for valid labels
                debug_assert!(hop == 0 || hop == step, "invalid distance label");
                let dest = j - hop;
                if next[dest].is_some() {
                    return Err(RoutingCollision {
                        level: i + 1,
                        cell: dest,
                    });
                }
                next[dest] = Some((item, d - hop));
            }
        }
        cur = next;
    }
    Ok(cur
        .into_iter()
        .enumerate()
        .map(|(j, slot)| {
            slot.map(|(item, d)| {
                assert_eq!(d, 0, "distance not consumed by the last level at cell {j}");
                item
            })
        })
        .collect())
}

/// Stable tight compaction of `cells` through the butterfly network: occupied
/// items move to the front, preserving their relative order; the array length
/// is unchanged (the tail is left unoccupied).
pub fn compact<T: Clone>(cells: &[Option<T>]) -> Vec<Option<T>> {
    let labels = compaction_labels(cells);
    route_with_labels(cells, &labels).expect("compaction labels are always collision-free")
}

/// The reverse operation (the paper notes the network can be used "in
/// reverse" to expand a compact array): the occupied cells of `cells` must
/// form a prefix (as produced by [`compact`]), and item `i` of the prefix is
/// moved right to position `targets[i]`, where `targets` is strictly
/// increasing with `targets[i] < cells.len()`.
///
/// Implemented as the compaction circuit run *backwards in time*: the levels
/// execute from the largest stride down, and on level `L_i` an item hops
/// from `j` to `j + 2^i` exactly when bit `i` of its remaining distance is
/// set. The reversed run retraces the trajectories of the forward stable
/// compaction that takes the expanded array back to the prefix, so by
/// Lemma 5 it never collides. (Running the levels in the *forward* order
/// does collide on legitimate target sets — e.g. a 6-item prefix of a
/// 64-cell array expanding to `[3, 10, 11, 40, 41, 63]` collides on `L_1` —
/// which is why the direction of time, not mirroring, is the correct way to
/// reverse the network.)
pub fn expand<T: Clone>(cells: &[Option<T>], targets: &[usize]) -> Vec<Option<T>> {
    let n = cells.len();
    let r = targets.len();
    for w in targets.windows(2) {
        assert!(w[0] < w[1], "expansion targets must be strictly increasing");
    }
    if let Some(&last) = targets.last() {
        assert!(last < n, "expansion target out of range");
    }
    for (j, c) in cells.iter().enumerate() {
        if j < r {
            assert!(c.is_some(), "expand expects an occupied prefix");
        } else {
            assert!(c.is_none(), "expand expects dummies after the prefix");
        }
    }
    // Strictly increasing targets give targets[i] ≥ i, so every distance
    // label targets[i] − i is well-defined, and the labels are non-decreasing
    // in i — the time-reversed run is a valid stable compaction.
    let mut cur: Vec<Option<(T, usize)>> = vec![None; n];
    for i in 0..r {
        let item = cells[i].clone().expect("prefix was validated above");
        cur[i] = Some((item, targets[i] - i));
    }
    for i in (0..levels(n)).rev() {
        let step = 1usize << i;
        let mut next: Vec<Option<(T, usize)>> = vec![None; n];
        for (j, slot) in cur.into_iter().enumerate() {
            if let Some((item, d)) = slot {
                let hop = d & step;
                let dest = j + hop;
                debug_assert!(
                    next[dest].is_none(),
                    "prefix expansion cannot collide (Lemma 5, time-reversed)"
                );
                next[dest] = Some((item, d - hop));
            }
        }
        cur = next;
    }
    cur.into_iter()
        .map(|slot| {
            slot.map(|(item, d)| {
                debug_assert_eq!(d, 0, "all distance must be consumed by level 0");
                item
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_is_ceil_log2() {
        assert_eq!(levels(1), 0);
        assert_eq!(levels(2), 1);
        assert_eq!(levels(3), 2);
        assert_eq!(levels(8), 3);
        assert_eq!(levels(9), 4);
    }

    #[test]
    fn compaction_labels_count_empty_cells_to_the_left() {
        let cells = vec![None, Some(1u32), None, Some(2), Some(3), None];
        assert_eq!(
            compaction_labels(&cells),
            vec![None, Some(1), None, Some(2), Some(2), None]
        );
    }

    #[test]
    fn compact_moves_items_to_front_preserving_order() {
        let cells = vec![
            None,
            Some(10u32),
            None,
            None,
            Some(20),
            Some(30),
            None,
            Some(40),
        ];
        let out = compact(&cells);
        assert_eq!(
            out,
            vec![
                Some(10),
                Some(20),
                Some(30),
                Some(40),
                None,
                None,
                None,
                None
            ]
        );
    }

    #[test]
    fn compact_of_full_and_empty_arrays_is_identity() {
        let full: Vec<Option<u32>> = (0..8).map(Some).collect();
        assert_eq!(compact(&full), full);
        let empty: Vec<Option<u32>> = vec![None; 8];
        assert_eq!(compact(&empty), empty);
    }

    #[test]
    fn no_collision_for_random_occupancy_patterns() {
        // Deterministic pseudo-random patterns over several sizes.
        let mut x: u64 = 99;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [5usize, 16, 33, 100, 257] {
            let cells: Vec<Option<u64>> = (0..n)
                .map(|i| {
                    if next() % 3 == 0 {
                        Some(i as u64)
                    } else {
                        None
                    }
                })
                .collect();
            let out = compact(&cells);
            let expected: Vec<u64> = cells.iter().filter_map(|c| *c).collect();
            let got: Vec<u64> = out
                .iter()
                .take(expected.len())
                .map(|c| c.unwrap())
                .collect();
            assert_eq!(got, expected);
            assert!(out.iter().skip(expected.len()).all(|c| c.is_none()));
        }
    }

    #[test]
    fn invalid_labels_report_a_collision() {
        // Two items both routed to cell 0.
        let cells = vec![Some(1u32), Some(2), None, None];
        let labels = vec![Some(0usize), Some(1), None, None];
        assert_eq!(
            route_with_labels(&cells, &labels),
            Err(RoutingCollision { level: 1, cell: 0 })
        );
    }

    #[test]
    fn expand_is_inverse_of_compact() {
        let cells = vec![None, Some(1u32), Some(2), None, None, Some(3), None, None];
        let targets: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(j, _)| j)
            .collect();
        let compacted = compact(&cells);
        let restored = expand(&compacted, &targets);
        assert_eq!(restored, cells);
    }

    #[test]
    fn expand_rejects_non_monotone_targets() {
        let cells = vec![Some(1u32), Some(2), None, None];
        let result = std::panic::catch_unwind(|| expand(&cells, &[2, 1]));
        assert!(result.is_err());
    }

    #[test]
    fn figure1_example_routes_without_collision_and_compacts() {
        // The instance drawn in the paper's Figure 1: seven occupied cells
        // of sixteen, at rank + label for the figure's L0 labels.
        let mut cells: Vec<Option<u32>> = vec![None; 16];
        for (rank, p) in [2usize, 4, 5, 9, 12, 13, 15].into_iter().enumerate() {
            cells[p] = Some(rank as u32);
        }
        let labels = compaction_labels(&cells);
        let routed = route_with_labels(&cells, &labels).unwrap();
        let occupied: Vec<u32> = routed.iter().take(7).map(|c| c.unwrap()).collect();
        assert_eq!(occupied, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(routed.iter().skip(7).all(|c| c.is_none()));
        // The figure's L0 labels, reading occupied cells left to right.
        let l0: Vec<usize> = labels.iter().filter_map(|l| *l).collect();
        assert_eq!(l0, vec![2, 3, 3, 6, 8, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "labels and occupancy must agree at cell 1")]
    fn infallible_route_keeps_the_legacy_panic_message() {
        let cells: Vec<Option<u32>> = vec![Some(1), Some(2), None, None];
        let labels = vec![Some(0usize), None, None, None];
        let _ = route_with_labels(&cells, &labels);
    }

    #[test]
    #[should_panic(expected = "labels and occupancy must agree at cell 0")]
    fn route_rejects_a_label_without_an_item() {
        let cells: Vec<Option<u32>> = vec![None, Some(1), None, None];
        let labels = vec![Some(0usize), Some(1), None, None];
        let _ = route_with_labels(&cells, &labels);
    }

    #[test]
    #[should_panic(expected = "may not move an item past cell 0")]
    fn route_rejects_a_label_past_cell_zero() {
        let cells: Vec<Option<u32>> = vec![None, Some(1), None, None];
        let labels = vec![None, Some(3usize), None, None];
        let _ = route_with_labels(&cells, &labels);
    }
}

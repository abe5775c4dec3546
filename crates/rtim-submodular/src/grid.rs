//! The guess grid shared by SieveStreaming and ThresholdStream: one
//! instance per exponent `j` of a guess `(1+β)^j` of the optimum, stored
//! flat, and the seed-of index over it.
//!
//! Both oracles refresh the grid the same way when the largest singleton
//! value `m` grows ([`guess_range`]): every instance below
//! `lo = ⌈log_{1+β} m⌉` is dropped and the missing ones in `lo..=hi`,
//! `hi = ⌊log_{1+β} 2km⌋`, are created.  Both bounds are non-decreasing in
//! `m`, which only grows, and `β < 1` keeps `hi ≥ lo`.  So the live
//! exponents are always one contiguous range `[base, base + len)`, and
//! [`Grid`] keeps the instances in a `Vec` indexed by `j − base`: a lookup
//! is an index and a visit in ascending order is a slice walk.  Persisted
//! states list their instances in the same consecutive order, which the
//! state codec checks on decode.

use crate::oracle::OracleConfig;
use fxhash::FxHashMap;
use rtim_stream::UserId;

/// The exponent range `(lo, hi)` of the guesses `m ≤ (1+β)^j ≤ 2km` for
/// the largest singleton value `m > 0`.
pub(crate) fn guess_range(config: &OracleConfig, max_single: f64) -> (i64, i64) {
    let base = (1.0 + config.beta).ln();
    let lo = (max_single.ln() / base).ceil() as i64;
    let hi = ((2.0 * config.k as f64 * max_single).ln() / base).floor() as i64;
    (lo, hi)
}

/// Instances for the contiguous exponents `[base, base + cells.len())`.
#[derive(Debug, Clone)]
pub(crate) struct Grid<T> {
    base: i64,
    cells: Vec<T>,
}

impl<T> Grid<T> {
    pub(crate) fn new() -> Self {
        Grid {
            base: 0,
            cells: Vec::new(),
        }
    }

    /// Rebuilds a grid from `(exponent, instance)` pairs in ascending,
    /// consecutive exponent order (a decoded state; the codec rejects any
    /// other order).
    pub(crate) fn from_consecutive(pairs: impl IntoIterator<Item = (i64, T)>) -> Self {
        let mut grid = Grid::new();
        for (j, cell) in pairs {
            if grid.cells.is_empty() {
                grid.base = j;
            }
            assert_eq!(j, grid.top(), "grid exponents must be consecutive");
            grid.cells.push(cell);
        }
        grid
    }

    /// One past the largest live exponent.
    fn top(&self) -> i64 {
        self.base + self.cells.len() as i64
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The exponent of the instance in slot `i`.
    #[inline]
    pub(crate) fn exponent(&self, i: usize) -> i64 {
        self.base + i as i64
    }

    /// The slot of the live exponent `j`.
    #[inline]
    pub(crate) fn slot(&self, j: i64) -> usize {
        debug_assert!(
            (self.base..self.top()).contains(&j),
            "exponent {j} outside the live grid"
        );
        (j - self.base) as usize
    }

    /// The instances, ascending by exponent.
    pub(crate) fn cells(&self) -> &[T] {
        &self.cells
    }

    pub(crate) fn cells_mut(&mut self) -> &mut [T] {
        &mut self.cells
    }

    /// `(exponent, instance)` pairs, ascending by exponent.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, &T)> {
        let base = self.base;
        self.cells
            .iter()
            .enumerate()
            .map(move |(i, cell)| (base + i as i64, cell))
    }

    /// Refreshes the grid to the guess range `(lo, hi)`: hands every
    /// instance below `lo` to `dropped` in ascending order, then creates
    /// the missing exponents up to `hi` with `make`.  Instances above `hi`
    /// stay, as do the live ones in range.
    pub(crate) fn refresh(
        &mut self,
        (lo, hi): (i64, i64),
        mut dropped: impl FnMut(i64, T),
        mut make: impl FnMut(i64) -> T,
    ) {
        let below = usize::try_from(lo.saturating_sub(self.base))
            .unwrap_or(0)
            .min(self.cells.len());
        for (i, cell) in self.cells.drain(..below).enumerate() {
            dropped(self.base + i as i64, cell);
        }
        if self.cells.is_empty() {
            self.base = lo;
        } else {
            self.base += below as i64;
            // `lo` never falls (see the module docs), so the kept range
            // starts exactly at `lo`.
            debug_assert_eq!(self.base, lo, "guess floor fell");
        }
        for j in self.top().max(lo)..=hi {
            self.cells.push(make(j));
        }
    }
}

/// Seed-of index: key → exponents of the instances holding it as a seed.
///
/// An instance takes the existing-seed branch for an element iff the key
/// is one of its seeds, and seed membership changes on two events only: an
/// admission adds the exponent ([`SeedOf::admit`]) and a grid refresh that
/// drops an instance removes it ([`SeedOf::unlink`]).  Seeds never leave a
/// live instance.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeedOf {
    held: FxHashMap<UserId, Vec<i64>>,
}

impl SeedOf {
    /// Indexes the seed lists of a restored grid.
    pub(crate) fn build<'a>(seed_lists: impl IntoIterator<Item = (i64, &'a [UserId])>) -> Self {
        let mut index = SeedOf::default();
        for (j, seeds) in seed_lists {
            for &seed in seeds {
                index.held.entry(seed).or_default().push(j);
            }
        }
        index
    }

    /// The exponents of the instances holding `key` as a seed.
    #[inline]
    pub(crate) fn held(&self, key: UserId) -> &[i64] {
        self.held.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Records that the instances `admitted` took `key` as a seed.
    pub(crate) fn admit(&mut self, key: UserId, admitted: Vec<i64>) {
        if !admitted.is_empty() {
            self.held.entry(key).or_default().extend(admitted);
        }
    }

    /// Forgets the dropped instance `j` as a holder of each of its seeds.
    pub(crate) fn unlink(&mut self, j: i64, seeds: &[UserId]) {
        for seed in seeds {
            if let Some(held) = self.held.get_mut(seed) {
                held.retain(|&x| x != j);
                if held.is_empty() {
                    self.held.remove(seed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exponents(grid: &Grid<i64>) -> Vec<i64> {
        grid.iter()
            .map(|(j, &cell)| {
                assert_eq!(j, cell, "cell stored at the wrong exponent");
                j
            })
            .collect()
    }

    #[test]
    fn refresh_drops_below_and_fills_up_to_the_range() {
        let mut grid = Grid::new();
        let mut dropped = Vec::new();
        grid.refresh((3, 6), |j, _| dropped.push(j), |j| j);
        assert_eq!(exponents(&grid), vec![3, 4, 5, 6]);
        grid.refresh((5, 9), |j, _| dropped.push(j), |j| j);
        assert_eq!(exponents(&grid), vec![5, 6, 7, 8, 9]);
        assert_eq!(dropped, vec![3, 4]);
        assert_eq!(grid.slot(7), 2);
        // A range past every live instance drops them all and restarts.
        grid.refresh((20, 22), |j, _| dropped.push(j), |j| j);
        assert_eq!(exponents(&grid), vec![20, 21, 22]);
        assert_eq!(dropped, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn from_consecutive_keeps_the_exponents() {
        let grid = Grid::from_consecutive([(-2, -2i64), (-1, -1), (0, 0)]);
        assert_eq!(exponents(&grid), vec![-2, -1, 0]);
        assert_eq!(grid.exponent(2), 0);
        assert_eq!(Grid::<i64>::from_consecutive([]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn from_consecutive_rejects_a_gap() {
        Grid::from_consecutive([(1, 1i64), (3, 3)]);
    }

    #[test]
    fn seed_of_follows_admissions_and_unlinks() {
        let (a, b) = (UserId(1), UserId(2));
        let mut index = SeedOf::build([(4, &[a][..]), (5, &[a, b][..])]);
        assert_eq!(index.held(a), &[4, 5]);
        index.admit(b, vec![6]);
        index.admit(b, Vec::new());
        assert_eq!(index.held(b), &[5, 6]);
        index.unlink(5, &[a, b]);
        assert_eq!(index.held(a), &[4]);
        assert_eq!(index.held(b), &[6]);
        index.unlink(4, &[a]);
        assert!(index.held(a).is_empty());
    }
}

//! Swap-based streaming maximum k-coverage.
//!
//! Follows the swapping approaches of Saha & Getoor (SDM 2009, "Blog-Watch")
//! and Ausiello et al. (2012, online maximum k-coverage), which keep exactly
//! one candidate solution of at most `k` sets and, once full, replace an
//! existing set by the arriving one whenever the swap improves the objective
//! the most.  Both cited policies achieve a `1/4` approximation for the
//! cardinality objective; the swap oracle exists here as the `O(k)`-update
//! alternative in the Table-2 ablation (cheaper threshold bookkeeping than
//! the guess-grid oracles, weaker guarantee).
//!
//! Unlike the threshold oracles this one must remember the individual set of
//! every held seed (to re-evaluate the union after a swap).  To keep updates
//! cheap it maintains a multiset of covered items (`counts`) so that
//!
//! * the gain of an arriving set is computed in `O(|X|)`, and
//! * the loss of evicting each held seed (the weight of the items only it
//!   covers and the new set does not re-cover) is computed in a single pass
//!   over the held sets, instead of rebuilding `k` candidate unions.
//!
//! The delta path ([`SsoOracle::process_grow`]) turns the held-seed update
//! into a single count increment instead of a full set difference.

use crate::coverage::CoverageState;
use crate::oracle::{OracleConfig, SsoOracle};
use crate::weights::{DenseWeights, ElementWeight};
use rtim_stream::{InfluenceSet, UserId};
use std::collections::HashMap;

/// The swap-based streaming oracle.
#[derive(Debug, Clone)]
pub struct SwapStreaming {
    config: OracleConfig,
    /// Stored influence set per held seed.
    held: HashMap<UserId, InfluenceSet>,
    /// How many held sets cover each item.
    counts: HashMap<UserId, u32>,
    /// Cached union value of `held`.
    cached_value: f64,
    elements: u64,
}

impl SwapStreaming {
    /// Creates an empty oracle.
    pub fn new(config: OracleConfig) -> Self {
        SwapStreaming {
            config,
            held: HashMap::new(),
            counts: HashMap::new(),
            cached_value: 0.0,
            elements: 0,
        }
    }

    /// Rebuilds an oracle from persisted state (see [`crate::state`]).  The
    /// covered-item multiset is not persisted — it is derived from the held
    /// sets here, so the two can never disagree.
    pub(crate) fn from_state(config: OracleConfig, state: crate::state::SwapState) -> Self {
        let mut counts: HashMap<UserId, u32> = HashMap::new();
        for (_, set) in &state.held {
            for v in set.iter() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        SwapStreaming {
            config,
            held: state.held.into_iter().collect(),
            counts,
            cached_value: state.cached_value,
            elements: state.elements,
        }
    }

    /// Registers a single item into the coverage multiset, returning the
    /// value gained (its weight if previously uncovered).
    fn count_insert_one(&mut self, v: UserId, weights: &DenseWeights) -> f64 {
        let c = self.counts.entry(v).or_insert(0);
        let gain = if *c == 0 { weights.weight(v) } else { 0.0 };
        *c += 1;
        gain
    }

    /// Registers `set` into the coverage multiset, returning the value gained
    /// (weight of items that were previously uncovered).
    fn count_insert(&mut self, set: &InfluenceSet, weights: &DenseWeights) -> f64 {
        let mut gain = 0.0;
        for v in set.iter() {
            gain += self.count_insert_one(v, weights);
        }
        gain
    }

    /// Removes `set` from the coverage multiset, returning the value lost
    /// (weight of items that become uncovered).
    fn count_remove(&mut self, set: &InfluenceSet, weights: &DenseWeights) -> f64 {
        let mut loss = 0.0;
        for v in set.iter() {
            if let Some(c) = self.counts.get_mut(&v) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&v);
                    loss += weights.weight(v);
                }
            }
        }
        loss
    }
}

impl SsoOracle for SwapStreaming {
    fn process(&mut self, key: UserId, set: &InfluenceSet, weights: &DenseWeights) {
        self.elements += 1;
        if let Some(existing) = self.held.get(&key) {
            // Updated influence set of a held seed: keep the union of the old
            // and new copies (the value can only grow).
            let new_items: Vec<UserId> = set.iter().filter(|v| !existing.contains(*v)).collect();
            if new_items.is_empty() {
                return;
            }
            for &v in &new_items {
                self.cached_value += self.count_insert_one(v, weights);
            }
            self.held.get_mut(&key).expect("held").extend(new_items);
            return;
        }
        if self.held.len() < self.config.k {
            self.cached_value += self.count_insert(set, weights);
            self.held.insert(key, set.clone());
            return;
        }
        // Full: find the best single swap using the coverage multiset.
        // Gain of X = weight of X's items nobody covers yet.
        let gain_x: f64 = set
            .iter()
            .filter(|v| !self.counts.contains_key(v))
            .map(|v| weights.weight(v))
            .sum();
        // Loss of evicting y = weight of items only y covers and X does not
        // re-cover.  Ties break toward the smallest y, so the chosen victim
        // never depends on hash-map iteration order — a restored oracle
        // must evict exactly like the one that never stopped.
        let mut best: Option<(UserId, f64)> = None;
        for (&y, y_set) in &self.held {
            let loss_y: f64 = y_set
                .iter()
                .filter(|v| self.counts.get(v) == Some(&1) && !set.contains(*v))
                .map(|v| weights.weight(v))
                .sum();
            let delta = gain_x - loss_y;
            let better = match best {
                None => true,
                Some((by, bd)) => delta > bd || (delta == bd && y < by),
            };
            if better {
                best = Some((y, delta));
            }
        }
        if let Some((y, delta)) = best {
            if delta > 0.0 {
                let y_set = self.held.remove(&y).expect("held seed");
                self.cached_value -= self.count_remove(&y_set, weights);
                self.cached_value += self.count_insert(set, weights);
                self.held.insert(key, set.clone());
                debug_assert!({
                    // The incremental value matches a from-scratch recount.
                    let mut cov = CoverageState::new();
                    for s in self.held.values() {
                        cov.absorb(weights, s);
                    }
                    (cov.value() - self.cached_value).abs() < 1e-6
                });
            }
        }
    }

    fn process_grow(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
    ) {
        if let Some(existing) = self.held.get_mut(&key) {
            // Held seed grew by exactly one item: O(1) update.
            self.elements += 1;
            if existing.insert(added) {
                self.cached_value += self.count_insert_one(added, weights);
            }
            return;
        }
        self.process(key, set, weights);
    }

    fn value(&self) -> f64 {
        self.cached_value
    }

    fn seeds(&self) -> Vec<UserId> {
        // Ascending order: the held set has no meaningful order of its own,
        // and hash-map iteration order must not leak into answers (a
        // restored oracle has to report identical seeds).
        let mut seeds: Vec<UserId> = self.held.keys().copied().collect();
        seeds.sort_unstable();
        seeds
    }

    fn k(&self) -> usize {
        self.config.k
    }

    fn elements_processed(&self) -> u64 {
        self.elements
    }

    fn retained_facts(&self) -> usize {
        self.held.values().map(|s| s.len()).sum()
    }

    fn snapshot_state(&self) -> Option<crate::state::OracleState> {
        use crate::state::{OracleState, SwapState};
        let mut held: Vec<(UserId, InfluenceSet)> =
            self.held.iter().map(|(&u, set)| (u, set.clone())).collect();
        held.sort_unstable_by_key(|(u, _)| *u);
        Some(OracleState::Swap(SwapState {
            held,
            cached_value: self.cached_value,
            elements: self.elements,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::UnitWeight;

    const UNIT: DenseWeights<'static> = DenseWeights::Unit;

    fn set(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn fills_then_swaps_for_improvement() {
        let mut s = SwapStreaming::new(OracleConfig::new(2, 0.1));
        s.process(UserId(1), &set(&[1]), &UNIT);
        s.process(UserId(2), &set(&[2]), &UNIT);
        assert_eq!(s.value(), 2.0);
        // A much better set should displace one of the held singletons.
        s.process(UserId(3), &set(&[3, 4, 5, 6]), &UNIT);
        assert!(s.value() >= 5.0);
        assert!(s.seeds().contains(&UserId(3)));
        assert_eq!(s.seeds().len(), 2);
    }

    #[test]
    fn does_not_swap_when_no_improvement() {
        let mut s = SwapStreaming::new(OracleConfig::new(2, 0.1));
        s.process(UserId(1), &set(&[1, 2, 3]), &UNIT);
        s.process(UserId(2), &set(&[4, 5, 6]), &UNIT);
        let before = s.value();
        s.process(UserId(3), &set(&[1, 4]), &UNIT);
        assert_eq!(s.value(), before);
        assert!(!s.seeds().contains(&UserId(3)));
    }

    #[test]
    fn updated_seed_keeps_growing() {
        let mut s = SwapStreaming::new(OracleConfig::new(1, 0.1));
        s.process(UserId(9), &set(&[1]), &UNIT);
        s.process(UserId(9), &set(&[1, 2, 3]), &UNIT);
        assert_eq!(s.value(), 3.0);
        assert_eq!(s.seeds(), vec![UserId(9)]);
        assert_eq!(s.retained_facts(), 3);
    }

    /// Equal-delta swaps evict the smallest held seed — never whichever
    /// seed a hash map happens to iterate first (a restored oracle must
    /// evict exactly like the original).
    #[test]
    fn tied_swaps_evict_the_smallest_seed_deterministically() {
        let mut s = SwapStreaming::new(OracleConfig::new(2, 0.1));
        s.process(UserId(9), &set(&[1]), &UNIT);
        s.process(UserId(4), &set(&[2]), &UNIT);
        // Gain 2, loss 1 for either victim: a tie. u4 must be evicted.
        s.process(UserId(7), &set(&[3, 4]), &UNIT);
        assert_eq!(s.seeds(), vec![UserId(7), UserId(9)]);
        assert_eq!(s.value(), 3.0);
    }

    #[test]
    fn grow_updates_held_seed_in_place() {
        let mut s = SwapStreaming::new(OracleConfig::new(1, 0.1));
        s.process(UserId(9), &set(&[1]), &UNIT);
        s.process_grow(UserId(9), UserId(2), &set(&[1, 2]), &UNIT);
        assert_eq!(s.value(), 2.0);
        assert_eq!(s.retained_facts(), 2);
        // Growing an unheld key falls back to the swap logic.
        s.process_grow(UserId(5), UserId(7), &set(&[6, 7, 8]), &UNIT);
        assert_eq!(s.value(), 3.0);
        assert_eq!(s.seeds(), vec![UserId(5)]);
    }

    #[test]
    fn value_never_decreases() {
        let mut s = SwapStreaming::new(OracleConfig::new(2, 0.1));
        let mut last = 0.0;
        for i in 0..30u32 {
            s.process(UserId(i % 6), &set(&[i % 11, (i * 3) % 11]), &UNIT);
            assert!(s.value() + 1e-9 >= last, "value decreased at step {i}");
            last = s.value();
        }
    }

    #[test]
    fn swap_considers_recovered_items() {
        // Held: y1 = {1,2}, y2 = {3}.  Arriving X = {1,2,4}: evicting y1
        // loses nothing that X does not re-cover, so the swap is applied and
        // the value rises from 3 to 4.
        let mut s = SwapStreaming::new(OracleConfig::new(2, 0.1));
        s.process(UserId(1), &set(&[1, 2]), &UNIT);
        s.process(UserId(2), &set(&[3]), &UNIT);
        s.process(UserId(3), &set(&[1, 2, 4]), &UNIT);
        assert_eq!(s.value(), 4.0);
        assert!(s.seeds().contains(&UserId(3)));
        assert!(s.seeds().contains(&UserId(2)));
    }

    #[test]
    fn cached_value_matches_recount_after_many_swaps() {
        let mut s = SwapStreaming::new(OracleConfig::new(3, 0.1));
        for i in 0..100u32 {
            let items: Vec<u32> = (0..(1 + i % 7)).map(|j| (i * 5 + j * 3) % 40).collect();
            s.process(
                UserId(i % 15),
                &items.iter().map(|&v| UserId(v)).collect(),
                &UNIT,
            );
        }
        let mut cov = CoverageState::new();
        for held in s.held.values() {
            cov.absorb(&UnitWeight, held);
        }
        assert!((cov.value() - s.value()).abs() < 1e-9);
        assert!(s.seeds().len() <= 3);
    }
}

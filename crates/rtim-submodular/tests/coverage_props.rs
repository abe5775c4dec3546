//! Property tests of the bitmap [`CoverageState`] against the retained
//! [`HashCoverageState`] reference model, under both the cardinality and a
//! weighted objective, with arriving sets that cross the small-vec↔bitmap
//! promotion boundary.

use proptest::prelude::*;
use rtim_stream::{InfluenceSet, UserId};
use rtim_submodular::{CoverageState, HashCoverageState, MapWeight, UnitWeight};
use std::collections::HashMap;

/// A random sequence of influence sets (the op stream), sized to exercise
/// both representations of the arriving set.
fn arb_sets(max_sets: usize, universe: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..universe, 1..90), 1..max_sets)
}

/// Integer-valued weights so float accumulation is exact regardless of the
/// summation order (the bitmap sums in ascending id order, the hash set in
/// hash order — only exactness makes them comparable with `==`).
fn weight_for(universe: u32) -> MapWeight {
    let mut table = HashMap::new();
    for u in 0..universe {
        table.insert(UserId(u), f64::from(u % 5));
    }
    MapWeight::new(table, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unit-weight equivalence: marginal_gain, absorb, value, covered count,
    /// and membership all match the reference model at every step.
    #[test]
    fn bitmap_matches_reference_unit(sets in arb_sets(30, 600)) {
        let w = UnitWeight;
        let mut bitmap = CoverageState::new();
        let mut model = HashCoverageState::new();
        for ids in &sets {
            let set: InfluenceSet = ids.iter().map(|&v| UserId(v)).collect();
            prop_assert_eq!(bitmap.marginal_gain(&w, &set), model.marginal_gain(&w, &set));
            prop_assert_eq!(bitmap.absorb(&w, &set), model.absorb(&w, &set));
            prop_assert_eq!(bitmap.value(), model.value());
            prop_assert_eq!(bitmap.covered_count(), model.covered_count());
            for &v in ids {
                prop_assert_eq!(bitmap.covers(UserId(v)), model.covers(UserId(v)));
            }
        }
    }

    /// Weighted equivalence (integer weights keep sums exact).
    #[test]
    fn bitmap_matches_reference_weighted(sets in arb_sets(25, 400)) {
        let w = weight_for(400);
        let mut bitmap = CoverageState::new();
        let mut model = HashCoverageState::new();
        for ids in &sets {
            let set: InfluenceSet = ids.iter().map(|&v| UserId(v)).collect();
            prop_assert_eq!(bitmap.marginal_gain(&w, &set), model.marginal_gain(&w, &set));
            prop_assert_eq!(bitmap.absorb(&w, &set), model.absorb(&w, &set));
            prop_assert_eq!(bitmap.value(), model.value());
        }
    }

    /// absorb_one (the delta path) is equivalent to absorbing a singleton
    /// set, and to the reference model's single-user insert.
    #[test]
    fn absorb_one_matches_model(
        sets in arb_sets(10, 300),
        singles in prop::collection::vec(0u32..300, 1..40),
    ) {
        let w = weight_for(300);
        let mut bitmap = CoverageState::new();
        let mut model = HashCoverageState::new();
        for ids in &sets {
            let set: InfluenceSet = ids.iter().map(|&v| UserId(v)).collect();
            bitmap.absorb(&w, &set);
            model.absorb(&w, &set);
        }
        for &v in &singles {
            prop_assert_eq!(
                bitmap.absorb_one(&w, UserId(v)),
                model.absorb_one(&w, UserId(v))
            );
        }
        prop_assert_eq!(bitmap.value(), model.value());
        prop_assert_eq!(bitmap.covered_count(), model.covered_count());
    }

    /// The early-exit marginal gain truncates consistently: it reaches the
    /// target iff the exact marginal gain does, and never exceeds it.
    #[test]
    fn marginal_gain_at_least_is_consistent(
        base in arb_sets(6, 300),
        probe in prop::collection::vec(0u32..300, 1..90),
        target_tenths in 0u32..200,
    ) {
        let w = UnitWeight;
        let target = f64::from(target_tenths) / 10.0;
        let mut cov = CoverageState::new();
        for ids in &base {
            cov.absorb(&w, &ids.iter().map(|&v| UserId(v)).collect());
        }
        let set: InfluenceSet = probe.iter().map(|&v| UserId(v)).collect();
        let exact = cov.marginal_gain(&w, &set);
        let truncated = cov.marginal_gain_at_least(&w, &set, target);
        prop_assert!(truncated <= exact + 1e-9);
        prop_assert_eq!(truncated >= target, exact >= target,
            "exact {} truncated {} target {}", exact, truncated, target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arena-backed coverage is bit-identical to heap-backed coverage:
    /// routing bitmap growth through a `WordArena` — including buffers
    /// recycled across slides — changes backing-store provenance only,
    /// never a gain, value, or membership answer.
    #[test]
    fn arena_backed_coverage_matches_heap_backed(
        rounds in prop::collection::vec(arb_sets(12, 600), 1..4),
        unit in 0u32..2,
    ) {
        use rtim_stream::WordArena;
        let weighted = weight_for(600);
        let mut arena = WordArena::new();
        for sets in &rounds {
            let mut heap = CoverageState::new();
            let mut pooled = CoverageState::new();
            for ids in sets {
                let set: InfluenceSet = ids.iter().map(|&v| UserId(v)).collect();
                let (a, b) = if unit == 0 {
                    (heap.absorb(&UnitWeight, &set),
                     pooled.absorb_in(&UnitWeight, &set, &mut arena))
                } else {
                    (heap.absorb(&weighted, &set),
                     pooled.absorb_in(&weighted, &set, &mut arena))
                };
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert_eq!(heap.value().to_bits(), pooled.value().to_bits());
                prop_assert_eq!(heap.covered_count(), pooled.covered_count());
                for &v in ids {
                    prop_assert_eq!(heap.covers(UserId(v)), pooled.covers(UserId(v)));
                }
            }
            arena.end_slide();
        }
    }
}

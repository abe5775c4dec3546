//! Incremental singleton values `f({e})` shared by the guess-grid oracles.
//!
//! SieveStreaming and ThresholdStream both need the singleton value of
//! every arriving element (to maintain `m = max f({e})` and the fallback
//! single-element solution).  Under the cardinality objective that is just
//! the set's size; under a weighted objective a full rescan per re-arrival
//! would cost O(|I(u)|), so [`SingletonValues`] maintains the value per key
//! incrementally from the single-user delta the set-stream mapping supplies
//! (`process_grow`), with a full scan as the non-delta fallback.
//!
//! Contract (same as [`crate::SsoOracle::process_grow`]): when `added` is
//! `Some(a)`, the caller guarantees `a` is the one user by which the key's
//! set grew since it was last fed — the cached value then advances by
//! exactly `w(a)`.

use crate::coverage::CoverageState;
use crate::weights::{DenseWeights, ElementWeight};
use rtim_stream::{InfluenceSet, UserId};
use std::collections::HashMap;

/// Per-key incremental singleton values (empty under the cardinality
/// objective, which reads `set.len()` instead).
#[derive(Debug, Clone, Default)]
pub(crate) struct SingletonValues {
    values: HashMap<UserId, f64>,
}

impl SingletonValues {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The cached entries, ascending by user (deterministic snapshot order).
    pub(crate) fn entries(&self) -> Vec<(UserId, f64)> {
        let mut entries: Vec<(UserId, f64)> = self.values.iter().map(|(&u, &v)| (u, v)).collect();
        entries.sort_unstable_by_key(|(u, _)| *u);
        entries
    }

    /// Rebuilds the cache from persisted entries (restore path).
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (UserId, f64)>) -> Self {
        SingletonValues {
            values: entries.into_iter().collect(),
        }
    }

    /// The singleton value `f({key})` of the arriving element.
    pub(crate) fn value(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        added: Option<UserId>,
    ) -> f64 {
        if weights.is_unit() {
            return set.len() as f64;
        }
        match added {
            Some(a) => {
                let entry = self.values.entry(key).or_insert(0.0);
                *entry += weights.weight(a);
                *entry
            }
            None => {
                let v = CoverageState::set_value(weights, set);
                self.values.insert(key, v);
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn unit_reads_len_without_caching() {
        let mut s = SingletonValues::new();
        assert_eq!(
            s.value(UserId(1), &set(&[4, 5]), &DenseWeights::Unit, None),
            2.0
        );
        assert!(s.values.is_empty());
    }

    #[test]
    fn weighted_delta_accumulates_and_rescans_resync() {
        let table = [1.0, 2.0, 3.0, 4.0];
        let w = DenseWeights::Table(&table);
        let mut s = SingletonValues::new();
        // Delta path from scratch: entries accumulate one weight at a time.
        assert_eq!(s.value(UserId(9), &set(&[1]), &w, Some(UserId(1))), 2.0);
        assert_eq!(s.value(UserId(9), &set(&[1, 3]), &w, Some(UserId(3))), 6.0);
        // A full (non-delta) feed overwrites with the exact rescan...
        assert_eq!(s.value(UserId(9), &set(&[0, 1, 3]), &w, None), 7.0);
        // ...and the delta path continues from it.
        assert_eq!(
            s.value(UserId(9), &set(&[0, 1, 2, 3]), &w, Some(UserId(2))),
            10.0
        );
    }
}

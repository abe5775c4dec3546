//! The streaming submodular optimization (SSO) oracle abstraction.
//!
//! A checkpoint (§4.1) wraps an SSO oracle operating in the *set-stream*
//! model: elements arrive one at a time, each element is the influence set
//! of a candidate seed user, and the oracle maintains a candidate solution
//! of at most `k` seeds maximizing the weighted coverage of the union of
//! their sets.  The Set-Stream Mapping of §4.2 may feed the *same* user
//! again later with a strictly larger set (its updated influence set);
//! oracles must treat this as a fresh element (Theorem 2 shows the
//! approximation ratio is preserved, and keeping only the newest copy per
//! user can only increase the value).
//!
//! ## The delta-aware path
//!
//! Inside a checkpoint an influence set grows by **exactly one user** per
//! action (the actor).  [`SsoOracle::process_grow`] hands the oracle that
//! single-user delta alongside the full set, letting implementations absorb
//! the one new user in O(1) on the existing-seed branch and maintain the
//! element's singleton value incrementally instead of rescanning the whole
//! set.  The default implementation falls back to [`SsoOracle::process`],
//! so delta-awareness is an optimization, never a correctness requirement.
//!
//! ## Weights
//!
//! Oracles receive their element weights per call as a [`DenseWeights`]
//! view — `Unit` for the cardinality objective (pure popcount coverage) or
//! a borrowed dense `f64` table indexed by interned user id.  The weights
//! passed to an oracle must be consistent across its lifetime (same
//! objective, append-only table).

use crate::weights::DenseWeights;
use crate::{SieveStreaming, SwapStreaming, ThresholdStream};
use rtim_stream::{InfluenceSet, UserId, WordArena};
use serde::{Deserialize, Serialize};

/// Configuration shared by all SSO oracles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Cardinality constraint `k` (maximum number of seeds).
    pub k: usize,
    /// Accuracy/efficiency trade-off parameter `β ∈ (0, 1)` used by the
    /// threshold-guessing oracles; ignored by the swap oracle.
    pub beta: f64,
}

impl OracleConfig {
    /// Creates a configuration, clamping `beta` into `(0, 1)`.
    pub fn new(k: usize, beta: f64) -> Self {
        assert!(k > 0, "k must be positive");
        OracleConfig {
            k,
            beta: beta.clamp(1e-6, 0.999_999),
        }
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { k: 50, beta: 0.1 }
    }
}

/// What an oracle's elements came to: how many skipped the admission loop,
/// were rejected by a cached bound, took a marginal-gain pass or were
/// admitted (see the [`sieve`](crate::sieve) module docs).  Plain
/// per-oracle counts since the oracle was built or restored; they are not
/// persisted.  Sums over checkpoints with `+=` or [`Iterator::sum`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Elements processed.
    pub elements: u64,
    /// Elements whose whole admission loop was skipped: the singleton value
    /// was below every open instance's threshold.
    pub loop_skips: u64,
    /// Admission tests rejected by a cached gain bound, without a pass over
    /// the coverage.
    pub bound_rejections: u64,
    /// Marginal-gain passes over an instance's coverage.
    pub gain_passes: u64,
    /// Elements admitted as a seed of an instance.
    pub admissions: u64,
}

impl std::ops::AddAssign for OracleCounters {
    fn add_assign(&mut self, other: OracleCounters) {
        self.elements += other.elements;
        self.loop_skips += other.loop_skips;
        self.bound_rejections += other.bound_rejections;
        self.gain_passes += other.gain_passes;
        self.admissions += other.admissions;
    }
}

impl std::iter::Sum for OracleCounters {
    fn sum<I: Iterator<Item = OracleCounters>>(iter: I) -> OracleCounters {
        iter.fold(OracleCounters::default(), |mut total, c| {
            total += c;
            total
        })
    }
}

/// A streaming submodular optimization oracle over an append-only set-stream.
pub trait SsoOracle: Send {
    /// Processes one element: candidate seed `key` together with its current
    /// (possibly updated/grown) influence set, under the given weights.
    fn process(&mut self, key: UserId, set: &InfluenceSet, weights: &DenseWeights);

    /// Processes the re-arrival of `key` whose set grew by **exactly one**
    /// user, `added` (already present in `set`).
    ///
    /// Callers must guarantee that `set` is the previously fed set of `key`
    /// plus `added`; under that contract implementations may update cached
    /// per-element values incrementally.  The default falls back to the
    /// non-delta [`Self::process`].
    fn process_grow(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
    ) {
        let _ = added;
        self.process(key, set, weights);
    }

    /// [`Self::process`] with slide-time bitmap growth routed through a
    /// per-worker [`WordArena`] (see `rtim_stream::arena`).  The default
    /// ignores the arena and delegates, so arena awareness — like
    /// delta awareness — is an optimization, never a correctness
    /// requirement for external oracle implementations.
    fn process_in(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        arena: &mut WordArena,
    ) {
        let _ = arena;
        self.process(key, set, weights);
    }

    /// [`Self::process_grow`] with arena-routed bitmap growth; same
    /// delegation contract as [`Self::process_in`].
    fn process_grow_in(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        arena: &mut WordArena,
    ) {
        let _ = arena;
        self.process_grow(key, added, set, weights);
    }

    /// The objective value `f(I(S))` of the current candidate solution.
    fn value(&self) -> f64;

    /// The current candidate seeds (at most `k` distinct users).
    fn seeds(&self) -> Vec<UserId>;

    /// The cardinality constraint `k`.
    fn k(&self) -> usize;

    /// Number of `process`/`process_grow` calls served so far
    /// (instrumentation).
    fn elements_processed(&self) -> u64;

    /// Approximate memory footprint: number of `(user, covered-user)` facts
    /// retained across all internal instances (instrumentation for the
    /// checkpoint-count/space experiments).
    fn retained_facts(&self) -> usize;

    /// Outcome counters of the oracle's element loop (instrumentation).
    /// The default reports only [`Self::elements_processed`].
    fn counters(&self) -> OracleCounters {
        OracleCounters {
            elements: self.elements_processed(),
            ..OracleCounters::default()
        }
    }

    /// The oracle's serializable state, if it supports durable snapshots.
    ///
    /// Every oracle shipped by this crate returns `Some`; the default is
    /// `None` so external implementations keep compiling — an engine whose
    /// checkpoints hold such an oracle reports snapshotting as unsupported
    /// instead of failing at decode time.  Restore with
    /// [`OracleState::restore`](crate::state::OracleState::restore).
    fn snapshot_state(&self) -> Option<crate::state::OracleState> {
        None
    }
}

/// Selector for the checkpoint-oracle implementation (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleKind {
    /// SieveStreaming (Badanidiyuru et al. 2014): `1/2 − β`, `O(log k / β)`
    /// instances.  The paper's default checkpoint oracle.
    SieveStreaming,
    /// ThresholdStream (Kumar et al. 2015): `1/2 − β`.
    ThresholdStream,
    /// Swap-based streaming max-k-coverage (Saha & Getoor 2009, Ausiello et
    /// al. 2012): `1/4`, `O(k)` per element.
    Swap,
}

impl OracleKind {
    /// Instantiates the selected oracle.
    pub fn build(self, config: OracleConfig) -> Box<dyn SsoOracle> {
        match self {
            OracleKind::SieveStreaming => Box::new(SieveStreaming::new(config)),
            OracleKind::ThresholdStream => Box::new(ThresholdStream::new(config)),
            OracleKind::Swap => Box::new(SwapStreaming::new(config)),
        }
    }

    /// Worst-case approximation ratio of the oracle (for β from `config`),
    /// as listed in Table 2.
    pub fn approximation_ratio(self, config: OracleConfig) -> f64 {
        match self {
            OracleKind::SieveStreaming | OracleKind::ThresholdStream => 0.5 - config.beta,
            OracleKind::Swap => 0.25,
        }
    }

    /// All supported oracle kinds (used by the Table-2 ablation bench).
    pub fn all() -> [OracleKind; 3] {
        [
            OracleKind::SieveStreaming,
            OracleKind::ThresholdStream,
            OracleKind::Swap,
        ]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::SieveStreaming => "SieveStreaming",
            OracleKind::ThresholdStream => "ThresholdStream",
            OracleKind::Swap => "Swap",
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
    fn factory_builds_all_kinds() {
        for kind in OracleKind::all() {
            let mut oracle = kind.build(OracleConfig::new(2, 0.2));
            oracle.process(UserId(1), &set(&[1, 2, 3]), &DenseWeights::Unit);
            oracle.process(UserId(2), &set(&[4]), &DenseWeights::Unit);
            assert!(oracle.value() >= 3.0, "{}", kind.name());
            assert!(oracle.seeds().len() <= 2);
            assert_eq!(oracle.k(), 2);
            assert_eq!(oracle.elements_processed(), 2);
        }
    }

    #[test]
    fn grow_path_matches_full_reprocessing() {
        // Feed the same grown-by-one sequence through process() and
        // process_grow(): values must agree for every oracle kind.
        let streams: Vec<(u32, Vec<u32>)> = vec![
            (1, vec![1]),
            (1, vec![1, 2]),
            (2, vec![3]),
            (1, vec![1, 2, 4]),
            (2, vec![3, 4]),
            (3, vec![5]),
        ];
        for kind in OracleKind::all() {
            let mut full = kind.build(OracleConfig::new(2, 0.2));
            let mut delta = kind.build(OracleConfig::new(2, 0.2));
            let mut last_len: std::collections::HashMap<u32, usize> = Default::default();
            for (u, cover) in &streams {
                let s = set(cover);
                full.process(UserId(*u), &s, &DenseWeights::Unit);
                let prev = last_len.insert(*u, cover.len()).unwrap_or(0);
                if prev + 1 == cover.len() {
                    let added = UserId(*cover.last().unwrap());
                    delta.process_grow(UserId(*u), added, &s, &DenseWeights::Unit);
                } else {
                    delta.process(UserId(*u), &s, &DenseWeights::Unit);
                }
                assert_eq!(full.value(), delta.value(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn config_clamps_beta() {
        let c = OracleConfig::new(5, 7.0);
        assert!(c.beta < 1.0);
        let c = OracleConfig::new(5, -1.0);
        assert!(c.beta > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let _ = OracleConfig::new(0, 0.1);
    }

    #[test]
    fn ratios_match_table2() {
        let c = OracleConfig::new(10, 0.1);
        assert!((OracleKind::SieveStreaming.approximation_ratio(c) - 0.4).abs() < 1e-9);
        assert!((OracleKind::Swap.approximation_ratio(c) - 0.25).abs() < 1e-9);
    }
}

//! ThresholdStream (Kumar, Moseley, Vassilvitskii, Vattani — TOPC 2015).
//!
//! Like SieveStreaming, ThresholdStream guesses the optimum on a geometric
//! grid `(1+β)^j ∈ [m, 2km]`, but each guess `v` uses a *fixed* admission
//! threshold `τ = v / (2k)`: an arriving element is admitted while fewer
//! than `k` seeds are held and its marginal gain is at least `τ`.  For the
//! guess closest to `OPT` the admitted solution is a `(1/2 − β)`
//! approximation.  The fixed threshold makes each admission test slightly
//! cheaper than SieveStreaming's adaptive rule at the cost of somewhat
//! weaker empirical values — exactly the trade-off the Table-2 ablation
//! bench measures.
//!
//! The delta path ([`SsoOracle::process_grow`]) mirrors SieveStreaming's:
//! existing seeds absorb the single new user in O(1), and singleton values
//! are maintained incrementally for weighted objectives.
//!
//! The instances share SieveStreaming's flat grid and seed-of index (see
//! `crate::grid`): a re-arriving seed is absorbed into exactly the
//! instances that hold it, and the admission test visits the others.  Every
//! instance is independent of the rest, so absorbing before the admission
//! pass yields the same state as the interleaved visit-every-instance loop
//! (`tests/threshold_reference.rs` checks that after every element).

use crate::coverage::CoverageState;
use crate::grid::{guess_range, Grid, SeedOf};
use crate::oracle::{OracleConfig, SsoOracle};
use crate::singles::SingletonValues;
use crate::weights::DenseWeights;
use rtim_stream::{InfluenceSet, UserId};

#[derive(Debug, Clone)]
struct Instance {
    /// Fixed admission threshold `v / (2k)` for this guess `v`.
    threshold: f64,
    seeds: Vec<UserId>,
    coverage: CoverageState,
}

impl Instance {
    fn new(opt_guess: f64, k: usize) -> Self {
        Instance {
            threshold: opt_guess / (2.0 * k as f64),
            seeds: Vec::new(),
            coverage: CoverageState::new(),
        }
    }
}

/// The ThresholdStream oracle.
#[derive(Debug, Clone)]
pub struct ThresholdStream {
    config: OracleConfig,
    max_single: f64,
    best_single: Option<(UserId, f64)>,
    /// Instances by the exponent `j` of their guess `(1+β)^j`.
    instances: Grid<Instance>,
    /// Seed-of index: key → exponents of the instances holding it as a seed.
    seed_of: SeedOf,
    /// Incrementally maintained singleton values `f({e})` per key (see
    /// [`crate::singles`]).
    singles: SingletonValues,
    elements: u64,
}

impl ThresholdStream {
    /// Creates an empty oracle.
    pub fn new(config: OracleConfig) -> Self {
        ThresholdStream {
            config,
            max_single: 0.0,
            best_single: None,
            instances: Grid::new(),
            seed_of: SeedOf::default(),
            singles: SingletonValues::new(),
            elements: 0,
        }
    }

    /// Number of live guess instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Rebuilds an oracle from persisted state (see [`crate::state`]); the
    /// seed-of index is rebuilt from the seed lists.
    ///
    /// # Panics
    ///
    /// If the instance exponents are not consecutive; decoded states are
    /// (the codec rejects any other order with `StateError::Corrupt`).
    pub(crate) fn from_state(config: OracleConfig, state: crate::state::ThresholdState) -> Self {
        let instances = Grid::from_consecutive(state.instances.into_iter().map(|inst| {
            (
                inst.exponent,
                Instance {
                    threshold: inst.parameter,
                    seeds: inst.seeds,
                    coverage: inst.coverage.restore(),
                },
            )
        }));
        let seed_of = SeedOf::build(instances.iter().map(|(j, inst)| (j, inst.seeds.as_slice())));
        ThresholdStream {
            config,
            max_single: state.max_single,
            best_single: state.best_single,
            instances,
            seed_of,
            singles: SingletonValues::from_entries(state.singles),
            elements: state.elements,
        }
    }

    fn refresh_instances(&mut self) {
        if self.max_single <= 0.0 {
            return;
        }
        let seed_of = &mut self.seed_of;
        let (beta, k) = (self.config.beta, self.config.k);
        self.instances.refresh(
            guess_range(&self.config, self.max_single),
            |j, inst| seed_of.unlink(j, &inst.seeds),
            |j| Instance::new((1.0 + beta).powi(j as i32), k),
        );
    }

    fn best_instance(&self) -> Option<&Instance> {
        self.instances
            .cells()
            .iter()
            .max_by(|a, b| a.coverage.value().total_cmp(&b.coverage.value()))
    }

    fn process_inner(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        added: Option<UserId>,
    ) {
        self.elements += 1;
        let single = self.singles.value(key, set, weights, added);
        if single > self.max_single {
            self.max_single = single;
            self.refresh_instances();
        }
        match &self.best_single {
            Some((_, v)) if *v >= single => {}
            _ => self.best_single = Some((key, single)),
        }

        let k = self.config.k;
        let held = self.seed_of.held(key);
        for &j in held {
            let slot = self.instances.slot(j);
            let inst = &mut self.instances.cells_mut()[slot];
            match added {
                Some(a) => {
                    inst.coverage.absorb_one(weights, a);
                }
                None => {
                    inst.coverage.absorb(weights, set);
                }
            }
        }
        let mut admitted: Vec<i64> = Vec::new();
        for slot in 0..self.instances.len() {
            let j = self.instances.exponent(slot);
            let inst = &mut self.instances.cells_mut()[slot];
            if inst.seeds.len() >= k || inst.threshold > single || held.contains(&j) {
                continue;
            }
            let gain = inst
                .coverage
                .marginal_gain_at_least(weights, set, inst.threshold);
            if gain >= inst.threshold && gain > 0.0 {
                inst.coverage.absorb(weights, set);
                inst.seeds.push(key);
                admitted.push(j);
            }
        }
        self.seed_of.admit(key, admitted);
    }
}

impl SsoOracle for ThresholdStream {
    fn process(&mut self, key: UserId, set: &InfluenceSet, weights: &DenseWeights) {
        self.process_inner(key, set, weights, None);
    }

    fn process_grow(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
    ) {
        self.process_inner(key, set, weights, Some(added));
    }

    fn value(&self) -> f64 {
        let best_inst = self.best_instance().map_or(0.0, |i| i.coverage.value());
        let best_single = self.best_single.map_or(0.0, |(_, v)| v);
        best_inst.max(best_single)
    }

    fn seeds(&self) -> Vec<UserId> {
        let best_single = self.best_single.map_or(0.0, |(_, v)| v);
        match self.best_instance() {
            Some(inst) if inst.coverage.value() >= best_single => inst.seeds.clone(),
            _ => self.best_single.iter().map(|(u, _)| *u).collect(),
        }
    }

    fn k(&self) -> usize {
        self.config.k
    }

    fn elements_processed(&self) -> u64 {
        self.elements
    }

    fn retained_facts(&self) -> usize {
        self.instances
            .cells()
            .iter()
            .map(|i| i.coverage.covered_count())
            .sum()
    }

    fn snapshot_state(&self) -> Option<crate::state::OracleState> {
        use crate::state::{CoverageSnapshot, InstanceState, OracleState, ThresholdState};
        Some(OracleState::Threshold(ThresholdState {
            max_single: self.max_single,
            best_single: self.best_single,
            instances: self
                .instances
                .iter()
                .map(|(exponent, inst)| InstanceState {
                    exponent,
                    parameter: inst.threshold,
                    seeds: inst.seeds.clone(),
                    coverage: CoverageSnapshot::of(&inst.coverage),
                })
                .collect(),
            singles: self.singles.entries(),
            elements: self.elements,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: DenseWeights<'static> = DenseWeights::Unit;

    fn set(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn admits_elements_above_threshold() {
        let mut t = ThresholdStream::new(OracleConfig::new(2, 0.2));
        t.process(UserId(1), &set(&[1, 2, 3]), &UNIT);
        t.process(UserId(2), &set(&[4, 5, 6]), &UNIT);
        assert!(t.value() >= 5.0);
        assert!(t.seeds().len() <= 2);
    }

    #[test]
    fn value_monotone_and_bounded_by_universe() {
        let mut t = ThresholdStream::new(OracleConfig::new(3, 0.1));
        let mut last = 0.0;
        for i in 0..20u32 {
            t.process(UserId(i), &set(&[i % 7, (i + 1) % 7]), &UNIT);
            assert!(t.value() + 1e-9 >= last);
            last = t.value();
        }
        assert!(t.value() <= 7.0);
    }

    #[test]
    fn reprocessed_seed_grows() {
        let mut t = ThresholdStream::new(OracleConfig::new(1, 0.1));
        t.process(UserId(3), &set(&[1]), &UNIT);
        t.process(UserId(3), &set(&[1, 2, 3]), &UNIT);
        assert!(t.value() >= 3.0);
    }

    #[test]
    fn grow_delta_matches_full_reprocess() {
        let mut full = ThresholdStream::new(OracleConfig::new(2, 0.2));
        let mut delta = ThresholdStream::new(OracleConfig::new(2, 0.2));
        let grown: &[&[u32]] = &[&[1], &[1, 5], &[1, 5, 9]];
        for (i, cover) in grown.iter().enumerate() {
            let s = set(cover);
            full.process(UserId(1), &s, &UNIT);
            if i == 0 {
                delta.process(UserId(1), &s, &UNIT);
            } else {
                delta.process_grow(UserId(1), UserId(cover[i]), &s, &UNIT);
            }
            assert_eq!(full.value(), delta.value());
            assert_eq!(full.seeds(), delta.seeds());
        }
    }

    #[test]
    fn empty_is_zero() {
        let t = ThresholdStream::new(OracleConfig::default());
        assert_eq!(t.value(), 0.0);
        assert!(t.seeds().is_empty());
    }
}

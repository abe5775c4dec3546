//! SieveStreaming (Badanidiyuru, Mirzasoleiman, Karbasi, Krause — KDD 2014).
//!
//! The paper's default checkpoint oracle (§4.3).  SieveStreaming maintains a
//! geometric grid of guesses `Ω = {(1+β)^j : m ≤ (1+β)^j ≤ 2·k·m}` for the
//! unknown optimum `OPT`, where `m` is the largest single-element value seen
//! so far.  Each guess `v` runs an independent thresholding instance that
//! admits an arriving element when fewer than `k` seeds are held and the
//! marginal gain is at least `(v/2 − f(S)) / (k − |S|)`.  At query time the
//! best instance is returned; at least one guess is within a `(1+β)` factor
//! of `OPT`, giving a `(1/2 − β)` approximation.
//!
//! ## Handling re-arriving keys (Set-Stream Mapping)
//!
//! The SSM feeds the *updated* influence set of a user whenever it grows.
//! If the user is already a seed of an instance we union the new set into
//! that instance's coverage (equivalent to replacing the stored copy of the
//! element by its newest version — the value can only grow, preserving the
//! oracle monotonicity required by the SIC analysis, Lemma 2/3).  Otherwise
//! the standard admission rule applies.
//!
//! ## The delta path
//!
//! Inside a checkpoint every re-arrival grows the set by **exactly one**
//! user, so [`SsoOracle::process_grow`] turns the existing-seed branch into
//! a single `absorb_one` bit-set per instance (O(1) amortized instead of
//! O(|I(u)|)) and maintains the element's singleton value incrementally; the
//! admission branch keeps the word-level early-exit threshold test.
//!
//! ## Visiting only the instances that can change
//!
//! On a typical element almost every instance ends in a skip: it is full,
//! its threshold exceeds the element's whole value, or it already rejected
//! the same key and the key's set has barely grown since.  Three pieces of
//! derived state let an element touch only the instances that can change.
//! None of them alters an admission decision, so every value and seed list
//! is bit-identical to visiting every instance; `tests/sieve_reference.rs`
//! checks that after every element against the visit-every-instance loop.
//!
//! ### Seed-of index
//!
//! `seed_of` maps a key to the exponents of the instances that hold it as a
//! seed.  A re-arriving seed is absorbed into exactly those instances, and a
//! full instance is never visited for a key it does not hold.  Exactness:
//! an instance takes the absorb branch iff the key is one of its seeds, and
//! the index follows the only two events that change seed membership.  An
//! admission adds the exponent; a grid refresh that drops an instance
//! removes it from its seeds' entries.  Seeds never leave a live instance,
//! and a refresh that drops nothing leaves the index alone.  (The index is
//! [`crate::grid`]'s `SeedOf`, shared with ThresholdStream.)
//!
//! ### Open-threshold floor
//!
//! `open_floor` is a lower bound on the admission threshold
//! `τ = (v/2 − f(S)) / (k − |S|)` over the instances that are not full.
//! When it exceeds the element's singleton value, every open instance would
//! skip the element on `τ > f({e})`, so the admission loop is skipped as a
//! whole.  Exactness: the floor is built from [`Instance::threshold`], the
//! same float expression as the per-instance test, so the skip is exactly
//! the conjunction of the per-instance skips.  A live instance's τ changes
//! only on an absorb or an admission, and the floor is lowered to the new τ
//! after each, so it bounds every current τ without relying on rounding to
//! keep τ monotone.  An instance filling or a grid refresh leaves the floor
//! loose or misses new instances; either marks it stale, and the next
//! element recomputes it over the open instances.
//!
//! ### Lazy rejected-gain bound
//!
//! Under the cardinality objective on the `process_grow` path, a rejection
//! stores `d = Δ − |I(e)|` for the (instance, key) pair, where `Δ` is the
//! rejected marginal gain.  `Δ` is exact: the early-exit gain only stops
//! once it reaches the threshold, and a rejected gain never did (see
//! `and_not_popcount_at_least`).  Later, `|I(e)| + d` bounds the current
//! gain from above: the instance's coverage only grows, so the users the set
//! held then contribute at most `Δ`, and each user it gained since weighs
//! exactly 1.  When the bound is below τ the element is rejected without a
//! coverage pass — the lazy evaluation of CELF (Leskovec et al., KDD 2007).
//! An admission removes the pair's entry, and an instance frees its whole
//! map when it fills.  Weighted objectives always take the full pass, and
//! the full-set `process` path (whose set need not extend the last one fed)
//! takes it too and drops the key's entries.
//!
//! ## Flat grid and cached thresholds
//!
//! The instances live in a flat grid indexed by `exponent − base` (see
//! [`crate::grid`]: refresh drops `j < lo` and fills `lo..=hi`, so the live
//! exponents are always one contiguous range).  A seed absorb is an index,
//! and the admission loop walks the instances in ascending exponent order,
//! the order the `BTreeMap` they replaced iterated in.
//!
//! Beside the grid, `thresholds[i]` caches [`Instance::threshold`] of the
//! instance in slot `i`, and `+∞` once it is full.  The admission loop
//! scans this dense `f64` array and touches an instance only where
//! `τ ≤ f({e})`.  Exactness: τ is a function of the guess, `f(S)` and
//! `|S|`, and those change only on an absorb or an admission of that
//! instance; the cache is recomputed with the same expression after each,
//! and rebuilt for every slot after a grid refresh or a restore.  So every
//! cached value equals the τ the loop would compute, bit for bit.  A full
//! instance reads `+∞`, which exceeds every finite `f({e})`; the loop
//! still checks fullness on the instances it does touch, so a NaN value
//! cannot admit into a full one.  The open-threshold floor is the minimum
//! of the array, the same fold as over the open instances alone.
//!
//! All of this is derived state and is not persisted:
//! [`SieveStreaming::from_state`] rebuilds the index from the seed lists
//! and the thresholds from the instances, starts the floor stale and the
//! rejection caches cold, so the snapshot format is unchanged.
//! [`OracleCounters`] counts the outcomes.

use crate::coverage::CoverageState;
use crate::grid::{guess_range, Grid, SeedOf};
use crate::oracle::{OracleConfig, OracleCounters, SsoOracle};
use crate::singles::SingletonValues;
use crate::weights::{DenseWeights, ElementWeight};
use fxhash::FxHashMap;
use rtim_stream::{InfluenceSet, UserId};

/// One thresholding instance for a particular guess of `OPT`.
#[derive(Debug, Clone)]
struct Instance {
    /// The guess `v = (1+β)^j` of the optimum value.
    opt_guess: f64,
    /// Selected seeds, in admission order.
    seeds: Vec<UserId>,
    /// Union coverage of the seeds' sets with its value.
    coverage: CoverageState,
    /// Lazy rejected-gain bounds: `gain − |I(key)|` at the key's last
    /// rejection (cardinality objective, delta path only; see the module
    /// docs).  Emptied when the instance fills.
    rejected: FxHashMap<UserId, i32>,
}

impl Instance {
    fn new(opt_guess: f64) -> Self {
        Instance {
            opt_guess,
            seeds: Vec::new(),
            coverage: CoverageState::new(),
            rejected: FxHashMap::default(),
        }
    }

    /// The admission threshold `(v/2 − f(S)) / (k − |S|)` of an instance
    /// that is not full — the one expression both the per-instance test and
    /// the open-threshold floor use.
    #[inline]
    fn threshold(&self, k: usize) -> f64 {
        let remaining = (k - self.seeds.len()) as f64;
        (self.opt_guess / 2.0 - self.coverage.value()) / remaining
    }

    /// The cached admission threshold: [`Self::threshold`], or `+∞` once
    /// the instance is full.
    #[inline]
    fn cached_threshold(&self, k: usize) -> f64 {
        if self.seeds.len() < k {
            self.threshold(k)
        } else {
            f64::INFINITY
        }
    }
}

/// The SieveStreaming oracle.
///
/// Element weights arrive per call as a [`DenseWeights`] view (`Unit`
/// cardinality or a dense table), so the same implementation serves both
/// objectives without a generic parameter.
#[derive(Debug, Clone)]
pub struct SieveStreaming {
    config: OracleConfig,
    /// Largest single-element value `m = max f({e})` observed so far.
    max_single: f64,
    /// Best single element observed (fallback solution).
    best_single: Option<(UserId, f64)>,
    /// Best solution among instances discarded by grid refreshes.  A guess
    /// that drops below `m` can still hold the currently best coverage, so
    /// its solution is frozen here instead of vanishing — keeping the
    /// reported value monotone (required by the SIC analysis, Lemma 2/3)
    /// without retaining the dead instance's coverage state.
    frozen: Option<(Vec<UserId>, f64)>,
    /// Instances by the exponent `j` of their guess `(1+β)^j`.
    instances: Grid<Instance>,
    /// [`Instance::cached_threshold`] of each grid slot.
    thresholds: Vec<f64>,
    /// Seed-of index: key → exponents of the instances holding it as a seed.
    seed_of: SeedOf,
    /// Open-threshold floor: a lower bound on [`Instance::threshold`] over
    /// the instances that are not full (`+∞` when none is); `None` while
    /// stale.
    open_floor: Option<f64>,
    /// Incrementally maintained singleton values `f({e})` per key (see
    /// [`crate::singles`]).
    singles: SingletonValues,
    elements: u64,
    counters: OracleCounters,
}

impl SieveStreaming {
    /// Creates an empty oracle.
    pub fn new(config: OracleConfig) -> Self {
        SieveStreaming {
            config,
            max_single: 0.0,
            best_single: None,
            frozen: None,
            instances: Grid::new(),
            thresholds: Vec::new(),
            seed_of: SeedOf::default(),
            open_floor: None,
            singles: SingletonValues::new(),
            elements: 0,
            counters: OracleCounters::default(),
        }
    }

    /// Number of live threshold instances `|Ω|` (instrumentation; the paper
    /// reports this is `O(log k / β)`).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Rebuilds an oracle from persisted state (see [`crate::state`]); the
    /// seed-of index and the cached thresholds are rebuilt from the
    /// instances, the floor starts stale and the rejection caches cold.
    ///
    /// # Panics
    ///
    /// If the instance exponents are not consecutive; decoded states are
    /// (the codec rejects any other order with `StateError::Corrupt`).
    pub(crate) fn from_state(config: OracleConfig, state: crate::state::SieveState) -> Self {
        let instances = Grid::from_consecutive(state.instances.into_iter().map(|inst| {
            (
                inst.exponent,
                Instance {
                    opt_guess: inst.parameter,
                    seeds: inst.seeds,
                    coverage: inst.coverage.restore(),
                    rejected: FxHashMap::default(),
                },
            )
        }));
        let seed_of = SeedOf::build(instances.iter().map(|(j, inst)| (j, inst.seeds.as_slice())));
        let mut oracle = SieveStreaming {
            config,
            max_single: state.max_single,
            best_single: state.best_single,
            frozen: state.frozen,
            instances,
            thresholds: Vec::new(),
            seed_of,
            open_floor: None,
            singles: SingletonValues::from_entries(state.singles),
            elements: state.elements,
            counters: OracleCounters::default(),
        };
        oracle.rebuild_thresholds();
        oracle
    }

    /// Recomputes the cached threshold of every grid slot.
    fn rebuild_thresholds(&mut self) {
        let k = self.config.k;
        self.thresholds.clear();
        self.thresholds.extend(
            self.instances
                .cells()
                .iter()
                .map(|inst| inst.cached_threshold(k)),
        );
    }

    /// Refreshes the instance grid after observing a new maximum single value.
    fn refresh_instances(&mut self) {
        if self.max_single <= 0.0 {
            return;
        }
        // Drop instances whose guess is now provably too small (< m),
        // freezing the best of their solutions so the oracle value cannot
        // regress across a refresh, and unlinking their seeds from the
        // seed-of index.
        let frozen_value = self.frozen.as_ref().map_or(0.0, |(_, v)| *v);
        let mut best_dropped: Option<(Vec<UserId>, f64)> = None;
        let seed_of = &mut self.seed_of;
        let beta = self.config.beta;
        self.instances.refresh(
            guess_range(&self.config, self.max_single),
            |j, inst| {
                seed_of.unlink(j, &inst.seeds);
                let value = inst.coverage.value();
                if value > frozen_value && best_dropped.as_ref().is_none_or(|(_, v)| value > *v) {
                    best_dropped = Some((inst.seeds, value));
                }
            },
            |j| Instance::new((1.0 + beta).powi(j as i32)),
        );
        if best_dropped.is_some() {
            self.frozen = best_dropped;
        }
        self.rebuild_thresholds();
        self.open_floor = None;
    }

    fn best_instance(&self) -> Option<&Instance> {
        self.instances
            .cells()
            .iter()
            .max_by(|a, b| a.coverage.value().total_cmp(&b.coverage.value()))
    }

    /// The best feasible value among live instances, the frozen snapshot and
    /// the best single element — **without** cloning any seed vector.  This
    /// is the path `value()` takes; it runs once per checkpoint per slide in
    /// the IC/SIC policy code, so it must stay allocation-free.
    fn best_value(&self) -> f64 {
        let mut best = self.best_single.map_or(0.0, |(_, v)| v);
        if let Some((_, v)) = &self.frozen {
            best = best.max(*v);
        }
        if let Some(inst) = self.best_instance() {
            best = best.max(inst.coverage.value());
        }
        best
    }

    /// The best feasible solution (seeds + value), cloning exactly one seed
    /// vector.  Shared by `seeds()`; `value()` uses [`Self::best_value`]
    /// instead.  Ties prefer instance over frozen over single, matching
    /// `best_value`'s maximum.
    fn best_candidate(&self) -> (f64, Vec<UserId>) {
        let mut best = (0.0, Vec::new());
        if let Some((u, v)) = self.best_single {
            if v > best.0 {
                best = (v, vec![u]);
            }
        }
        if let Some((seeds, v)) = &self.frozen {
            if *v >= best.0 {
                best = (*v, seeds.clone());
            }
        }
        if let Some(inst) = self.best_instance() {
            if inst.coverage.value() >= best.0 {
                best = (inst.coverage.value(), inst.seeds.clone());
            }
        }
        best
    }

    /// Shared body of `process` / `process_grow` (and their `_in` arena
    /// variants).  `added` is `Some` when the set grew by exactly that one
    /// user since `key` was last fed; `arena` is `Some` on the slide-loop
    /// path, where coverage-bitmap growth recycles through the per-worker
    /// [`WordArena`](rtim_stream::WordArena).
    fn process_inner(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        added: Option<UserId>,
        mut arena: Option<&mut rtim_stream::WordArena>,
    ) {
        self.elements += 1;
        self.counters.elements += 1;
        let single = self.singles.value(key, set, weights, added);
        if single > self.max_single {
            self.max_single = single;
            self.refresh_instances();
        }
        match &self.best_single {
            Some((_, v)) if *v >= single => {}
            _ => self.best_single = Some((key, single)),
        }
        if added.is_none() {
            // A full set need not extend the one last fed: every cached
            // bound of this key is void.
            for inst in self.instances.cells_mut() {
                inst.rejected.remove(&key);
            }
        }

        let k = self.config.k;
        let held = self.seed_of.held(key);
        // Updated influence set of an existing seed: refresh in place —
        // O(1) when the single-user delta is known.
        for &j in held {
            let slot = self.instances.slot(j);
            let inst = &mut self.instances.cells_mut()[slot];
            match (added, arena.as_deref_mut()) {
                (Some(a), Some(arena)) => {
                    inst.coverage.absorb_one_in(weights, a, arena);
                }
                (Some(a), None) => {
                    inst.coverage.absorb_one(weights, a);
                }
                (None, Some(arena)) => {
                    inst.coverage.absorb_in(weights, set, arena);
                }
                (None, None) => {
                    inst.coverage.absorb(weights, set);
                }
            }
            let threshold = inst.cached_threshold(k);
            self.thresholds[slot] = threshold;
            lower_floor(&mut self.open_floor, threshold);
        }

        let floor = match self.open_floor {
            Some(floor) => floor,
            None => {
                let floor = self
                    .thresholds
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                self.open_floor = Some(floor);
                floor
            }
        };
        if floor > single {
            // Every open instance's threshold exceeds the whole element.
            self.counters.loop_skips += 1;
            return;
        }

        // The lazy bound needs unit weights and a one-user delta.
        let size = (added.is_some() && weights.is_unit()).then(|| set.len() as i64);
        let mut admitted: Vec<i64> = Vec::new();
        for slot in 0..self.thresholds.len() {
            let threshold = self.thresholds[slot];
            if threshold > single {
                // Even the whole element is below the threshold (or the
                // instance is full): skip the (more expensive) marginal
                // computation.
                continue;
            }
            let j = self.instances.exponent(slot);
            let inst = &mut self.instances.cells_mut()[slot];
            if inst.seeds.len() >= k || held.contains(&j) {
                continue;
            }
            if let (Some(size), Some(&d)) = (size, inst.rejected.get(&key)) {
                if ((size + i64::from(d)) as f64) < threshold {
                    self.counters.bound_rejections += 1;
                    continue;
                }
            }
            self.counters.gain_passes += 1;
            let gain = if threshold <= 0.0 {
                inst.coverage.marginal_gain(weights, set)
            } else {
                inst.coverage
                    .marginal_gain_at_least(weights, set, threshold)
            };
            if gain >= threshold && gain > 0.0 {
                match arena.as_deref_mut() {
                    Some(arena) => {
                        inst.coverage.absorb_in(weights, set, arena);
                    }
                    None => {
                        inst.coverage.absorb(weights, set);
                    }
                }
                inst.seeds.push(key);
                admitted.push(j);
                self.counters.admissions += 1;
                self.thresholds[slot] = inst.cached_threshold(k);
                if inst.seeds.len() >= k {
                    inst.rejected = FxHashMap::default();
                    self.open_floor = None;
                } else {
                    inst.rejected.remove(&key);
                    lower_floor(&mut self.open_floor, self.thresholds[slot]);
                }
            } else if let Some(size) = size {
                // A rejected gain is exact (the early exit never fired).
                inst.rejected.insert(key, (gain as i64 - size) as i32);
            }
        }
        self.seed_of.admit(key, admitted);
    }
}

/// Lowers a live open-threshold floor to `threshold`, the new threshold of
/// an instance that changed; a stale floor is recomputed before its next use.
#[inline]
fn lower_floor(floor: &mut Option<f64>, threshold: f64) {
    if let Some(floor) = floor {
        *floor = floor.min(threshold);
    }
}

impl SsoOracle for SieveStreaming {
    fn process(&mut self, key: UserId, set: &InfluenceSet, weights: &DenseWeights) {
        self.process_inner(key, set, weights, None, None);
    }

    fn process_grow(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
    ) {
        self.process_inner(key, set, weights, Some(added), None);
    }

    fn process_in(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        arena: &mut rtim_stream::WordArena,
    ) {
        self.process_inner(key, set, weights, None, Some(arena));
    }

    fn process_grow_in(
        &mut self,
        key: UserId,
        added: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        arena: &mut rtim_stream::WordArena,
    ) {
        self.process_inner(key, set, weights, Some(added), Some(arena));
    }

    fn value(&self) -> f64 {
        self.best_value()
    }

    fn seeds(&self) -> Vec<UserId> {
        self.best_candidate().1
    }

    fn k(&self) -> usize {
        self.config.k
    }

    fn elements_processed(&self) -> u64 {
        self.elements
    }

    fn counters(&self) -> OracleCounters {
        self.counters
    }

    fn retained_facts(&self) -> usize {
        self.instances
            .cells()
            .iter()
            .map(|i| i.coverage.covered_count())
            .sum()
    }

    fn snapshot_state(&self) -> Option<crate::state::OracleState> {
        use crate::state::{CoverageSnapshot, InstanceState, OracleState, SieveState};
        Some(OracleState::Sieve(SieveState {
            max_single: self.max_single,
            best_single: self.best_single,
            frozen: self.frozen.clone(),
            instances: self
                .instances
                .iter()
                .map(|(exponent, inst)| InstanceState {
                    exponent,
                    parameter: inst.opt_guess,
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
    use crate::greedy::brute_force_best;
    use crate::weights::UnitWeight;
    use rtim_stream::InfluenceSets;

    const UNIT: DenseWeights<'static> = DenseWeights::Unit;

    fn set(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    #[test]
    fn admits_high_value_elements() {
        let mut s = SieveStreaming::new(OracleConfig::new(2, 0.1));
        s.process(UserId(1), &set(&[1, 2, 3]), &UNIT);
        s.process(UserId(2), &set(&[4, 5]), &UNIT);
        s.process(UserId(3), &set(&[1]), &UNIT); // dominated
        assert!(s.value() >= 4.0);
        assert!(s.seeds().len() <= 2);
        assert!(s.instance_count() > 0);
    }

    #[test]
    fn reprocessing_a_seed_grows_its_coverage() {
        let mut s = SieveStreaming::new(OracleConfig::new(1, 0.1));
        s.process(UserId(7), &set(&[1, 2]), &UNIT);
        let before = s.value();
        s.process(UserId(7), &set(&[1, 2, 3, 4]), &UNIT);
        assert!(s.value() >= before);
        assert!(s.value() >= 4.0);
        assert_eq!(s.seeds(), vec![UserId(7)]);
    }

    #[test]
    fn grow_delta_matches_full_reprocess() {
        let mut full = SieveStreaming::new(OracleConfig::new(2, 0.2));
        let mut delta = SieveStreaming::new(OracleConfig::new(2, 0.2));
        // u1's set grows one user at a time; u2 arrives in between.
        let grown: &[&[u32]] = &[&[1], &[1, 2], &[1, 2, 3], &[1, 2, 3, 4]];
        for (i, cover) in grown.iter().enumerate() {
            let s = set(cover);
            full.process(UserId(1), &s, &UNIT);
            if i == 0 {
                delta.process(UserId(1), &s, &UNIT);
            } else {
                delta.process_grow(UserId(1), UserId(cover[i]), &s, &UNIT);
            }
            if i == 1 {
                full.process(UserId(2), &set(&[9, 10]), &UNIT);
                delta.process(UserId(2), &set(&[9, 10]), &UNIT);
            }
            assert_eq!(full.value(), delta.value());
            assert_eq!(full.seeds(), delta.seeds());
        }
    }

    #[test]
    fn weighted_singles_are_maintained_incrementally() {
        let table = [0.0, 2.0, 3.0, 5.0, 7.0];
        let w = DenseWeights::Table(&table);
        let mut s = SieveStreaming::new(OracleConfig::new(1, 0.2));
        s.process(UserId(1), &set(&[1]), &w);
        s.process_grow(UserId(1), UserId(3), &set(&[1, 3]), &w);
        // Singleton value must be 2 + 5 = 7 exactly.
        assert_eq!(s.value(), 7.0);
        s.process_grow(UserId(1), UserId(4), &set(&[1, 3, 4]), &w);
        assert_eq!(s.value(), 14.0);
        assert_eq!(s.seeds(), vec![UserId(1)]);
    }

    #[test]
    fn value_is_monotone_over_the_stream() {
        let mut s = SieveStreaming::new(OracleConfig::new(3, 0.3));
        let mut last = 0.0;
        let elements: Vec<(u32, Vec<u32>)> = vec![
            (1, vec![1, 2]),
            (2, vec![3]),
            (3, vec![1, 4, 5]),
            (4, vec![6, 7, 8, 9]),
            (1, vec![1, 2, 10]),
            (5, vec![2]),
        ];
        for (u, cov) in elements {
            s.process(UserId(u), &cov.iter().map(|&c| UserId(c)).collect(), &UNIT);
            assert!(s.value() + 1e-9 >= last);
            last = s.value();
        }
    }

    #[test]
    fn approximation_ratio_on_figure1_instance() {
        // Influence sets at time 8 from the paper, k = 2, β = 0.3:
        // the paper's worked example (Figure 3) reports value 5 with {u1,u3}.
        let elems: Vec<(u32, Vec<u32>)> = vec![
            (1, vec![1, 2, 3]),
            (2, vec![2]),
            (3, vec![1, 3, 4, 5]),
            (4, vec![4]),
            (5, vec![4, 5]),
        ];
        let mut inf = InfluenceSets::new();
        for (u, cov) in &elems {
            for &v in cov {
                inf.insert(UserId(*u), UserId(v));
            }
        }
        let opt = brute_force_best(&inf, 2, &UnitWeight).value;
        assert_eq!(opt, 5.0);

        let mut s = SieveStreaming::new(OracleConfig::new(2, 0.3));
        for (u, cov) in &elems {
            s.process(UserId(*u), &cov.iter().map(|&c| UserId(c)).collect(), &UNIT);
        }
        assert!(s.value() >= (0.5 - 0.3) * opt);
        // On this easy instance SieveStreaming actually finds the optimum.
        assert_eq!(s.value(), 5.0);
    }

    #[test]
    fn instance_count_is_logarithmic_in_k() {
        let beta = 0.2;
        let mut s = SieveStreaming::new(OracleConfig::new(100, beta));
        for i in 0..200u32 {
            s.process(UserId(i), &set(&[i, i + 1000, i + 2000]), &UNIT);
        }
        let bound = ((2.0 * 100.0f64).ln() / (1.0 + beta).ln()).ceil() as usize + 2;
        assert!(
            s.instance_count() <= bound,
            "instances {} > bound {}",
            s.instance_count(),
            bound
        );
    }

    #[test]
    fn empty_oracle_reports_zero() {
        let s = SieveStreaming::new(OracleConfig::new(5, 0.1));
        assert_eq!(s.value(), 0.0);
        assert!(s.seeds().is_empty());
        assert_eq!(s.retained_facts(), 0);
    }
}

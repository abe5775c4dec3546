//! SieveStreaming against its reference model: the visit-every-instance
//! loop the oracle ran before the seed-of index, the open-threshold floor
//! and the lazy rejected-gain bound (see the `sieve` module docs).  Those
//! three only decide which instances an element visits, so after every
//! element the oracle's value must match the reference's bit for bit and
//! its seeds exactly — across unit and dense-table weights, grid refreshes,
//! instances filling, both feed paths, and a mid-stream snapshot restore.

use proptest::prelude::*;
use rtim_stream::{InfluenceSet, UserId, WordArena};
use rtim_submodular::{
    CoverageState, DenseWeights, ElementWeight, OracleConfig, SieveStreaming, SsoOracle,
};
use std::collections::{BTreeMap, HashMap};

/// One thresholding instance of the reference model.
struct RefInstance {
    opt_guess: f64,
    seeds: Vec<UserId>,
    coverage: CoverageState,
}

/// The visit-every-instance SieveStreaming loop: every element visits every
/// instance, probing seed membership, fullness and the threshold in turn.
struct ReferenceSieve {
    config: OracleConfig,
    max_single: f64,
    best_single: Option<(UserId, f64)>,
    frozen: Option<(Vec<UserId>, f64)>,
    instances: BTreeMap<i64, RefInstance>,
    singles: HashMap<UserId, f64>,
}

impl ReferenceSieve {
    fn new(config: OracleConfig) -> Self {
        ReferenceSieve {
            config,
            max_single: 0.0,
            best_single: None,
            frozen: None,
            instances: BTreeMap::new(),
            singles: HashMap::new(),
        }
    }

    fn single(
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
                let entry = self.singles.entry(key).or_insert(0.0);
                *entry += weights.weight(a);
                *entry
            }
            None => {
                let v = CoverageState::set_value(weights, set);
                self.singles.insert(key, v);
                v
            }
        }
    }

    fn refresh_instances(&mut self) {
        if self.max_single <= 0.0 {
            return;
        }
        let base = (1.0 + self.config.beta).ln();
        let lo = (self.max_single.ln() / base).ceil() as i64;
        let hi = ((2.0 * self.config.k as f64 * self.max_single).ln() / base).floor() as i64;
        let frozen_value = self.frozen.as_ref().map_or(0.0, |(_, v)| *v);
        let mut best_dropped: Option<(Vec<UserId>, f64)> = None;
        for (&j, inst) in &self.instances {
            if j >= lo {
                break;
            }
            let value = inst.coverage.value();
            if value > frozen_value && best_dropped.as_ref().is_none_or(|(_, v)| value > *v) {
                best_dropped = Some((inst.seeds.clone(), value));
            }
        }
        if best_dropped.is_some() {
            self.frozen = best_dropped;
        }
        self.instances.retain(|&j, _| j >= lo);
        for j in lo..=hi {
            self.instances.entry(j).or_insert_with(|| RefInstance {
                opt_guess: (1.0 + self.config.beta).powi(j as i32),
                seeds: Vec::new(),
                coverage: CoverageState::new(),
            });
        }
    }

    fn process(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        added: Option<UserId>,
    ) {
        let single = self.single(key, set, weights, added);
        if single > self.max_single {
            self.max_single = single;
            self.refresh_instances();
        }
        match &self.best_single {
            Some((_, v)) if *v >= single => {}
            _ => self.best_single = Some((key, single)),
        }
        let k = self.config.k;
        for inst in self.instances.values_mut() {
            if inst.seeds.contains(&key) {
                match added {
                    Some(a) => inst.coverage.absorb_one(weights, a),
                    None => inst.coverage.absorb(weights, set),
                };
                continue;
            }
            if inst.seeds.len() >= k {
                continue;
            }
            let remaining = (k - inst.seeds.len()) as f64;
            let threshold = (inst.opt_guess / 2.0 - inst.coverage.value()) / remaining;
            if threshold > single {
                continue;
            }
            let gain = if threshold <= 0.0 {
                inst.coverage.marginal_gain(weights, set)
            } else {
                inst.coverage
                    .marginal_gain_at_least(weights, set, threshold)
            };
            if gain >= threshold && gain > 0.0 {
                inst.coverage.absorb(weights, set);
                inst.seeds.push(key);
            }
        }
    }

    fn best_instance(&self) -> Option<&RefInstance> {
        self.instances
            .values()
            .max_by(|a, b| a.coverage.value().total_cmp(&b.coverage.value()))
    }

    fn value(&self) -> f64 {
        let mut best = self.best_single.map_or(0.0, |(_, v)| v);
        if let Some((_, v)) = &self.frozen {
            best = best.max(*v);
        }
        if let Some(inst) = self.best_instance() {
            best = best.max(inst.coverage.value());
        }
        best
    }

    fn seeds(&self) -> Vec<UserId> {
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
        best.1
    }
}

/// Users influenced by the stream; dense enough that sets past
/// `InfluenceSet::SMALL_MAX` ids promote to bitmaps.
const UNIVERSE: u32 = 320;

/// One element of a generated stream.
struct Step {
    key: UserId,
    /// `Some(user)`: the key's set grew by exactly `user` (`process_grow`);
    /// `None`: the whole grown set is fed (`process`).
    added: Option<UserId>,
    set: InfluenceSet,
    /// Route bitmap growth through a `WordArena` (the `_in` variants).
    arena: bool,
}

/// xorshift64*: the streams are derived from one proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A grow-only set-stream: mostly one-user growths of a few hot keys (the
/// shape a checkpoint feeds), with occasional full-set feeds that add
/// several users at once.  Sets only grow, as inside a checkpoint.
fn stream(seed: u64, len: usize, keys: u64) -> Vec<Step> {
    let mut rng = Rng(seed | 1);
    let mut sets: HashMap<u32, InfluenceSet> = HashMap::new();
    let mut steps = Vec::with_capacity(len);
    while steps.len() < len {
        // Skewed key choice: low keys are hot, so some sets grow large.
        let key = rng.below(keys).min(rng.below(keys)) as u32;
        let set = sets.entry(key).or_default();
        if set.len() as u32 >= UNIVERSE {
            continue;
        }
        let arena = rng.below(2) == 0;
        if rng.below(8) == 0 {
            for _ in 0..1 + rng.below(24) {
                if (set.len() as u32) < UNIVERSE {
                    set.insert(fresh(&mut rng, set));
                }
            }
            steps.push(Step {
                key: UserId(key),
                added: None,
                set: set.clone(),
                arena,
            });
        } else {
            let u = fresh(&mut rng, set);
            set.insert(u);
            steps.push(Step {
                key: UserId(key),
                added: Some(u),
                set: set.clone(),
                arena,
            });
        }
    }
    steps
}

/// A user of the universe not yet in `set`.
fn fresh(rng: &mut Rng, set: &InfluenceSet) -> UserId {
    loop {
        let u = UserId(rng.below(UNIVERSE as u64) as u32);
        if !set.contains(u) {
            return u;
        }
    }
}

fn feed(oracle: &mut dyn SsoOracle, step: &Step, weights: &DenseWeights, arena: &mut WordArena) {
    match (step.added, step.arena) {
        (Some(a), true) => oracle.process_grow_in(step.key, a, &step.set, weights, arena),
        (Some(a), false) => oracle.process_grow(step.key, a, &step.set, weights),
        (None, true) => oracle.process_in(step.key, &step.set, weights, arena),
        (None, false) => oracle.process(step.key, &step.set, weights),
    }
}

/// Dense weights over the universe, including zeros (zero-gain elements).
fn table(seed: u64) -> Vec<f64> {
    let mut rng = Rng(seed.rotate_left(17) | 1);
    let choices = [0.0, 0.25, 0.5, 1.0, 1.5, 3.0];
    (0..UNIVERSE)
        .map(|_| choices[rng.below(choices.len() as u64) as usize])
        .collect()
}

/// Runs `steps` through the oracle, the reference and (from `restore_at`)
/// a snapshot-restored copy, comparing all three after every element.
fn check_against_reference(
    config: OracleConfig,
    steps: &[Step],
    weights: &DenseWeights,
    restore_at: usize,
) -> Result<SieveStreaming, TestCaseError> {
    let mut reference = ReferenceSieve::new(config);
    let mut sieve = SieveStreaming::new(config);
    let mut restored: Option<Box<dyn SsoOracle>> = None;
    let mut arena = WordArena::new();
    for (i, step) in steps.iter().enumerate() {
        if i == restore_at {
            let state = sieve.snapshot_state().expect("sieve snapshots");
            restored = Some(state.restore(config));
        }
        reference.process(step.key, &step.set, weights, step.added);
        feed(&mut sieve, step, weights, &mut arena);
        prop_assert_eq!(
            sieve.value().to_bits(),
            reference.value().to_bits(),
            "value diverged at element {} (k={}, beta={})",
            i,
            config.k,
            config.beta
        );
        prop_assert_eq!(
            sieve.seeds(),
            reference.seeds(),
            "seeds diverged at element {}",
            i
        );
        if let Some(r) = restored.as_mut() {
            feed(r.as_mut(), step, weights, &mut arena);
            prop_assert_eq!(
                r.value().to_bits(),
                reference.value().to_bits(),
                "restored value diverged at element {}",
                i
            );
            prop_assert_eq!(
                r.seeds(),
                reference.seeds(),
                "restored seeds diverged at {}",
                i
            );
        }
    }
    Ok(sieve)
}

const BETAS: [f64; 4] = [0.05, 0.1, 0.2, 0.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cardinality objective: every lever is live on the grow path.
    #[test]
    fn unit_weights_match_the_visit_every_instance_loop(
        seed in 0u64..u64::MAX,
        k in 1usize..9,
        beta in 0usize..4,
        len in 60usize..500,
        keys in 4u64..40,
        restore in 0usize..500,
    ) {
        let config = OracleConfig::new(k, BETAS[beta]);
        let steps = stream(seed, len, keys);
        let sieve = check_against_reference(config, &steps, &DenseWeights::Unit, restore % len)?;
        let c = sieve.counters();
        prop_assert_eq!(c.elements, len as u64);
        prop_assert!(c.admissions <= c.gain_passes);
    }

    /// Dense-table weights: no lazy bound, every admission test takes the
    /// full pass, and the index and floor must still agree.
    #[test]
    fn table_weights_match_the_visit_every_instance_loop(
        seed in 0u64..u64::MAX,
        k in 1usize..9,
        beta in 0usize..4,
        len in 60usize..400,
        keys in 4u64..40,
        restore in 0usize..400,
    ) {
        let config = OracleConfig::new(k, BETAS[beta]);
        let steps = stream(seed, len, keys);
        let weights = table(seed);
        let sieve = check_against_reference(
            config,
            &steps,
            &DenseWeights::Table(&weights),
            restore % len,
        )?;
        prop_assert_eq!(sieve.counters().bound_rejections, 0);
    }
}

/// The streams above do exercise every lever: a checkpoint-shaped stream
/// skips whole loops, rejects on cached bounds and fills instances, so a
/// mutation of any lever has something to break.
#[test]
fn every_lever_fires_on_a_grow_stream() {
    let config = OracleConfig::new(4, 0.1);
    let steps = stream(7, 2_000, 30);
    let sieve = check_against_reference(config, &steps, &DenseWeights::Unit, 1_000)
        .unwrap_or_else(|e| panic!("{e:?}"));
    let c = sieve.counters();
    assert!(c.loop_skips > 0, "no whole-loop skip: {c:?}");
    assert!(c.bound_rejections > 0, "no bound rejection: {c:?}");
    assert!(c.admissions >= config.k as u64, "no instance filled: {c:?}");
    assert!(c.gain_passes >= c.admissions, "{c:?}");
}

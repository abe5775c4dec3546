//! ThresholdStream against its reference model: the visit-every-instance
//! loop it ran before the seed-of index and the flat grid (see the
//! `threshold_stream` module docs).  The index only decides which
//! instances an element visits, so after every element the oracle's value
//! must match the reference's bit for bit and its seeds exactly — across
//! unit and dense-table weights, grid refreshes, instances filling, both
//! feed paths, and a mid-stream snapshot restore.

use proptest::prelude::*;
use rtim_stream::{InfluenceSet, UserId};
use rtim_submodular::{
    CoverageState, DenseWeights, ElementWeight, OracleConfig, SsoOracle, ThresholdStream,
};
use std::collections::{BTreeMap, HashMap};

/// One instance of the reference model.
struct RefInstance {
    threshold: f64,
    seeds: Vec<UserId>,
    coverage: CoverageState,
}

/// The visit-every-instance ThresholdStream loop: every element visits
/// every instance, probing seed membership, fullness and the threshold in
/// turn.
struct ReferenceThreshold {
    config: OracleConfig,
    max_single: f64,
    best_single: Option<(UserId, f64)>,
    instances: BTreeMap<i64, RefInstance>,
    singles: HashMap<UserId, f64>,
}

impl ReferenceThreshold {
    fn new(config: OracleConfig) -> Self {
        ReferenceThreshold {
            config,
            max_single: 0.0,
            best_single: None,
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

    fn process(
        &mut self,
        key: UserId,
        set: &InfluenceSet,
        weights: &DenseWeights,
        added: Option<UserId>,
    ) {
        let single = self.single(key, set, weights, added);
        let k = self.config.k;
        if single > self.max_single {
            self.max_single = single;
            let base = (1.0 + self.config.beta).ln();
            let lo = (self.max_single.ln() / base).ceil() as i64;
            let hi = ((2.0 * k as f64 * self.max_single).ln() / base).floor() as i64;
            self.instances.retain(|&j, _| j >= lo);
            for j in lo..=hi {
                let guess = (1.0 + self.config.beta).powi(j as i32);
                self.instances.entry(j).or_insert_with(|| RefInstance {
                    threshold: guess / (2.0 * k as f64),
                    seeds: Vec::new(),
                    coverage: CoverageState::new(),
                });
            }
        }
        match &self.best_single {
            Some((_, v)) if *v >= single => {}
            _ => self.best_single = Some((key, single)),
        }
        for inst in self.instances.values_mut() {
            if inst.seeds.contains(&key) {
                match added {
                    Some(a) => inst.coverage.absorb_one(weights, a),
                    None => inst.coverage.absorb(weights, set),
                };
                continue;
            }
            if inst.seeds.len() >= k || inst.threshold > single {
                continue;
            }
            let gain = inst
                .coverage
                .marginal_gain_at_least(weights, set, inst.threshold);
            if gain >= inst.threshold && gain > 0.0 {
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
        let best_inst = self.best_instance().map_or(0.0, |i| i.coverage.value());
        best_inst.max(self.best_single.map_or(0.0, |(_, v)| v))
    }

    fn seeds(&self) -> Vec<UserId> {
        let best_single = self.best_single.map_or(0.0, |(_, v)| v);
        match self.best_instance() {
            Some(inst) if inst.coverage.value() >= best_single => inst.seeds.clone(),
            _ => self.best_single.iter().map(|(u, _)| *u).collect(),
        }
    }
}

/// Users influenced by the stream; dense enough that large sets promote
/// to bitmaps.
const UNIVERSE: u32 = 320;

/// xorshift64*: the streams are derived from one proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// A grow-only set-stream of `(key, added, set)`: mostly one-user growths
/// of a few hot keys (`added` is the new user, fed with `process_grow`),
/// with occasional full-set feeds that add several users at once (`added`
/// is `None`, fed with `process`).
fn stream(seed: u64, len: usize, keys: u64) -> Vec<(UserId, Option<UserId>, InfluenceSet)> {
    let mut rng = Rng(seed | 1);
    let mut sets: HashMap<u32, InfluenceSet> = HashMap::new();
    let mut steps = Vec::with_capacity(len);
    while steps.len() < len {
        let key = rng.below(keys).min(rng.below(keys)) as u32;
        let set = sets.entry(key).or_default();
        let grow = if rng.below(8) == 0 {
            1 + rng.below(24)
        } else {
            1
        };
        let mut added = None;
        for _ in 0..grow {
            let u = UserId(rng.below(UNIVERSE as u64) as u32);
            if set.insert(u) {
                added = Some(u);
            }
        }
        let Some(u) = added else { continue };
        let delta = (grow == 1).then_some(u);
        steps.push((UserId(key), delta, set.clone()));
    }
    steps
}

fn feed(
    oracle: &mut dyn SsoOracle,
    (key, added, set): &(UserId, Option<UserId>, InfluenceSet),
    weights: &DenseWeights,
) {
    match added {
        Some(a) => oracle.process_grow(*key, *a, set, weights),
        None => oracle.process(*key, set, weights),
    }
}

/// Runs the stream through the oracle, the reference and (from
/// `restore_at`) a snapshot-restored copy, comparing all three after every
/// element.
fn check_against_reference(
    config: OracleConfig,
    seed: u64,
    len: usize,
    keys: u64,
    weights: &DenseWeights,
    restore_at: usize,
) -> Result<(), TestCaseError> {
    let mut reference = ReferenceThreshold::new(config);
    let mut oracle = ThresholdStream::new(config);
    let mut restored: Option<Box<dyn SsoOracle>> = None;
    for (i, step) in stream(seed, len, keys).iter().enumerate() {
        if i == restore_at {
            let state = oracle.snapshot_state().expect("threshold stream snapshots");
            restored = Some(state.restore(config));
        }
        reference.process(step.0, &step.2, weights, step.1);
        feed(&mut oracle, step, weights);
        let want = (reference.value().to_bits(), reference.seeds());
        prop_assert_eq!(
            (oracle.value().to_bits(), oracle.seeds()),
            want.clone(),
            "diverged at element {} (k={}, beta={})",
            i,
            config.k,
            config.beta
        );
        if let Some(r) = restored.as_mut() {
            feed(r.as_mut(), step, weights);
            prop_assert_eq!(
                (r.value().to_bits(), r.seeds()),
                want,
                "restored diverged at {}",
                i
            );
        }
    }
    Ok(())
}

const BETAS: [f64; 4] = [0.05, 0.1, 0.2, 0.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_weights_match_the_visit_every_instance_loop(
        seed in 0u64..u64::MAX,
        k in 1usize..9,
        beta in 0usize..4,
        len in 60usize..400,
        keys in 4u64..40,
        restore in 0usize..400,
    ) {
        let config = OracleConfig::new(k, BETAS[beta]);
        check_against_reference(config, seed, len, keys, &DenseWeights::Unit, restore % len)?;
    }

    #[test]
    fn table_weights_match_the_visit_every_instance_loop(
        seed in 0u64..u64::MAX,
        k in 1usize..9,
        beta in 0usize..4,
        len in 60usize..300,
        keys in 4u64..40,
        restore in 0usize..300,
    ) {
        let config = OracleConfig::new(k, BETAS[beta]);
        let mut rng = Rng(seed.rotate_left(17) | 1);
        let choices = [0.0, 0.25, 0.5, 1.0, 1.5, 3.0];
        let table: Vec<f64> = (0..UNIVERSE)
            .map(|_| choices[rng.below(choices.len() as u64) as usize])
            .collect();
        check_against_reference(
            config,
            seed,
            len,
            keys,
            &DenseWeights::Table(&table),
            restore % len,
        )?;
    }
}

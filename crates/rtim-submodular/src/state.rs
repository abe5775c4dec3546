//! Durable snapshots of the streaming oracles.
//!
//! A checkpoint's oracle is the deepest state in the engine: guess-grid
//! instances with their coverage bitmaps, incrementally accumulated float
//! values, frozen fallback solutions.  [`OracleState`] is the serializable
//! form of any [`SsoOracle`](crate::SsoOracle) shipped by this crate,
//! extracted with [`SsoOracle::snapshot_state`](crate::SsoOracle::snapshot_state)
//! and rebuilt with [`OracleState::restore`].
//!
//! Two properties matter more than compactness:
//!
//! * **Bit-exact floats.**  Cached values (`max_single`, coverage values,
//!   the swap oracle's `cached_value`) were accumulated incrementally in
//!   arrival order; recomputing them from the restored sets could differ in
//!   the last ulp and break the restored-equals-uninterrupted guarantee.
//!   They are persisted as IEEE-754 bit patterns instead.
//! * **Typed, panic-free decoding.**  The byte layer is
//!   [`rtim_stream::persist::state`]: every length is validated against the
//!   input before allocation, every violation is a [`StateError`].
//!
//! Derived state is *not* persisted: the swap oracle's covered-item
//! multiset is recomputed from the held sets on restore, so the two can
//! never disagree.

use crate::coverage::CoverageState;
use crate::oracle::{OracleConfig, SsoOracle};
use crate::sieve::SieveStreaming;
use crate::swap::SwapStreaming;
use crate::threshold_stream::ThresholdStream;
use rtim_stream::persist::state::{
    decode_influence_set, encode_influence_set, ByteReader, StateError,
};
use rtim_stream::{InfluenceSet, UserId};

/// Serialized form of a coverage state: the union bitmap plus the cached
/// (incrementally accumulated) objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSnapshot {
    /// The union bitmap (bit `i` ⇔ dense user `i` covered).
    pub words: Vec<u64>,
    /// The cached objective value `f(I(S))`, preserved bit-exactly.
    pub value: f64,
}

impl CoverageSnapshot {
    /// Captures a coverage state.
    pub fn of(coverage: &CoverageState) -> Self {
        CoverageSnapshot {
            words: coverage.words().to_vec(),
            value: coverage.value(),
        }
    }

    /// Rebuilds the coverage state (the covered count is recomputed by
    /// popcount; the value is restored verbatim).
    pub fn restore(self) -> CoverageState {
        CoverageState::from_snapshot(self.words, self.value)
    }
}

/// One persisted guess-grid instance (SieveStreaming / ThresholdStream).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceState {
    /// Exponent `j` of the guess `(1+β)^j` (the grid key).
    pub exponent: i64,
    /// The instance parameter: SieveStreaming's guess `v`, or
    /// ThresholdStream's fixed admission threshold `v / 2k` — whichever the
    /// owning oracle derived from the guess, preserved bit-exactly.
    pub parameter: f64,
    /// Selected seeds in admission order.
    pub seeds: Vec<UserId>,
    /// The instance's union coverage.
    pub coverage: CoverageSnapshot,
}

/// Serialized [`SieveStreaming`] state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SieveState {
    /// Largest single-element value `m` observed so far.
    pub max_single: f64,
    /// Best single element (fallback solution).
    pub best_single: Option<(UserId, f64)>,
    /// Best solution frozen from instances discarded by grid refreshes —
    /// the monotonicity fallback the SIC analysis relies on.
    pub frozen: Option<(Vec<UserId>, f64)>,
    /// Live instances, by consecutive ascending exponents.
    pub instances: Vec<InstanceState>,
    /// Incrementally maintained singleton values, ascending by user
    /// (empty under the cardinality objective).
    pub singles: Vec<(UserId, f64)>,
    /// Elements processed (instrumentation).
    pub elements: u64,
}

/// Serialized [`ThresholdStream`] state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThresholdState {
    /// Largest single-element value `m` observed so far.
    pub max_single: f64,
    /// Best single element (fallback solution).
    pub best_single: Option<(UserId, f64)>,
    /// Live instances, by consecutive ascending exponents.
    pub instances: Vec<InstanceState>,
    /// Incrementally maintained singleton values, ascending by user.
    pub singles: Vec<(UserId, f64)>,
    /// Elements processed (instrumentation).
    pub elements: u64,
}

/// Serialized [`SwapStreaming`] state.
///
/// The covered-item multiset is deliberately absent: it is derivable from
/// `held` and recomputed on restore.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwapState {
    /// Held seeds with their stored influence sets, ascending by user.
    pub held: Vec<(UserId, InfluenceSet)>,
    /// The cached union value, preserved bit-exactly.
    pub cached_value: f64,
    /// Elements processed (instrumentation).
    pub elements: u64,
}

/// Serializable state of any oracle shipped by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleState {
    /// A [`SieveStreaming`] oracle.
    Sieve(SieveState),
    /// A [`ThresholdStream`] oracle.
    Threshold(ThresholdState),
    /// A [`SwapStreaming`] oracle.
    Swap(SwapState),
}

/// Wire tags of the [`OracleState`] variants.
const TAG_SIEVE: u8 = 0;
const TAG_THRESHOLD: u8 = 1;
const TAG_SWAP: u8 = 2;

impl OracleState {
    /// Rebuilds a live oracle from this state under the given configuration
    /// (the same `k`/`β` the snapshotted oracle ran with — the checkpoint
    /// layer passes the engine's [`OracleConfig`] through).
    pub fn restore(self, config: OracleConfig) -> Box<dyn SsoOracle> {
        match self {
            OracleState::Sieve(s) => Box::new(SieveStreaming::from_state(config, s)),
            OracleState::Threshold(s) => Box::new(ThresholdStream::from_state(config, s)),
            OracleState::Swap(s) => Box::new(SwapStreaming::from_state(config, s)),
        }
    }

    /// Appends the binary encoding of this state to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OracleState::Sieve(s) => {
                out.push(TAG_SIEVE);
                put_f64(out, s.max_single);
                put_opt_single(out, &s.best_single);
                match &s.frozen {
                    None => out.push(0),
                    Some((seeds, value)) => {
                        out.push(1);
                        put_users(out, seeds);
                        put_f64(out, *value);
                    }
                }
                put_instances(out, &s.instances);
                put_singles(out, &s.singles);
                put_u64(out, s.elements);
            }
            OracleState::Threshold(s) => {
                out.push(TAG_THRESHOLD);
                put_f64(out, s.max_single);
                put_opt_single(out, &s.best_single);
                put_instances(out, &s.instances);
                put_singles(out, &s.singles);
                put_u64(out, s.elements);
            }
            OracleState::Swap(s) => {
                out.push(TAG_SWAP);
                put_u32(out, s.held.len() as u32);
                for (user, set) in &s.held {
                    put_u32(out, user.0);
                    encode_influence_set(set, out);
                }
                put_f64(out, s.cached_value);
                put_u64(out, s.elements);
            }
        }
    }

    /// Decodes one oracle state.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<OracleState, StateError> {
        match r.u8()? {
            TAG_SIEVE => {
                let max_single = r.f64()?;
                let best_single = read_opt_single(r)?;
                let frozen = match r.u8()? {
                    0 => None,
                    1 => {
                        let seeds = read_users(r)?;
                        let value = r.f64()?;
                        Some((seeds, value))
                    }
                    other => {
                        return Err(StateError::Corrupt(format!(
                            "bad frozen-solution flag {other}"
                        )))
                    }
                };
                let instances = read_instances(r)?;
                let singles = read_singles(r)?;
                let elements = r.u64()?;
                Ok(OracleState::Sieve(SieveState {
                    max_single,
                    best_single,
                    frozen,
                    instances,
                    singles,
                    elements,
                }))
            }
            TAG_THRESHOLD => {
                let max_single = r.f64()?;
                let best_single = read_opt_single(r)?;
                let instances = read_instances(r)?;
                let singles = read_singles(r)?;
                let elements = r.u64()?;
                Ok(OracleState::Threshold(ThresholdState {
                    max_single,
                    best_single,
                    instances,
                    singles,
                    elements,
                }))
            }
            TAG_SWAP => {
                let declared = r.u32()? as u64;
                // A held entry costs at least 4 (user) + 5 (empty set) bytes.
                let count = r.array_len(declared, 9)?;
                let mut held = Vec::with_capacity(count);
                let mut last: Option<UserId> = None;
                for _ in 0..count {
                    let user = r.user()?;
                    if let Some(prev) = last {
                        if user <= prev {
                            return Err(StateError::Corrupt(format!(
                                "held seeds must be strictly ascending: {user} after {prev}"
                            )));
                        }
                    }
                    last = Some(user);
                    held.push((user, decode_influence_set(r)?));
                }
                let cached_value = r.f64()?;
                let elements = r.u64()?;
                Ok(OracleState::Swap(SwapState {
                    held,
                    cached_value,
                    elements,
                }))
            }
            other => Err(StateError::Corrupt(format!(
                "unknown oracle-state tag {other}"
            ))),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_users(out: &mut Vec<u8>, users: &[UserId]) {
    put_u32(out, users.len() as u32);
    for u in users {
        put_u32(out, u.0);
    }
}

fn put_opt_single(out: &mut Vec<u8>, single: &Option<(UserId, f64)>) {
    match single {
        None => out.push(0),
        Some((u, v)) => {
            out.push(1);
            put_u32(out, u.0);
            put_f64(out, *v);
        }
    }
}

fn put_instances(out: &mut Vec<u8>, instances: &[InstanceState]) {
    put_u32(out, instances.len() as u32);
    for inst in instances {
        put_u64(out, inst.exponent as u64);
        put_f64(out, inst.parameter);
        put_users(out, &inst.seeds);
        put_u32(out, inst.coverage.words.len() as u32);
        for w in &inst.coverage.words {
            put_u64(out, *w);
        }
        put_f64(out, inst.coverage.value);
    }
}

fn put_singles(out: &mut Vec<u8>, singles: &[(UserId, f64)]) {
    put_u32(out, singles.len() as u32);
    for (u, v) in singles {
        put_u32(out, u.0);
        put_f64(out, *v);
    }
}

fn read_users(r: &mut ByteReader<'_>) -> Result<Vec<UserId>, StateError> {
    let declared = r.u32()? as u64;
    let count = r.array_len(declared, 4)?;
    let mut users = Vec::with_capacity(count);
    for _ in 0..count {
        users.push(r.user()?);
    }
    Ok(users)
}

fn read_opt_single(r: &mut ByteReader<'_>) -> Result<Option<(UserId, f64)>, StateError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let u = r.user()?;
            let v = r.f64()?;
            Ok(Some((u, v)))
        }
        other => Err(StateError::Corrupt(format!("bad best-single flag {other}"))),
    }
}

fn read_instances(r: &mut ByteReader<'_>) -> Result<Vec<InstanceState>, StateError> {
    let declared = r.u32()? as u64;
    // An instance costs at least 8 + 8 + 4 + 4 + 8 bytes.
    let count = r.array_len(declared, 32)?;
    let mut instances = Vec::with_capacity(count);
    let mut last: Option<i64> = None;
    for _ in 0..count {
        let exponent = r.i64()?;
        // The oracles keep their instances in a flat grid over one
        // contiguous exponent range (see `crate::grid`).
        if let Some(prev) = last {
            if prev.checked_add(1) != Some(exponent) {
                return Err(StateError::Corrupt(format!(
                    "instance exponents must be consecutive: {exponent} after {prev}"
                )));
            }
        }
        last = Some(exponent);
        let parameter = r.f64()?;
        let seeds = read_users(r)?;
        let word_declared = r.u32()? as u64;
        let word_count = r.array_len(word_declared, 8)?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        let value = r.f64()?;
        instances.push(InstanceState {
            exponent,
            parameter,
            seeds,
            coverage: CoverageSnapshot { words, value },
        });
    }
    Ok(instances)
}

fn read_singles(r: &mut ByteReader<'_>) -> Result<Vec<(UserId, f64)>, StateError> {
    let declared = r.u32()? as u64;
    let count = r.array_len(declared, 12)?;
    let mut singles = Vec::with_capacity(count);
    let mut last: Option<UserId> = None;
    for _ in 0..count {
        let u = r.user()?;
        if let Some(prev) = last {
            if u <= prev {
                return Err(StateError::Corrupt(format!(
                    "singleton entries must be strictly ascending: {u} after {prev}"
                )));
            }
        }
        last = Some(u);
        singles.push((u, r.f64()?));
    }
    Ok(singles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::DenseWeights;
    use crate::OracleKind;

    const UNIT: DenseWeights<'static> = DenseWeights::Unit;

    fn set(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    /// Feeds a stream that exercises grid refreshes, frozen fallbacks, seed
    /// growth and swaps, then snapshots, round-trips the bytes and verifies
    /// the restored oracle answers and keeps evolving bit-identically.
    #[test]
    fn every_oracle_kind_round_trips_and_keeps_evolving_identically() {
        let config = OracleConfig::new(2, 0.25);
        let stream: Vec<(u32, Vec<u32>)> = vec![
            (1, vec![1]),
            (2, vec![2, 3]),
            (1, vec![1, 4]),
            (3, vec![5, 6, 7, 8]),
            (4, vec![1, 2]),
            (1, vec![1, 4, 9]),
            (5, vec![10, 11, 12, 13, 14, 15]),
        ];
        let tail: Vec<(u32, Vec<u32>)> = vec![
            (6, vec![16, 17]),
            (3, vec![5, 6, 7, 8, 18]),
            (7, vec![1, 19, 20, 21, 22, 23, 24]),
        ];
        for kind in OracleKind::all() {
            let mut original = kind.build(config);
            for (u, cover) in &stream {
                original.process(UserId(*u), &set(cover), &UNIT);
            }
            let state = original
                .snapshot_state()
                .expect("built-in oracles snapshot");
            let mut bytes = Vec::new();
            state.encode(&mut bytes);
            let mut r = ByteReader::new(&bytes);
            let decoded = OracleState::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(decoded, state, "{}", kind.name());
            let mut restored = decoded.restore(config);
            assert_eq!(restored.value().to_bits(), original.value().to_bits());
            assert_eq!(restored.seeds(), original.seeds());
            assert_eq!(restored.elements_processed(), original.elements_processed());
            assert_eq!(restored.retained_facts(), original.retained_facts());
            // The restored oracle must keep evolving identically.
            for (u, cover) in &tail {
                original.process(UserId(*u), &set(cover), &UNIT);
                restored.process(UserId(*u), &set(cover), &UNIT);
                assert_eq!(
                    restored.value().to_bits(),
                    original.value().to_bits(),
                    "{} diverged after restore",
                    kind.name()
                );
                assert_eq!(restored.seeds(), original.seeds());
            }
        }
    }

    #[test]
    fn weighted_singles_survive_a_round_trip() {
        let table = [0.0, 2.0, 3.0, 5.0, 7.0];
        let w = DenseWeights::Table(&table);
        let config = OracleConfig::new(1, 0.2);
        let mut original = SieveStreaming::new(config);
        original.process(UserId(1), &set(&[1]), &w);
        original.process_grow(UserId(1), UserId(3), &set(&[1, 3]), &w);
        let state = original.snapshot_state().unwrap();
        let mut bytes = Vec::new();
        state.encode(&mut bytes);
        let mut r = ByteReader::new(&bytes);
        let mut restored = OracleState::decode(&mut r).unwrap().restore(config);
        assert_eq!(restored.value(), 7.0);
        // The incrementally maintained singleton cache came along: the next
        // delta advances by exactly w(4).
        restored.process_grow(UserId(1), UserId(4), &set(&[1, 3, 4]), &w);
        original.process_grow(UserId(1), UserId(4), &set(&[1, 3, 4]), &w);
        assert_eq!(restored.value().to_bits(), original.value().to_bits());
        assert_eq!(restored.value(), 14.0);
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        // Unknown tag.
        assert!(matches!(
            OracleState::decode(&mut ByteReader::new(&[9])),
            Err(StateError::Corrupt(_))
        ));
        // Truncation anywhere inside a real encoding is a typed error.
        let mut oracle = SieveStreaming::new(OracleConfig::new(2, 0.2));
        for i in 0..20u32 {
            oracle.process(UserId(i % 5), &set(&[i, i + 1]), &UNIT);
        }
        let mut bytes = Vec::new();
        oracle.snapshot_state().unwrap().encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let result = OracleState::decode(&mut r);
            assert!(result.is_err(), "cut {cut} decoded");
        }
    }

    /// A grid state whose exponents skip one is rejected at decode (the
    /// flat grid would misplace its instances); the consecutive one next
    /// to it decodes and restores.
    #[test]
    fn decode_rejects_non_consecutive_exponents() {
        let instance = |exponent| InstanceState {
            exponent,
            parameter: 1.0,
            seeds: vec![UserId(1)],
            coverage: CoverageSnapshot {
                words: vec![0b10],
                value: 1.0,
            },
        };
        let config = OracleConfig::new(2, 0.2);
        for exponents in [[3, 5], [3, 3], [i64::MAX, i64::MIN], [3, 4]] {
            let instances: Vec<InstanceState> = exponents.iter().map(|&j| instance(j)).collect();
            let states = [
                OracleState::Sieve(SieveState {
                    max_single: 1.0,
                    best_single: Some((UserId(1), 1.0)),
                    frozen: None,
                    instances: instances.clone(),
                    singles: Vec::new(),
                    elements: 1,
                }),
                OracleState::Threshold(ThresholdState {
                    max_single: 1.0,
                    best_single: Some((UserId(1), 1.0)),
                    instances,
                    singles: Vec::new(),
                    elements: 1,
                }),
            ];
            for state in states {
                let mut bytes = Vec::new();
                state.encode(&mut bytes);
                let decoded = OracleState::decode(&mut ByteReader::new(&bytes));
                if exponents == [3, 4] {
                    let restored = decoded.expect("consecutive grid decodes").restore(config);
                    assert_eq!(restored.value(), 1.0);
                    assert_eq!(restored.seeds(), vec![UserId(1)]);
                } else {
                    assert!(
                        matches!(decoded, Err(StateError::Corrupt(_))),
                        "{exponents:?} decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_rejects_unsorted_entries() {
        // A swap state with descending held users.
        let mut bytes = vec![TAG_SWAP];
        put_u32(&mut bytes, 2);
        put_u32(&mut bytes, 5);
        encode_influence_set(&set(&[1]), &mut bytes);
        put_u32(&mut bytes, 3);
        encode_influence_set(&set(&[2]), &mut bytes);
        put_f64(&mut bytes, 2.0);
        put_u64(&mut bytes, 2);
        assert!(matches!(
            OracleState::decode(&mut ByteReader::new(&bytes)),
            Err(StateError::Corrupt(_))
        ));
    }
}

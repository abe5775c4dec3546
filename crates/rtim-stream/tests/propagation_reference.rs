//! The flat, id-ordered [`PropagationIndex`] against a reference model: the
//! hash-map index it replaced, one `FxHashMap` entry owning a boxed
//! ancestor list per action.
//!
//! Random sequences mix increasing ids with gaps, replies to earlier,
//! unknown and pruned parents, duplicate and out-of-order ids, retention
//! horizons, ancestor caps and decode → encode round trips.  After every
//! insert both indexes must agree on the returned users, every lookup,
//! `retained`, `stats` and the encoded `PIDX` bytes.

use fxhash::FxHashMap;
use proptest::prelude::*;
use rtim_stream::persist::state::{decode_propagation_index, encode_propagation_index, ByteReader};
use rtim_stream::{Action, ActionId, PropagationIndex, PropagationStats, UserId};

/// One record of the reference model.
struct Record {
    user: UserId,
    ancestor_users: Box<[UserId]>,
    depth: u32,
}

/// The hash-map propagation index: the last insert of an id wins, and the
/// horizon prune sweeps the whole map.
struct MapIndex {
    records: FxHashMap<u64, Record>,
    horizon: Option<u64>,
    oldest_retained: u64,
    latest: u64,
    stats: PropagationStats,
    max_ancestors: usize,
}

impl MapIndex {
    fn new(horizon: Option<u64>, max_ancestors: usize) -> Self {
        MapIndex {
            records: FxHashMap::default(),
            horizon: horizon.map(|h| h.max(1)),
            oldest_retained: 0,
            latest: 0,
            stats: PropagationStats::default(),
            max_ancestors,
        }
    }

    fn insert(&mut self, action: &Action) -> Vec<UserId> {
        self.latest = self.latest.max(action.id.0);
        let (ancestor_users, depth) = match action.parent {
            None => {
                self.stats.roots += 1;
                (Vec::new(), 0)
            }
            Some(parent_id) => {
                self.stats.total_response_distance += action.id.0.saturating_sub(parent_id.0);
                match self.records.get(&parent_id.0) {
                    Some(parent) => {
                        self.stats.resolved_replies += 1;
                        let mut anc = Vec::with_capacity(parent.ancestor_users.len() + 1);
                        anc.push(parent.user);
                        for &u in parent.ancestor_users.iter() {
                            if !anc.contains(&u) {
                                anc.push(u);
                            }
                        }
                        if self.max_ancestors > 0 && anc.len() > self.max_ancestors {
                            anc.truncate(self.max_ancestors);
                        }
                        (anc, parent.depth + 1)
                    }
                    None => {
                        self.stats.unresolved_replies += 1;
                        (Vec::new(), 0)
                    }
                }
            }
        };
        self.stats.actions += 1;
        self.stats.total_depth += depth as u64;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let mut updated = vec![action.user];
        updated.extend(ancestor_users.iter().copied().filter(|&u| u != action.user));
        self.records.insert(
            action.id.0,
            Record {
                user: action.user,
                ancestor_users: ancestor_users.into_boxed_slice(),
                depth,
            },
        );
        if let Some(h) = self.horizon {
            let cutoff = self.latest.saturating_sub(h);
            if cutoff > self.oldest_retained
                && self.latest.saturating_sub(self.oldest_retained) >= 2 * h
            {
                self.records.retain(|&id, _| id >= cutoff);
                self.oldest_retained = cutoff;
            }
        }
        updated
    }

    /// The `PIDX` bytes: counters, stats, then the records sorted by id.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let s = &self.stats;
        for v in [
            self.horizon.unwrap_or(0),
            self.oldest_retained,
            self.latest,
            self.max_ancestors as u64,
            s.actions,
            s.roots,
            s.total_depth,
            s.max_depth as u64,
            s.total_response_distance,
            s.resolved_replies,
            s.unresolved_replies,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut ids: Vec<u64> = self.records.keys().copied().collect();
        ids.sort_unstable();
        out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            let rec = &self.records[&id];
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&rec.user.0.to_le_bytes());
            out.extend_from_slice(&rec.depth.to_le_bytes());
            out.extend_from_slice(&(rec.ancestor_users.len() as u32).to_le_bytes());
            for u in rec.ancestor_users.iter() {
                out.extend_from_slice(&u.0.to_le_bytes());
            }
        }
        out
    }
}

fn encode(index: &PropagationIndex) -> Vec<u8> {
    let mut out = Vec::new();
    encode_propagation_index(index, &mut out);
    out
}

/// Turns one generated step into an action: `kind` picks the id (next with
/// an optional gap, a repeat of an earlier id, or an arbitrary smaller
/// one), `pick` the parent (none, recent, any earlier id, or an id in a
/// gap or beyond the newest), `None` for a decode → encode round trip.
fn next_action(
    (kind, a, pick, user): (u32, u32, u32, u32),
    max_id: &mut u64,
    used: &mut Vec<u64>,
) -> Option<Action> {
    let id = match kind % 10 {
        0..=5 => *max_id + 1 + if a % 3 == 0 { u64::from(a % 6) } else { 0 },
        6 if !used.is_empty() => used[a as usize % used.len()],
        7 => 1 + u64::from(a) % (*max_id + 1),
        8 => return None,
        _ => *max_id + 1,
    };
    *max_id = (*max_id).max(id);
    used.push(id);
    let user = UserId(user % 12);
    let parent = match pick % 5 {
        0 => None,
        1 | 2 => Some(id.saturating_sub(1 + u64::from(pick % 4))),
        3 => Some(1 + u64::from(pick) % id),
        _ => Some(id.saturating_sub(u64::from(pick % 50))),
    }
    .filter(|&p| p >= 1 && p < id);
    Some(match parent {
        None => Action::root(id, user),
        Some(p) => Action::reply(id, user, p),
    })
}

fn check(
    flat: &PropagationIndex,
    model: &MapIndex,
    max_id: u64,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        flat.retained(),
        model.records.len(),
        "retained, step {}",
        step
    );
    prop_assert_eq!(flat.stats(), model.stats, "stats, step {}", step);
    prop_assert_eq!(flat.latest_id(), model.latest, "latest, step {}", step);
    for id in 0..=max_id + 2 {
        let rec = model.records.get(&id);
        let id = ActionId(id);
        prop_assert_eq!(flat.user_of(id), rec.map(|r| r.user), "user_of {:?}", id);
        prop_assert_eq!(flat.depth_of(id), rec.map(|r| r.depth), "depth_of {:?}", id);
        prop_assert_eq!(
            flat.ancestor_users(id),
            rec.map(|r| &*r.ancestor_users),
            "ancestor_users {:?}",
            id
        );
    }
    prop_assert_eq!(encode(flat), model.encode(), "PIDX bytes, step {}", step);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn flat_store_matches_the_hash_map_index(
        steps in prop::collection::vec((0u32..1_000, 0u32..1_000, 0u32..1_000, 0u32..1_000), 0..160),
        horizon in prop::option::of(1u64..24),
        max_ancestors in 0usize..4,
    ) {
        let mut flat = match horizon {
            Some(h) => PropagationIndex::with_horizon(h),
            None => PropagationIndex::new(),
        }
        .with_max_ancestors(max_ancestors);
        let mut model = MapIndex::new(horizon, max_ancestors);
        let (mut max_id, mut used) = (0u64, Vec::new());
        for (step, &raw) in steps.iter().enumerate() {
            match next_action(raw, &mut max_id, &mut used) {
                Some(action) => {
                    prop_assert_eq!(
                        flat.insert(&action),
                        model.insert(&action),
                        "insert {:?}, step {}",
                        action,
                        step
                    );
                }
                None => {
                    let bytes = encode(&flat);
                    let mut r = ByteReader::new(&bytes);
                    let decoded = decode_propagation_index(&mut r).unwrap();
                    r.finish().unwrap();
                    prop_assert_eq!(encode(&decoded), bytes, "round trip, step {}", step);
                    flat = decoded;
                }
            }
            check(&flat, &model, max_id, step)?;
        }
    }
}

/// Dense ids take the direct slot; after a gap the lookups fall back to
/// the binary search and still find every record.
#[test]
fn lookups_survive_gaps_before_and_after_a_prune() {
    let mut flat = PropagationIndex::with_horizon(50);
    let mut model = MapIndex::new(Some(50), 0);
    let mut id = 0u64;
    for step in 0..400u64 {
        id += if step % 37 == 0 { 9 } else { 1 };
        let action = if step % 5 == 0 {
            Action::root(id, (step % 7) as u32)
        } else {
            Action::reply(id, (step % 7) as u32, id - 1 - step % 3)
        };
        assert_eq!(flat.insert(&action), model.insert(&action));
    }
    assert!(flat.retained() < 400);
    check(&flat, &model, id, 400).unwrap();
}

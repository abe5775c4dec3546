//! Incremental propagation (reply-ancestry) index.
//!
//! When an action `a_t = ⟨v, a_{t'}⟩_t` arrives, the users whose influence
//! sets grow are exactly
//!
//! * `v` itself (every user influences itself through its own actions), and
//! * every user who performed an *ancestor* of `a_t` in the reply chain
//!   (`a_{t'}`, the parent of `a_{t'}`, and so on) — these are the `d`
//!   ancestor users of §4.2 of the paper.
//!
//! Importantly (Example 1 of the paper), the ancestor actions do **not**
//! have to lie inside the current window: `u` still influences `v` in `W_t`
//! as long as `v`'s action is in `W_t`, even if `u`'s triggering action has
//! already expired.  The index therefore resolves ancestry against *all*
//! actions it has seen, with an optional retention horizon for unbounded
//! runs.  A server engine keeps one record per action it ever ingested, so
//! the record store is laid out for a history that only grows.
//!
//! ## Layout
//!
//! Records live in parallel columns ordered by action id — id, acting
//! user, reply depth and the start of the record's span in one shared
//! ancestor pool (a record's span ends where the next record's begins).
//! There is no allocation per record:
//!
//! * a lookup is the direct slot `id − first id` when ids are dense (the
//!   server rebases every action onto a gap-free arrival order), with a
//!   binary search over the id column as the fallback for gaps;
//! * an arrival with the largest id so far — every arrival on the served
//!   path — appends to each column; an out-of-order or repeated id is
//!   moved into id order, and a repeated id replaces the earlier record
//!   (the last insert wins);
//! * the horizon prune drains a prefix of every column;
//! * cloning the index (engine snapshots) copies five flat buffers, and the
//!   `PIDX` snapshot section (`persist::state`) is one linear scan, already
//!   in the id order its format requires.

use crate::action::{Action, ActionId, UserId};

/// Aggregate statistics over all actions inserted into a [`PropagationIndex`].
///
/// These are the quantities reported in Table 3 of the paper (average reply
/// depth and average response distance).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PropagationStats {
    /// Total number of actions inserted.
    pub actions: u64,
    /// Number of root actions.
    pub roots: u64,
    /// Sum of reply depths (number of ancestors per action).
    pub total_depth: u64,
    /// Maximum reply depth observed.
    pub max_depth: u32,
    /// Sum of response distances `t - t'` over reply actions.
    pub total_response_distance: u64,
    /// Number of reply actions whose parent was still resolvable.
    pub resolved_replies: u64,
    /// Number of reply actions whose parent had been pruned (treated as roots).
    pub unresolved_replies: u64,
}

impl PropagationStats {
    /// Average reply depth over all actions (the paper's "Avg. depth"
    /// counts the cascade position of each action, roots contributing 1).
    pub fn avg_depth(&self) -> f64 {
        if self.actions == 0 {
            return 0.0;
        }
        // Depth here is #ancestors; the paper counts cascade length including
        // the action itself, hence the +1.
        (self.total_depth + self.actions) as f64 / self.actions as f64
    }

    /// Average response distance `t - t'` over reply actions.
    pub fn avg_response_distance(&self) -> f64 {
        let replies = self.resolved_replies + self.unresolved_replies;
        if replies == 0 {
            return 0.0;
        }
        self.total_response_distance as f64 / replies as f64
    }
}

/// Incremental index resolving, for every arriving action, the set of users
/// whose influence sets are updated (the acting user plus all ancestor
/// users), in O(d) per arrival.
///
/// # Retention
///
/// By default the index retains every action ever inserted, which is what
/// the paper's experiments effectively need (ancestors may be arbitrarily
/// far in the past).  For truly unbounded deployments
/// [`PropagationIndex::with_horizon`] bounds memory: actions older than
/// `horizon` positions are pruned and replies to pruned actions are treated
/// as roots (their influence contribution from the pruned part is lost, a
/// documented approximation).
#[derive(Debug, Clone)]
pub struct PropagationIndex {
    /// Action id of each retained record, strictly ascending.
    ids: Vec<u64>,
    /// The user who performed each record's action.
    users: Vec<UserId>,
    /// Number of ancestor *actions* of each record (reply depth; 0 for
    /// roots).
    depths: Vec<u32>,
    /// Start of each record's ancestor span, as a pool position counted
    /// from the first record ever stored; the span ends where the next
    /// record's starts (the last one's at the end of the pool).
    starts: Vec<u64>,
    /// Users of all ancestor actions of every record (per record:
    /// deduplicated, nearest-first), back to back in id order.
    pool: Vec<UserId>,
    /// Pool position of `pool[0]`: a prune drains the pool's prefix and
    /// advances this instead of rewriting `starts`.
    pool_base: u64,
    pub(crate) horizon: Option<u64>,
    /// Smallest action id still retained (used for pruning).
    pub(crate) oldest_retained: u64,
    pub(crate) latest: u64,
    pub(crate) stats: PropagationStats,
    /// Maximum number of ancestor users recorded per action (0 = unlimited).
    pub(crate) max_ancestors: usize,
}

impl Default for PropagationIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PropagationIndex {
    /// Creates an index that retains every action.
    pub fn new() -> Self {
        Self::from_parts(None, 0, 0, 0, PropagationStats::default(), 0)
    }

    /// Creates an index that prunes actions more than `horizon` positions old.
    pub fn with_horizon(horizon: u64) -> Self {
        let mut idx = Self::new();
        idx.horizon = Some(horizon.max(1));
        idx
    }

    /// Caps the number of ancestor users recorded per action.
    ///
    /// Real cascades are shallow (Table 3 reports average depths below 5),
    /// but adversarial streams could chain millions of replies; the cap
    /// bounds per-action work without affecting typical workloads.
    pub fn with_max_ancestors(mut self, cap: usize) -> Self {
        self.max_ancestors = cap;
        self
    }

    /// Rebuilds an index skeleton from persisted counters, with room for
    /// `records` records (the `persist::state` restore path; records are
    /// re-installed through [`PropagationIndex::push_record`]).
    pub(crate) fn from_parts(
        horizon: Option<u64>,
        oldest_retained: u64,
        latest: u64,
        max_ancestors: usize,
        stats: PropagationStats,
        records: usize,
    ) -> Self {
        PropagationIndex {
            ids: Vec::with_capacity(records),
            users: Vec::with_capacity(records),
            depths: Vec::with_capacity(records),
            starts: Vec::with_capacity(records),
            pool: Vec::new(),
            pool_base: 0,
            horizon,
            oldest_retained,
            latest,
            stats,
            max_ancestors,
        }
    }

    /// Re-installs one persisted record verbatim (restore path; no stats
    /// are updated — they were persisted alongside).
    pub(crate) fn push_record(
        &mut self,
        id: ActionId,
        user: UserId,
        depth: u32,
        ancestor_users: &[UserId],
    ) {
        let tail = self.pool.len();
        self.pool.extend_from_slice(ancestor_users);
        self.place(id.0, user, depth, tail);
    }

    /// Every retained record in ascending id order: id, acting user, reply
    /// depth and ancestor users (the `persist::state` encode path).
    pub(crate) fn records(&self) -> impl Iterator<Item = (ActionId, UserId, u32, &[UserId])> {
        (0..self.ids.len()).map(move |slot| {
            (
                ActionId(self.ids[slot]),
                self.users[slot],
                self.depths[slot],
                &self.pool[self.span(slot)],
            )
        })
    }

    /// Id of the most recent action ever inserted (0 before the first) —
    /// the natural journal watermark of a snapshot.
    pub fn latest_id(&self) -> u64 {
        self.latest
    }

    /// Number of actions currently retained.
    pub fn retained(&self) -> usize {
        self.ids.len()
    }

    /// Heap bytes the record store holds (allocated capacity of its
    /// columns and ancestor pool).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u64>()
            + self.users.capacity() * size_of::<UserId>()
            + self.depths.capacity() * size_of::<u32>()
            + self.starts.capacity() * size_of::<u64>()
            + self.pool.capacity() * size_of::<UserId>()
    }

    /// Aggregate statistics since creation.
    pub fn stats(&self) -> PropagationStats {
        self.stats
    }

    /// Inserts an action and returns the users whose influence sets grow:
    /// the acting user followed by the deduplicated ancestor users
    /// (nearest ancestor first, acting user excluded from the ancestor part).
    pub fn insert(&mut self, action: &Action) -> Vec<UserId> {
        self.latest = self.latest.max(action.id.0);
        // The new record's ancestors are built at the pool's tail.
        let tail = self.pool.len();
        let depth = match action.parent {
            None => {
                self.stats.roots += 1;
                0
            }
            Some(parent_id) => {
                self.stats.total_response_distance += action.id.0.saturating_sub(parent_id.0);
                match self.slot(parent_id) {
                    Some(parent) => {
                        self.stats.resolved_replies += 1;
                        let cap = match self.max_ancestors {
                            0 => usize::MAX,
                            cap => cap,
                        };
                        let inherited = self.span(parent);
                        self.pool.push(self.users[parent]);
                        for at in inherited {
                            if self.pool.len() - tail >= cap {
                                break;
                            }
                            let u = self.pool[at];
                            if !self.pool[tail..].contains(&u) {
                                self.pool.push(u);
                            }
                        }
                        self.depths[parent] + 1
                    }
                    None => {
                        // Parent pruned or never seen: degrade to a root.
                        self.stats.unresolved_replies += 1;
                        0
                    }
                }
            }
        };

        self.stats.actions += 1;
        self.stats.total_depth += depth as u64;
        self.stats.max_depth = self.stats.max_depth.max(depth);

        let ancestors = &self.pool[tail..];
        let mut updated = Vec::with_capacity(ancestors.len() + 1);
        updated.push(action.user);
        updated.extend(ancestors.iter().copied().filter(|&u| u != action.user));

        self.place(action.id.0, action.user, depth, tail);
        self.maybe_prune();
        updated
    }

    /// Returns the ancestor users of an already-inserted action
    /// (acting user excluded), or `None` if the action is unknown/pruned.
    pub fn ancestor_users(&self, id: ActionId) -> Option<&[UserId]> {
        self.slot(id).map(|slot| &self.pool[self.span(slot)])
    }

    /// Returns the user who performed an already-inserted action.
    pub fn user_of(&self, id: ActionId) -> Option<UserId> {
        self.slot(id).map(|slot| self.users[slot])
    }

    /// Reply depth (number of ancestor actions) of an inserted action.
    pub fn depth_of(&self, id: ActionId) -> Option<u32> {
        self.slot(id).map(|slot| self.depths[slot])
    }

    /// Column position of the record of `id`: the direct slot when the
    /// ids up to it are dense, else a binary search.
    #[inline]
    fn slot(&self, id: ActionId) -> Option<usize> {
        let first = *self.ids.first()?;
        let direct = id.0.wrapping_sub(first);
        if direct < self.ids.len() as u64 && self.ids[direct as usize] == id.0 {
            return Some(direct as usize);
        }
        self.ids.binary_search(&id.0).ok()
    }

    /// Pool range of the ancestor users of the record at `slot`.
    #[inline]
    fn span(&self, slot: usize) -> std::ops::Range<usize> {
        let start = (self.starts[slot] - self.pool_base) as usize;
        let end = match self.starts.get(slot + 1) {
            Some(&next) => (next - self.pool_base) as usize,
            None => self.pool.len(),
        };
        start..end
    }

    /// Files the record whose ancestor users sit at `pool[tail..]` under
    /// `id`.  A new largest id appends; any other id is moved into id
    /// order, replacing the record already stored under it.
    fn place(&mut self, id: u64, user: UserId, depth: u32, tail: usize) {
        if self.ids.last().is_none_or(|&last| last < id) {
            self.ids.push(id);
            self.users.push(user);
            self.depths.push(depth);
            self.starts.push(self.pool_base + tail as u64);
            return;
        }
        let ancestors = self.pool.split_off(tail);
        let (slot, removed) = match self.ids.binary_search(&id) {
            Ok(slot) => {
                self.users[slot] = user;
                self.depths[slot] = depth;
                (slot, self.span(slot))
            }
            Err(slot) => {
                // `slot` < len: a smaller id than the last one.
                let start = self.starts[slot];
                self.ids.insert(slot, id);
                self.users.insert(slot, user);
                self.depths.insert(slot, depth);
                self.starts.insert(slot, start);
                let at = (start - self.pool_base) as usize;
                (slot, at..at)
            }
        };
        let (added, removed_len) = (ancestors.len() as u64, removed.len() as u64);
        self.pool.splice(removed, ancestors);
        for start in &mut self.starts[slot + 1..] {
            *start = *start + added - removed_len;
        }
    }

    fn maybe_prune(&mut self) {
        let Some(h) = self.horizon else { return };
        let cutoff = self.latest.saturating_sub(h);
        if cutoff <= self.oldest_retained {
            return;
        }
        // Amortize: only prune when the retained range is at least twice the
        // horizon, then drop the prefix below the cutoff once.
        if self.latest.saturating_sub(self.oldest_retained) < 2 * h {
            return;
        }
        let kept = self.ids.partition_point(|&id| id < cutoff);
        let pool_cut = match self.starts.get(kept) {
            Some(&start) => (start - self.pool_base) as usize,
            None => self.pool.len(),
        };
        self.ids.drain(..kept);
        self.users.drain(..kept);
        self.depths.drain(..kept);
        self.starts.drain(..kept);
        self.pool.drain(..pool_cut);
        self.pool_base += pool_cut as u64;
        self.oldest_retained = cutoff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example from Figure 1 of the paper.
    pub(crate) fn figure1_actions() -> Vec<Action> {
        vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
            Action::reply(4u64, 3u32, 1u64),
            Action::reply(5u64, 4u32, 3u64),
            Action::reply(6u64, 1u32, 3u64),
            Action::reply(7u64, 5u32, 3u64),
            Action::reply(8u64, 4u32, 7u64),
            Action::root(9u64, 2u32),
            Action::reply(10u64, 6u32, 9u64),
        ]
    }

    #[test]
    fn ancestors_follow_reply_chain() {
        let mut idx = PropagationIndex::new();
        let actions = figure1_actions();
        let mut updated_per_action = Vec::new();
        for a in &actions {
            updated_per_action.push(idx.insert(a));
        }
        // a8 = <u4, a7>: ancestors are u5 (a7) and u3 (a3).
        assert_eq!(
            idx.ancestor_users(ActionId(8)).unwrap(),
            &[UserId(5), UserId(3)]
        );
        // Updated users for a8: u4 itself plus the two ancestors.
        assert_eq!(updated_per_action[7], vec![UserId(4), UserId(5), UserId(3)]);
        // a2 = <u2, a1>: single ancestor u1.
        assert_eq!(idx.ancestor_users(ActionId(2)).unwrap(), &[UserId(1)]);
        // Root actions have no ancestors.
        assert!(idx.ancestor_users(ActionId(1)).unwrap().is_empty());
    }

    #[test]
    fn depth_and_stats_track_cascade_structure() {
        let mut idx = PropagationIndex::new();
        for a in figure1_actions() {
            idx.insert(&a);
        }
        assert_eq!(idx.depth_of(ActionId(1)), Some(0));
        assert_eq!(idx.depth_of(ActionId(8)), Some(2));
        let stats = idx.stats();
        assert_eq!(stats.actions, 10);
        assert_eq!(stats.roots, 3);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(stats.resolved_replies, 7);
        assert_eq!(stats.unresolved_replies, 0);
        // total depth = 0+1+0+1+1+1+1+2+0+1 = 8 -> avg cascade position 1.8
        assert!((stats.avg_depth() - 1.8).abs() < 1e-9);
        assert!(stats.avg_response_distance() > 0.0);
    }

    #[test]
    fn self_reply_chain_does_not_duplicate_users() {
        let mut idx = PropagationIndex::new();
        idx.insert(&Action::root(1u64, 7u32));
        idx.insert(&Action::reply(2u64, 7u32, 1u64));
        let updated = idx.insert(&Action::reply(3u64, 7u32, 2u64));
        // The acting user appears once even though it is also an ancestor.
        assert_eq!(updated, vec![UserId(7)]);
    }

    #[test]
    fn horizon_prunes_old_actions_and_degrades_to_roots() {
        let mut idx = PropagationIndex::with_horizon(10);
        for t in 1..=40u64 {
            let a = if t == 1 {
                Action::root(t, 0u32)
            } else {
                Action::reply(t, (t % 5) as u32, t - 1)
            };
            idx.insert(&a);
        }
        assert!(idx.retained() < 40);
        // A reply to a pruned parent is treated as a root.
        let updated = idx.insert(&Action::reply(41u64, 9u32, 2u64));
        assert_eq!(updated, vec![UserId(9)]);
        assert!(idx.stats().unresolved_replies >= 1);
    }

    #[test]
    fn max_ancestors_caps_recorded_chain() {
        let mut idx = PropagationIndex::new().with_max_ancestors(2);
        idx.insert(&Action::root(1u64, 1u32));
        idx.insert(&Action::reply(2u64, 2u32, 1u64));
        idx.insert(&Action::reply(3u64, 3u32, 2u64));
        idx.insert(&Action::reply(4u64, 4u32, 3u64));
        assert!(idx.ancestor_users(ActionId(4)).unwrap().len() <= 2);
    }

    #[test]
    fn user_of_returns_actor() {
        let mut idx = PropagationIndex::new();
        idx.insert(&Action::root(1u64, 42u32));
        assert_eq!(idx.user_of(ActionId(1)), Some(UserId(42)));
        assert_eq!(idx.user_of(ActionId(2)), None);
    }
}

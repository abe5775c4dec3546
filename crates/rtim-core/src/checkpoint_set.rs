//! The checkpoint collection shared by the IC and SIC frameworks.
//!
//! Both frameworks maintain an ordered list of [`Checkpoint`]s and do the
//! same three things with it every slide: create a checkpoint for the
//! arriving actions, feed the slide to every live checkpoint, and delete
//! checkpoints (expiry in IC, pruning + expiry in SIC).  A
//! [`CheckpointSet`] owns that list, so the frameworks are reduced to pure
//! policy code over cached per-checkpoint statistics — they never touch a
//! raw checkpoint vector again.
//!
//! ## Execution
//!
//! The checkpoints live in one [`ShardPool`] at every width: at width 1
//! its one shard runs inline on the calling thread (SIC's usual handful
//! of checkpoints pays no fan-out); wider pools spawn their workers once,
//! when the set is created, and broadcast every slide as one shared
//! allocation.  Deleting a checkpoint rebalances the shards (see the
//! [`pool`](crate::pool) module docs).
//!
//! ## The dense weight table
//!
//! Checkpoints and their oracles are weight-agnostic: they receive a
//! [`DenseWeights`](rtim_submodular::DenseWeights) view per feed.  The set
//! owns the single source of truth for that view — for the cardinality
//! objective it is simply `DenseWeights::Unit`; for weighted objectives the
//! set materializes `weight.weight(raw)` into a flat `Vec<f64>` indexed by
//! **dense** (interned) user id as users are registered
//! ([`CheckpointSet::register_users`], driven by the engine's
//! `UserInterner`).  Each feed ships the table's append-only delta to the
//! pool, so every shard holds an identical copy.  If the set is driven
//! without registration (direct framework tests feeding already-dense ids),
//! missing entries are filled by treating the dense id as the raw id — the
//! identity mapping.
//!
//! The set mirrors each checkpoint's `(start, value, updates)` in an
//! ordered list of [`CheckpointStat`]s, which is what the frameworks'
//! pruning/eviction/query policies consume, next to the seed list every
//! feed returns.  A full [`Solution`] is therefore read on the calling
//! thread, so a query never waits on a worker.  Results are bit-identical
//! at every width — `tests/determinism.rs` asserts this property for 1–8
//! shards.

use crate::config::SimConfig;
use crate::framework::{ResolvedAction, Solution};
use crate::pool::{CheckpointStat, PoolStats, ShardPool, WorkerFeedReport};
use crate::ssm::Checkpoint;
use rtim_stream::UserId;
use rtim_submodular::{ElementWeight, OracleConfig, OracleCounters, OracleKind};

/// An ordered collection of checkpoints (oldest first) plus the pool that
/// executes slides against them.
///
/// See the [module docs](self) for the design.
pub struct CheckpointSet<W: ElementWeight + Send + 'static> {
    oracle: OracleKind,
    oracle_config: OracleConfig,
    weight: W,
    /// Cached `weight.is_unit()` — `true` means no table is ever built and
    /// every feed runs under `DenseWeights::Unit`.
    unit: bool,
    /// Dense weight table: `dense_weights[d]` is the element weight of the
    /// user with dense id `d`.  Empty for the cardinality objective.
    dense_weights: Vec<f64>,
    /// How many table entries the pool's shards have already received
    /// (each feed ships `dense_weights[synced..]`).
    synced: usize,
    /// `true` once `cover_slide` identity-filled any table entry.  The two
    /// table-population modes — interned registration and the identity
    /// fallback — must never mix: registration after an identity fill would
    /// append the new users' weights at already-occupied dense slots.
    identity_filled: bool,
    /// Cached per-checkpoint stats, oldest first (same order as creation;
    /// starts are strictly increasing).
    stats: Vec<CheckpointStat>,
    /// Each checkpoint's seed list as of its last feed, parallel to `stats`.
    seeds: Vec<Vec<UserId>>,
    pool: ShardPool,
}

impl<W: ElementWeight + Send + 'static> CheckpointSet<W> {
    /// Creates an empty set executing on a pool of `threads` shards
    /// (1 = inline on the calling thread, no worker threads at all).
    pub fn new(oracle: OracleKind, oracle_config: OracleConfig, threads: usize, weight: W) -> Self {
        let unit = weight.is_unit();
        CheckpointSet {
            oracle,
            oracle_config,
            weight,
            unit,
            dense_weights: Vec::new(),
            synced: 0,
            identity_filled: false,
            stats: Vec::new(),
            seeds: Vec::new(),
            pool: ShardPool::new(threads),
        }
    }

    /// Creates an empty set from a SIM configuration (oracle kind, oracle
    /// parameters and thread count).
    pub fn from_config(config: &SimConfig, weight: W) -> Self {
        Self::new(
            config.oracle,
            config.oracle_config(),
            config.threads,
            weight,
        )
    }

    /// Number of live checkpoints.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// `true` if no checkpoint is live.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Number of shards backing the set (1 = inline).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Counters of the backing [`ShardPool`] (see [`PoolStats`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Latest feed report of every shard.  See
    /// [`ShardPool::last_feed_reports`].
    pub fn shard_feed_reports(&self) -> &[WorkerFeedReport] {
        self.pool.last_feed_reports()
    }

    /// Registers newly interned users in dense-id order, materializing their
    /// element weights into the dense table (no-op for the cardinality
    /// objective).  See [`crate::Framework::register_users`].
    ///
    /// # Panics
    /// Panics if a weighted set already served a feed without registration
    /// (identity-mapped mode) — the two table-population modes cannot mix.
    pub fn register_users(&mut self, new_raw: &[UserId]) {
        if self.unit {
            return;
        }
        assert!(
            !self.identity_filled,
            "register_users after an identity-mapped feed: drive a weighted \
             CheckpointSet either through the engine (interned ids, register \
             before every feed) or directly (no registration at all), never both"
        );
        self.dense_weights
            .extend(new_raw.iter().map(|&r| self.weight.weight(r)));
    }

    /// Extends the dense table to cover every dense id appearing in `slide`,
    /// treating unregistered dense ids as raw ids (the identity mapping used
    /// when the set is driven without an interner).
    fn cover_slide(&mut self, slide: &[ResolvedAction]) {
        if self.unit {
            return;
        }
        let max = slide
            .iter()
            .flat_map(|a| std::iter::once(a.actor).chain(a.ancestors.iter().copied()))
            .map(|u| u.index())
            .max();
        if let Some(max) = max {
            while self.dense_weights.len() <= max {
                let identity = UserId(self.dense_weights.len() as u32);
                self.dense_weights.push(self.weight.weight(identity));
                self.identity_filled = true;
            }
        }
    }

    /// Creates a checkpoint covering all actions with `id >= start` and
    /// appends it to the set.
    ///
    /// # Panics
    /// Panics if `start` is not greater than the newest checkpoint's start
    /// (the set is ordered oldest-first by construction).
    pub fn push(&mut self, start: u64) {
        if let Some(last) = self.stats.last() {
            assert!(
                start > last.start,
                "checkpoint starts must be strictly increasing ({start} after {})",
                last.start
            );
        }
        self.adopt(Checkpoint::new(start, self.oracle, self.oracle_config));
    }

    /// Appends `checkpoint` (newest so far) to the stats and seed lists
    /// and hands it to the pool.
    fn adopt(&mut self, checkpoint: Checkpoint) {
        self.stats.push(CheckpointStat::of(&checkpoint));
        self.seeds.push(checkpoint.seeds());
        self.pool.add(checkpoint);
    }

    /// Feeds one slide of resolved actions to every live checkpoint and
    /// refreshes the cached stats.
    pub fn feed(&mut self, slide: &[ResolvedAction]) {
        if slide.is_empty() || self.stats.is_empty() {
            return;
        }
        self.cover_slide(slide);
        let delta = (!self.unit).then(|| &self.dense_weights[self.synced..]);
        let fresh = self.pool.feed(slide, delta);
        self.synced = self.dense_weights.len();
        for (stat, seeds) in fresh {
            // Starts are strictly increasing, so the ordered stats list is
            // binary-searchable.
            let i = self
                .stats
                .binary_search_by_key(&stat.start, |s| s.start)
                .expect("pool returned stats for an unknown checkpoint");
            self.stats[i] = stat;
            self.seeds[i] = seeds;
        }
    }

    /// Deletes the checkpoint at position `i` (oldest = 0).
    pub fn remove(&mut self, i: usize) {
        let stat = self.stats.remove(i);
        self.seeds.remove(i);
        self.pool.remove(stat.start);
    }

    /// Start position of the checkpoint at `i`.
    pub fn start(&self, i: usize) -> u64 {
        self.stats[i].start
    }

    /// Influence value of the checkpoint at `i` (as of the last feed).
    pub fn value(&self, i: usize) -> f64 {
        self.stats[i].value
    }

    /// `true` once the checkpoint at `i` covers more than the window, i.e.
    /// its first covered action is older than the window start.
    pub fn is_expired(&self, i: usize, window_start: u64) -> bool {
        self.stats[i].start < window_start
    }

    /// Start positions of all live checkpoints, oldest first.
    pub fn starts(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.start).collect()
    }

    /// Influence values of all live checkpoints, oldest first.
    pub fn values(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.value).collect()
    }

    /// Total oracle element updates across all live checkpoints.
    pub fn total_updates(&self) -> u64 {
        self.stats.iter().map(|s| s.updates).sum()
    }

    /// Oracle outcome counters summed over all live checkpoints.
    pub fn total_counters(&self) -> OracleCounters {
        self.stats.iter().map(|s| s.counters).sum()
    }

    /// Full solution (seeds + value) of the checkpoint at `i`.
    ///
    /// Seeds are in the id space the set was fed with (dense ids when driven
    /// through the engine; the engine translates back to raw ids at its
    /// query boundary).  Answered on the calling thread from the seed list
    /// of the last feed (see the [module docs](self)).
    pub fn solution(&self, i: usize) -> Solution {
        Solution {
            seeds: self.seeds[i].clone(),
            value: self.stats[i].value,
        }
    }

    /// Captures the serializable state of every live checkpoint (fetched
    /// from the pool's shards without moving them), plus the dense weight
    /// table.  `None` if any checkpoint's oracle lacks snapshot support.
    pub fn snapshot(&self) -> Option<crate::snapshot::CheckpointSetState> {
        let checkpoints = self.pool.snapshot()?;
        Some(crate::snapshot::CheckpointSetState {
            identity_filled: self.identity_filled,
            dense_weights: self.dense_weights.clone(),
            checkpoints,
        })
    }

    /// Rehydrates a checkpoint set from persisted state.
    ///
    /// Checkpoints are rebuilt oldest-first and re-placed into the pool in
    /// that order, so placement is deterministic (placement never affects answers, only balance).
    /// Restoring a weighted table requires a non-unit `weight`; the
    /// caller re-supplies the same weight function the snapshotted set ran
    /// with (it is not serializable).
    pub fn from_state(
        oracle: OracleKind,
        oracle_config: OracleConfig,
        threads: usize,
        weight: W,
        state: crate::snapshot::CheckpointSetState,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut set = Self::new(oracle, oracle_config, threads, weight);
        if set.unit && (!state.dense_weights.is_empty() || state.identity_filled) {
            return Err(crate::snapshot::SnapshotError::Unsupported(
                "snapshot carries a dense weight table but the restore weight is unit".into(),
            ));
        }
        set.identity_filled = state.identity_filled;
        set.dense_weights = state.dense_weights;
        // Shards start with empty tables; the first feed ships the whole
        // table as one delta.
        set.synced = 0;
        let mut last_start: Option<u64> = None;
        for cp_state in state.checkpoints {
            if let Some(prev) = last_start {
                if cp_state.start <= prev {
                    return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                        "checkpoint starts must be strictly increasing: {} after {prev}",
                        cp_state.start
                    )));
                }
            }
            last_start = Some(cp_state.start);
            set.adopt(Checkpoint::from_state(cp_state, oracle_config));
        }
        Ok(set)
    }
}

impl<W: ElementWeight + Send + 'static> std::fmt::Debug for CheckpointSet<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSet")
            .field("len", &self.stats.len())
            .field("threads", &self.threads())
            .field("starts", &self.starts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::UserId;
    use rtim_submodular::{MapWeight, UnitWeight};

    fn resolved(id: u64, actor: u32, ancestors: &[u32]) -> ResolvedAction {
        ResolvedAction {
            id,
            actor: UserId(actor),
            ancestors: ancestors.iter().map(|&u| UserId(u)).collect(),
        }
    }

    fn set(threads: usize) -> CheckpointSet<UnitWeight> {
        CheckpointSet::new(
            OracleKind::SieveStreaming,
            OracleConfig::new(2, 0.2),
            threads,
            UnitWeight,
        )
    }

    fn drive(threads: usize) -> CheckpointSet<UnitWeight> {
        let mut s = set(threads);
        for slide_idx in 0..6u64 {
            let base = slide_idx * 4 + 1;
            s.push(base);
            let slide: Vec<ResolvedAction> = (base..base + 4)
                .map(|t| {
                    if t % 3 == 0 {
                        resolved(t, (t % 5) as u32, &[((t + 1) % 5) as u32])
                    } else {
                        resolved(t, (t % 5) as u32, &[])
                    }
                })
                .collect();
            s.feed(&slide);
        }
        s
    }

    #[test]
    fn sequential_and_sharded_agree_bit_for_bit() {
        let seq = drive(1);
        for threads in [2usize, 3, 8] {
            let par = drive(threads);
            assert_eq!(par.threads(), threads);
            assert_eq!(seq.starts(), par.starts());
            assert_eq!(seq.total_updates(), par.total_updates());
            for i in 0..seq.len() {
                assert_eq!(seq.value(i).to_bits(), par.value(i).to_bits());
                let (a, b) = (seq.solution(i), par.solution(i));
                assert_eq!(a.seeds, b.seeds);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }

    #[test]
    fn weighted_set_agrees_across_strategies() {
        // User 3 weighs 10; the table is built through register_users
        // exactly as the engine drives it.
        fn drive_weighted(threads: usize) -> CheckpointSet<MapWeight> {
            let mut table = std::collections::HashMap::new();
            table.insert(UserId(3), 10.0);
            let weight = MapWeight::new(table, 1.0);
            let mut s = CheckpointSet::new(
                OracleKind::SieveStreaming,
                OracleConfig::new(2, 0.2),
                threads,
                weight,
            );
            // Dense ids 0..5 behind raw ids 0..5 (identity interning order).
            s.register_users(&[UserId(0), UserId(1), UserId(2), UserId(3), UserId(4)]);
            s.push(1);
            let slide: Vec<ResolvedAction> = (1..=6u64)
                .map(|t| resolved(t, (t % 5) as u32, &[((t + 1) % 5) as u32]))
                .collect();
            s.feed(&slide);
            s
        }
        let seq = drive_weighted(1);
        let par = drive_weighted(3);
        assert_eq!(seq.values(), par.values());
        assert!(
            seq.value(0) >= 10.0,
            "heavy user not reflected: {}",
            seq.value(0)
        );
        assert_eq!(seq.solution(0).seeds, par.solution(0).seeds);
    }

    #[test]
    fn unregistered_weighted_ids_fall_back_to_identity() {
        // No register_users call: dense ids are treated as raw ids, so the
        // MapWeight keyed by UserId(2) still applies to dense id 2.
        let mut table = std::collections::HashMap::new();
        table.insert(UserId(2), 5.0);
        let mut s = CheckpointSet::new(
            OracleKind::SieveStreaming,
            OracleConfig::new(1, 0.2),
            1,
            MapWeight::new(table, 1.0),
        );
        s.push(1);
        s.feed(&[resolved(1, 2, &[])]);
        assert_eq!(s.value(0), 5.0);
    }

    #[test]
    fn remove_keeps_order_and_stats_aligned() {
        for threads in [1usize, 3] {
            let mut s = drive(threads);
            assert_eq!(s.len(), 6);
            let starts = s.starts();
            s.remove(2);
            s.remove(0);
            assert_eq!(s.len(), 4);
            assert_eq!(s.start(0), starts[1]);
            assert_eq!(s.starts(), vec![starts[1], starts[3], starts[4], starts[5]]);
            // Remaining checkpoints still answer.
            for i in 0..s.len() {
                let _ = s.solution(i);
                assert!(s.value(i) >= 0.0);
            }
        }
    }

    #[test]
    fn values_are_monotone_in_coverage() {
        let s = drive(1);
        let values = s.values();
        for pair in values.windows(2) {
            assert!(pair[0] + 1e-9 >= pair[1], "not monotone: {values:?}");
        }
    }

    #[test]
    #[should_panic]
    fn non_increasing_push_is_rejected() {
        let mut s = set(1);
        s.push(5);
        s.push(5);
    }

    #[test]
    fn expiry_is_relative_to_window_start() {
        let mut s = set(1);
        s.push(5);
        assert!(!s.is_expired(0, 5));
        assert!(!s.is_expired(0, 3));
        assert!(s.is_expired(0, 6));
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic]
    fn registration_after_identity_feed_is_rejected() {
        let mut table = std::collections::HashMap::new();
        table.insert(UserId(1), 2.0);
        let mut s = CheckpointSet::new(
            OracleKind::SieveStreaming,
            OracleConfig::new(1, 0.2),
            1,
            MapWeight::new(table, 1.0),
        );
        s.push(1);
        s.feed(&[resolved(1, 2, &[])]); // identity fill up to dense id 2
        s.register_users(&[UserId(9)]); // must panic: modes cannot mix
    }

    #[test]
    fn from_config_honours_thread_count() {
        let config = SimConfig::new(2, 0.2, 8, 2).with_threads(3);
        let s = CheckpointSet::from_config(&config, UnitWeight);
        assert_eq!(s.threads(), 3);
        assert!(s.is_empty());
    }
}

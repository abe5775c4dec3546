//! The Influential Checkpoints (IC) framework (§4, Algorithm 1).
//!
//! IC maintains one checkpoint per window slide — `⌈N/L⌉` checkpoints in
//! steady state.  On every slide:
//!
//! 1. a fresh checkpoint is created for the arriving actions,
//! 2. every live checkpoint processes the new actions (append-only), and
//! 3. checkpoints whose coverage now exceeds the window (their start is
//!    older than the window start) are deleted.
//!
//! The SIM query is answered by the oldest live checkpoint, which covers
//! exactly the current window, so the answer inherits the checkpoint
//! oracle's `ε` approximation ratio (Theorem 2).
//!
//! The checkpoints themselves live in a [`CheckpointSet`], which owns the
//! execution strategy (sequential, or a persistent shard pool when
//! [`SimConfig::with_threads`] asks for workers); IC is pure policy over
//! the set's cached per-checkpoint statistics.

use crate::checkpoint_set::CheckpointSet;
use crate::config::SimConfig;
use crate::framework::{Framework, FrameworkKind, ResolvedAction, Solution};
use rtim_submodular::{ElementWeight, OracleCounters, UnitWeight};

/// The IC framework with a pluggable element weight (influence function).
pub struct IcFramework<W: ElementWeight + Send + 'static = UnitWeight> {
    config: SimConfig,
    /// Live checkpoints, oldest first.
    checkpoints: CheckpointSet<W>,
}

impl IcFramework<UnitWeight> {
    /// Creates an IC framework using the cardinality influence function.
    pub fn new(config: SimConfig) -> Self {
        Self::with_weight(config, UnitWeight)
    }
}

impl IcFramework<UnitWeight> {
    /// Rehydrates a unit-weight IC framework from persisted state (see
    /// [`crate::snapshot`]).
    pub fn from_state(
        config: SimConfig,
        state: crate::snapshot::FrameworkState,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Self::from_state_with_weight(config, UnitWeight, state)
    }
}

impl<W: ElementWeight + Send + 'static> IcFramework<W> {
    /// Creates an IC framework with a custom influence function.
    pub fn with_weight(config: SimConfig, weight: W) -> Self {
        IcFramework {
            config,
            checkpoints: CheckpointSet::from_config(&config, weight),
        }
    }

    /// Rehydrates an IC framework from persisted state, re-supplying the
    /// weight function the snapshotted framework ran with.
    pub fn from_state_with_weight(
        config: SimConfig,
        weight: W,
        state: crate::snapshot::FrameworkState,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(IcFramework {
            config,
            checkpoints: CheckpointSet::from_state(
                config.oracle,
                config.oracle_config(),
                config.threads,
                weight,
                state.set,
            )?,
        })
    }

    /// The configuration this framework runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Values of all live checkpoints, oldest first (used in tests and by
    /// the checkpoint-count experiments).
    pub fn checkpoint_values(&self) -> Vec<f64> {
        self.checkpoints.values()
    }

    /// Start positions of all live checkpoints, oldest first.
    pub fn checkpoint_starts(&self) -> Vec<u64> {
        self.checkpoints.starts()
    }
}

impl<W: ElementWeight + Send + 'static> Framework for IcFramework<W> {
    fn register_users(&mut self, new_raw: &[rtim_stream::UserId]) {
        self.checkpoints.register_users(new_raw);
    }

    fn process_slide(&mut self, slide: &[ResolvedAction], window_start: u64) {
        if slide.is_empty() {
            return;
        }
        // (1) Create the checkpoint covering this slide onwards.
        self.checkpoints.push(slide[0].id);
        // (2) Every checkpoint processes the new actions.
        self.checkpoints.feed(slide);
        // (3) Drop expired checkpoints, but only while their successor still
        //     covers the whole window: when N is not a multiple of L there is
        //     no exactly-aligned checkpoint and the oldest retained one
        //     covers slightly more than the window (the paper's multi-shift
        //     variant, §5.3), keeping the count at ⌈N/L⌉.
        while self.checkpoints.len() > 1 {
            let front_expired = self.checkpoints.is_expired(0, window_start);
            let successor_covers_window = self.checkpoints.start(1) <= window_start;
            if front_expired && successor_covers_window {
                self.checkpoints.remove(0);
            } else {
                break;
            }
        }
    }

    fn query(&self) -> Solution {
        if self.checkpoints.is_empty() {
            Solution::empty()
        } else {
            self.checkpoints.solution(0)
        }
    }

    fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    fn oracle_updates(&self) -> u64 {
        self.checkpoints.total_updates()
    }

    fn oracle_counters(&self) -> OracleCounters {
        self.checkpoints.total_counters()
    }

    fn kind(&self) -> FrameworkKind {
        FrameworkKind::Ic
    }

    fn pool_stats(&self) -> crate::pool::PoolStats {
        self.checkpoints.pool_stats()
    }

    fn shard_feed_reports(&self) -> &[crate::pool::WorkerFeedReport] {
        self.checkpoints.shard_feed_reports()
    }

    fn set_adaptive(&mut self, config: crate::pool::AdaptiveConfig) {
        self.checkpoints.set_adaptive(config);
    }

    fn snapshot_state(&self) -> Option<crate::snapshot::FrameworkState> {
        Some(crate::snapshot::FrameworkState {
            kind: FrameworkKind::Ic,
            window_start: 0,
            pruned: 0,
            set: self.checkpoints.snapshot()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::UserId;

    fn resolved(id: u64, actor: u32, ancestors: &[u32]) -> ResolvedAction {
        ResolvedAction {
            id,
            actor: UserId(actor),
            ancestors: ancestors.iter().map(|&u| UserId(u)).collect(),
        }
    }

    fn figure1_resolved() -> Vec<ResolvedAction> {
        vec![
            resolved(1, 1, &[]),
            resolved(2, 2, &[1]),
            resolved(3, 3, &[]),
            resolved(4, 3, &[1]),
            resolved(5, 4, &[3]),
            resolved(6, 1, &[3]),
            resolved(7, 5, &[3]),
            resolved(8, 4, &[5, 3]),
            resolved(9, 2, &[]),
            resolved(10, 6, &[2]),
        ]
    }

    /// Drives the paper's running example with N = 8 and single-action
    /// slides, checking the query values of Figure 2.
    #[test]
    fn figure2_query_values_with_unit_slides() {
        let config = SimConfig::new(2, 0.3, 8, 1);
        let mut ic = IcFramework::new(config);
        let stream = figure1_resolved();
        let mut values = Vec::new();
        for (i, action) in stream.iter().enumerate() {
            let t = (i + 1) as u64;
            let window_start = t.saturating_sub(8 - 1).max(1);
            ic.process_slide(std::slice::from_ref(action), window_start);
            values.push(ic.query().value);
        }
        // At t = 8 the answer covers the full window: value 5 (Example 2).
        assert_eq!(values[7], 5.0);
        // At t = 10 the answer is 6 (Example 2 / Figure 2 bottom row).
        assert_eq!(values[9], 6.0);
        // The number of checkpoints never exceeds the window size.
        assert!(ic.checkpoint_count() <= 8);
    }

    #[test]
    fn checkpoint_count_equals_ceil_n_over_l() {
        let config = SimConfig::new(2, 0.3, 8, 2);
        let mut ic = IcFramework::new(config);
        let stream = figure1_resolved();
        for chunk in stream.chunks(2) {
            let last = chunk.last().unwrap().id;
            let window_start = last.saturating_sub(8 - 1).max(1);
            ic.process_slide(chunk, window_start);
        }
        assert_eq!(ic.checkpoint_count(), config.checkpoint_capacity());
        assert_eq!(ic.checkpoint_count(), 4);
        // Oldest checkpoint starts exactly at the window boundary.
        assert_eq!(ic.checkpoint_starts()[0], 3);
    }

    #[test]
    fn query_value_matches_example2_with_multi_action_slides() {
        let config = SimConfig::new(2, 0.3, 8, 2);
        let mut ic = IcFramework::new(config);
        let stream = figure1_resolved();
        let mut values = Vec::new();
        for chunk in stream.chunks(2) {
            let last = chunk.last().unwrap().id;
            let window_start = last.saturating_sub(8 - 1).max(1);
            ic.process_slide(chunk, window_start);
            values.push(ic.query().value);
        }
        // After the 4th slide (t=8): full window, value 5.
        assert_eq!(values[3], 5.0);
        // After the 5th slide (t=10): value 6.
        assert_eq!(values[4], 6.0);
    }

    #[test]
    fn checkpoint_values_are_non_increasing_with_start() {
        let config = SimConfig::new(2, 0.3, 8, 1);
        let mut ic = IcFramework::new(config);
        for (i, action) in figure1_resolved().iter().enumerate() {
            let t = (i + 1) as u64;
            let window_start = t.saturating_sub(7).max(1);
            ic.process_slide(std::slice::from_ref(action), window_start);
        }
        let values = ic.checkpoint_values();
        for pair in values.windows(2) {
            assert!(pair[0] + 1e-9 >= pair[1], "values not monotone: {values:?}");
        }
    }

    #[test]
    fn sharded_ic_matches_sequential_on_the_running_example() {
        let sequential = SimConfig::new(2, 0.3, 8, 2);
        let sharded = sequential.with_threads(4);
        let mut seq = IcFramework::new(sequential);
        let mut par = IcFramework::new(sharded);
        let stream = figure1_resolved();
        for chunk in stream.chunks(2) {
            let last = chunk.last().unwrap().id;
            let window_start = last.saturating_sub(8 - 1).max(1);
            seq.process_slide(chunk, window_start);
            par.process_slide(chunk, window_start);
            assert_eq!(seq.checkpoint_starts(), par.checkpoint_starts());
            assert_eq!(seq.checkpoint_values(), par.checkpoint_values());
            assert_eq!(seq.query(), par.query());
        }
        assert_eq!(seq.oracle_updates(), par.oracle_updates());
    }

    #[test]
    fn empty_framework_returns_empty_solution() {
        let ic = IcFramework::new(SimConfig::new(2, 0.1, 8, 1));
        assert_eq!(ic.query(), Solution::empty());
        assert_eq!(ic.checkpoint_count(), 0);
        assert_eq!(ic.oracle_updates(), 0);
        assert_eq!(ic.kind(), FrameworkKind::Ic);
    }

    #[test]
    fn empty_slide_is_a_no_op() {
        let mut ic = IcFramework::new(SimConfig::new(2, 0.1, 8, 1));
        ic.process_slide(&[], 1);
        assert_eq!(ic.checkpoint_count(), 0);
    }
}

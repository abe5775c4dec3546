//! The Sparse Influential Checkpoints (SIC) framework (§5, Algorithm 2).
//!
//! SIC keeps only a logarithmic subset of IC's checkpoints.  The pruning
//! rule exploits two facts about checkpoint values: they are monotone (a
//! checkpoint observing more actions reports at least as much influence) and
//! the *optimal* values are subadditive across a split of the window
//! (Lemma 1).  Whenever two consecutive retained checkpoints are within a
//! `(1−β)` factor of an earlier one, the checkpoints between them can be
//! dropped and later approximated by their successor with a bounded loss —
//! yielding an `ε(1−β)/2` approximation overall (Theorem 3) with only
//! `O(log N / β)` checkpoints (Theorem 5).
//!
//! The additional *expired* checkpoint `Λ_t[x_0]` is retained (it covers a
//! superset of the window and upper-bounds the window optimum) until the
//! next retained checkpoint expires too, exactly as in Algorithm 2 lines
//! 21–23.
//!
//! The checkpoints live in a [`CheckpointSet`], which runs them on a shard
//! pool ([`SimConfig::with_threads`] sets its width); SIC is pure policy over
//! the set's cached per-checkpoint values — pruning decisions read the
//! cached values, and every deletion lets the pool rebalance its shards.

use crate::checkpoint_set::CheckpointSet;
use crate::config::SimConfig;
use crate::framework::{Framework, FrameworkKind, ResolvedAction, Solution};
use rtim_submodular::{ElementWeight, OracleCounters, UnitWeight};

/// The SIC framework with a pluggable element weight (influence function).
pub struct SicFramework<W: ElementWeight + Send + 'static = UnitWeight> {
    config: SimConfig,
    /// Retained checkpoints, oldest first.  At most one of them (the front)
    /// may be expired — that is the sentinel `Λ_t[x_0]`.
    checkpoints: CheckpointSet<W>,
    /// Window start after the most recent slide (id of the oldest action
    /// still inside the window).
    window_start: u64,
    /// Total number of checkpoints deleted by the pruning rule (stats).
    pruned: u64,
}

impl SicFramework<UnitWeight> {
    /// Creates a SIC framework using the cardinality influence function.
    pub fn new(config: SimConfig) -> Self {
        Self::with_weight(config, UnitWeight)
    }
}

impl SicFramework<UnitWeight> {
    /// Rehydrates a unit-weight SIC framework from persisted state (see
    /// [`crate::snapshot`]).
    pub fn from_state(
        config: SimConfig,
        state: crate::snapshot::FrameworkState,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Self::from_state_with_weight(config, UnitWeight, state)
    }
}

impl<W: ElementWeight + Send + 'static> SicFramework<W> {
    /// Creates a SIC framework with a custom influence function.
    pub fn with_weight(config: SimConfig, weight: W) -> Self {
        SicFramework {
            config,
            checkpoints: CheckpointSet::from_config(&config, weight),
            window_start: 1,
            pruned: 0,
        }
    }

    /// Rehydrates a SIC framework from persisted state, re-supplying the
    /// weight function the snapshotted framework ran with.
    pub fn from_state_with_weight(
        config: SimConfig,
        weight: W,
        state: crate::snapshot::FrameworkState,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(SicFramework {
            config,
            checkpoints: CheckpointSet::from_state(
                config.oracle,
                config.oracle_config(),
                config.threads,
                weight,
                state.set,
            )?,
            window_start: state.window_start.max(1),
            pruned: state.pruned,
        })
    }

    /// The configuration this framework runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Values of all retained checkpoints, oldest first.
    pub fn checkpoint_values(&self) -> Vec<f64> {
        self.checkpoints.values()
    }

    /// Start positions of all retained checkpoints, oldest first.
    pub fn checkpoint_starts(&self) -> Vec<u64> {
        self.checkpoints.starts()
    }

    /// Number of checkpoints deleted by the sparsification rule so far.
    pub fn pruned_count(&self) -> u64 {
        self.pruned
    }

    /// Algorithm 2 lines 9–20: for every retained checkpoint `x_i`, delete
    /// the maximal run of successors `x_j` such that both `Λ[x_j]` and
    /// `Λ[x_{j+1}]` are at least `(1−β)·Λ[x_i]`.
    fn prune(&mut self) {
        let beta = self.config.beta;
        let mut i = 0usize;
        while i + 2 < self.checkpoints.len() {
            let threshold = (1.0 - beta) * self.checkpoints.value(i);
            // Delete successors while the one *after* the candidate is still
            // above the threshold (checkpoint values are non-increasing in
            // start position, so Λ[x_{j+1}] ≥ threshold ⇒ Λ[x_j] ≥ threshold).
            while i + 2 < self.checkpoints.len()
                && self.checkpoints.value(i + 1) >= threshold
                && self.checkpoints.value(i + 2) >= threshold
            {
                self.checkpoints.remove(i + 1);
                self.pruned += 1;
            }
            i += 1;
        }
    }

    /// Algorithm 2 lines 21–23: drop the expired sentinel once its successor
    /// has expired as well (keep at most one expired checkpoint at the
    /// front).
    fn drop_stale_expired(&mut self, window_start: u64) {
        while self.checkpoints.len() > 1 {
            let front_expired = self.checkpoints.is_expired(0, window_start);
            let second_expired = self.checkpoints.is_expired(1, window_start);
            if front_expired && second_expired {
                self.checkpoints.remove(0);
            } else {
                break;
            }
        }
    }
}

impl<W: ElementWeight + Send + 'static> Framework for SicFramework<W> {
    fn register_users(&mut self, new_raw: &[rtim_stream::UserId]) {
        self.checkpoints.register_users(new_raw);
    }

    fn process_slide(&mut self, slide: &[ResolvedAction], window_start: u64) {
        if slide.is_empty() {
            return;
        }
        // Create the checkpoint for the arriving slide (Algorithm 2 line 2).
        self.checkpoints.push(slide[0].id);
        // Update every retained checkpoint with the new actions (lines 6–8).
        self.checkpoints.feed(slide);
        // Sparsify (lines 9–20) and discard stale expired checkpoints
        // (lines 21–23).
        self.prune();
        self.drop_stale_expired(window_start);
        self.window_start = window_start;
    }

    fn query(&self) -> Solution {
        // Answer from the oldest non-expired checkpoint (Λ_t[x_1]).  During
        // warm-up no checkpoint has expired and the oldest one covers the
        // whole history, which is exactly the current window.
        let n = self.checkpoints.len();
        (0..n)
            .find(|&i| !self.checkpoints.is_expired(i, self.window_start))
            .or(if n > 0 { Some(n - 1) } else { None })
            .map(|i| self.checkpoints.solution(i))
            .unwrap_or_else(Solution::empty)
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
        FrameworkKind::Sic
    }

    fn pool_stats(&self) -> crate::pool::PoolStats {
        self.checkpoints.pool_stats()
    }

    fn shard_feed_reports(&self) -> &[crate::pool::WorkerFeedReport] {
        self.checkpoints.shard_feed_reports()
    }

    fn snapshot_state(&self) -> Option<crate::snapshot::FrameworkState> {
        Some(crate::snapshot::FrameworkState {
            kind: FrameworkKind::Sic,
            window_start: self.window_start,
            pruned: self.pruned,
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

    fn run_unit_slides(beta: f64) -> (SicFramework, Vec<f64>) {
        let config = SimConfig::new(2, beta, 8, 1);
        let mut sic = SicFramework::new(config);
        let mut values = Vec::new();
        for (i, action) in figure1_resolved().iter().enumerate() {
            let t = (i + 1) as u64;
            let window_start = t.saturating_sub(7).max(1);
            sic.process_slide(std::slice::from_ref(action), window_start);
            values.push(sic.query().value);
        }
        (sic, values)
    }

    #[test]
    fn keeps_fewer_checkpoints_than_ic() {
        let (sic, _) = run_unit_slides(0.3);
        // IC would keep 8 checkpoints; SIC keeps a sparse subset (Figure 4
        // shows 6 at t = 8 and 6 at t = 10 for β = 0.3).
        assert!(sic.checkpoint_count() < 8);
        assert!(sic.pruned_count() > 0);
    }

    #[test]
    fn query_values_meet_the_sic_guarantee() {
        // With a (1/2 − β)-approximate oracle, SIC guarantees at least
        // (1/2 − β)(1 − β)/2 of the window optimum (Theorem 3/4).
        let beta = 0.3;
        let (_, values) = run_unit_slides(beta);
        // Window optima of the running example at t = 8, 9, 10.
        let optima = [5.0, 5.0, 6.0];
        let bound = (0.5 - beta) * (1.0 - beta) / 2.0;
        for (i, opt) in optima.iter().enumerate() {
            let v = values[7 + i];
            assert!(
                v >= bound * opt - 1e-9,
                "t={} value {} below bound {}",
                8 + i,
                v,
                bound * opt
            );
            assert!(
                v <= *opt + 1e-9,
                "t={} value {} above optimum {}",
                8 + i,
                v,
                opt
            );
        }
    }

    #[test]
    fn sparse_values_stay_close_to_exact_for_small_beta() {
        // For a small β SIC prunes less and the answers stay close to the
        // exact window optimum on this tiny example (the optimum is 5 at
        // t = 8 and 6 at t = 10; SieveStreaming itself is only (1/2 − β)-
        // approximate, so we ask for ≥ 5 rather than exact equality at
        // t = 10).
        let (_, values) = run_unit_slides(0.05);
        assert_eq!(values[7], 5.0);
        assert!(values[9] >= 5.0 && values[9] <= 6.0, "value {}", values[9]);
    }

    #[test]
    fn retains_at_most_one_expired_checkpoint() {
        let (sic, _) = run_unit_slides(0.3);
        let starts = sic.checkpoint_starts();
        // Window start after t = 10 with N = 8 is 3; only the sentinel may
        // start earlier.
        let expired: Vec<_> = starts.iter().filter(|&&s| s < 3).collect();
        assert!(expired.len() <= 1, "starts: {starts:?}");
    }

    #[test]
    fn checkpoint_count_is_logarithmic_on_longer_streams() {
        // A longer synthetic-ish stream: every action is a root by a fresh
        // user, so every checkpoint value equals its coverage length and the
        // pruning rule has plenty of opportunities.
        let n = 512usize;
        let beta = 0.2;
        let config = SimConfig::new(4, beta, n, 1);
        let mut sic = SicFramework::new(config);
        for t in 1..=(3 * n as u64) {
            let action = resolved(t, (t % 97) as u32, &[]);
            let window_start = t.saturating_sub(n as u64 - 1).max(1);
            sic.process_slide(std::slice::from_ref(&action), window_start);
        }
        // Theorem 5: O(log N / β) checkpoints; the constant-factor bound
        // 2·log(N)/log(1/(1-β)) + 2 is generous enough for the test.
        let bound = 2.0 * (n as f64).ln() / (1.0 / (1.0 - beta)).ln() + 2.0;
        assert!(
            (sic.checkpoint_count() as f64) <= bound,
            "checkpoints {} exceed bound {bound}",
            sic.checkpoint_count()
        );
        assert!(sic.checkpoint_count() >= 2);
    }

    #[test]
    fn sharded_sic_matches_sequential_on_the_running_example() {
        let sequential = SimConfig::new(2, 0.3, 8, 1);
        let sharded = sequential.with_threads(3);
        let mut seq = SicFramework::new(sequential);
        let mut par = SicFramework::new(sharded);
        for (i, action) in figure1_resolved().iter().enumerate() {
            let t = (i + 1) as u64;
            let window_start = t.saturating_sub(7).max(1);
            seq.process_slide(std::slice::from_ref(action), window_start);
            par.process_slide(std::slice::from_ref(action), window_start);
            assert_eq!(seq.checkpoint_starts(), par.checkpoint_starts());
            assert_eq!(seq.checkpoint_values(), par.checkpoint_values());
            assert_eq!(seq.query(), par.query());
        }
        assert_eq!(seq.pruned_count(), par.pruned_count());
    }

    #[test]
    fn empty_framework_returns_empty_solution() {
        let sic = SicFramework::new(SimConfig::new(2, 0.1, 8, 1));
        assert_eq!(sic.query(), Solution::empty());
        assert_eq!(sic.checkpoint_count(), 0);
        assert_eq!(sic.kind(), FrameworkKind::Sic);
    }
}

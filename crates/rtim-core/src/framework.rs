//! Common interface of the checkpoint frameworks (IC and SIC).

use rtim_stream::UserId;
use rtim_submodular::OracleCounters;
use serde::{Deserialize, Serialize};

/// An action whose reply ancestry has already been resolved by the
/// propagation index: the acting user plus the users of all ancestor
/// actions.  This is the unit of work fed to every checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedAction {
    /// Stream position (timestamp) of the action.
    pub id: u64,
    /// The acting user.
    pub actor: UserId,
    /// Users of the ancestor actions (deduplicated, acting user excluded).
    pub ancestors: Vec<UserId>,
}

/// The answer to a SIM query: at most `k` seed users and the influence value
/// the answering checkpoint attributes to them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Solution {
    /// The selected seed users.
    pub seeds: Vec<UserId>,
    /// The influence value `f(I(S))` reported by the answering checkpoint.
    pub value: f64,
}

impl Solution {
    /// An empty solution (no seeds, value 0) — returned before any action
    /// has been observed.
    pub fn empty() -> Self {
        Solution::default()
    }
}

/// Which framework processes the stream (used by experiment harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// Influential Checkpoints (§4): one checkpoint per slide.
    Ic,
    /// Sparse Influential Checkpoints (§5): `O(log N / β)` checkpoints.
    Sic,
}

impl FrameworkKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::Ic => "IC",
            FrameworkKind::Sic => "SIC",
        }
    }
}

/// A checkpoint framework: consumes window slides and answers SIM queries.
///
/// The [`crate::SimEngine`] owns the sliding window and the propagation
/// index; frameworks only see resolved actions plus the window boundary, so
/// they never have to handle action expiry themselves — exactly the design
/// point of the paper.
pub trait Framework: Send {
    /// Processes one window slide.
    ///
    /// * `slide` — the new actions, oldest first, with resolved ancestries.
    /// * `window_start` — the id of the oldest action still inside the
    ///   window *after* this slide (checkpoints starting later than this are
    ///   exact; earlier ones are expired).
    fn process_slide(&mut self, slide: &[ResolvedAction], window_start: u64);

    /// Registers users newly interned by the engine, in dense-id order:
    /// `new_raw[i]` is the raw id behind the dense id `base + i`, where
    /// `base` is the total number of users registered before this call.
    ///
    /// Called by [`crate::SimEngine`] before the slide that first references
    /// those users.  Frameworks with weighted objectives use this to extend
    /// their dense weight tables; the default is a no-op (correct for the
    /// cardinality objective, and for direct framework drivers that feed
    /// already-dense ids — there the checkpoint layer falls back to treating
    /// dense ids as raw).
    fn register_users(&mut self, new_raw: &[UserId]) {
        let _ = new_raw;
    }

    /// Answers the SIM query for the current window.
    fn query(&self) -> Solution;

    /// Number of checkpoints currently maintained (Figure 6).
    fn checkpoint_count(&self) -> usize;

    /// Total number of oracle element updates performed so far
    /// (instrumentation for the complexity analysis).
    fn oracle_updates(&self) -> u64;

    /// Oracle outcome counters summed over the live checkpoints (see
    /// [`OracleCounters`]).
    fn oracle_counters(&self) -> OracleCounters;

    /// Which framework this is.
    fn kind(&self) -> FrameworkKind;

    /// Counters of the framework's backing shard pool (rebalance moves,
    /// min/max per-shard feed-time EWMA, arena counters).  The default —
    /// for custom frameworks without a pool — is all zeros.
    fn pool_stats(&self) -> crate::pool::PoolStats {
        crate::pool::PoolStats::default()
    }

    /// Latest per-shard feed reports from the framework's backing pool
    /// (span nanoseconds + arena counters per shard, from the most recent
    /// slide; one entry per shard at every width).  Input to the engine's
    /// per-shard trace spans; the default — a custom framework without a
    /// pool — is empty.
    fn shard_feed_reports(&self) -> &[crate::pool::WorkerFeedReport] {
        &[]
    }

    /// The framework's serializable state, if it supports durable
    /// snapshots (see [`crate::snapshot`]).
    ///
    /// The built-in IC and SIC frameworks return `Some` whenever every
    /// checkpoint oracle does; the default is `None` so custom framework
    /// implementations keep compiling — [`crate::SimEngine::snapshot`]
    /// reports such an engine as unsupported instead of failing later.
    fn snapshot_state(&self) -> Option<crate::snapshot::FrameworkState> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_empty_is_zero() {
        let s = Solution::empty();
        assert!(s.seeds.is_empty());
        assert_eq!(s.value, 0.0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(FrameworkKind::Ic.name(), "IC");
        assert_eq!(FrameworkKind::Sic.name(), "SIC");
    }
}

//! Set-Stream Mapping (SSM) and the checkpoint oracle (§4.2–§4.3).
//!
//! A [`Checkpoint`] `Λ_t[i]` maintains an `ε`-approximate SIM solution over
//! the append-only sub-stream of actions that arrived after its creation.
//! It is built from two pieces:
//!
//! 1. an [`InfluenceAccumulator`] holding the per-user influence sets
//!    *restricted to the actions this checkpoint has observed* (they only
//!    ever grow — no expiry), and
//! 2. any streaming-submodular oracle implementing
//!    [`rtim_submodular::SsoOracle`] (SieveStreaming by default).
//!
//! The SSM steps on the arrival of action `a_t` by user `v` with ancestor
//! users `u_1..u_d` are exactly those listed in §4.2:
//!
//! 1. identify the users whose influence set changes (`v` and the `u_i`
//!    whose sets actually grew),
//! 2. form the mapped set-stream element for each such user — its updated
//!    influence set within the checkpoint, and
//! 3. feed each element to the oracle.
//!
//! Theorem 2 shows the mapped oracle keeps its approximation ratio.
//!
//! ## Delta-aware feeding
//!
//! Each grown set grew by **exactly one user** — the actor — so step 3 uses
//! [`SsoOracle::process_grow`], letting the oracle absorb the one new user
//! in O(1) on its existing-seed branches instead of re-unioning the whole
//! set.  The users-that-grew list is collected into a reused scratch buffer
//! (no allocation per action).
//!
//! Element weights are passed per feed as a [`DenseWeights`] view: the
//! checkpoint layer owns the dense table (indexed by interned user id), the
//! checkpoint itself stays weight-agnostic.

use crate::framework::{ResolvedAction, Solution};
use rtim_stream::{InfluenceAccumulator, WordArena};
use rtim_submodular::{DenseWeights, OracleConfig, OracleCounters, OracleKind, SsoOracle};

/// A checkpoint: an SSO oracle adapted to the action stream through SSM.
pub struct Checkpoint {
    /// Stream position of the first action this checkpoint covers (its
    /// creation boundary): it observes every action with `id >= start`.
    start: u64,
    /// Append-only influence sets over the observed actions.
    accumulator: InfluenceAccumulator,
    /// The wrapped streaming-submodular oracle.
    oracle: Box<dyn SsoOracle>,
    /// Number of oracle element updates performed by this checkpoint.
    updates: u64,
    /// Reused users-that-grew buffer (cleared per action).
    scratch: Vec<rtim_stream::UserId>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("start", &self.start)
            .field("value", &self.value())
            .field("updates", &self.updates)
            .finish()
    }
}

impl Checkpoint {
    /// Creates a checkpoint that will cover all actions with `id >= start`,
    /// backed by the given oracle kind.
    pub fn new(start: u64, kind: OracleKind, config: OracleConfig) -> Self {
        Self::with_oracle(start, kind.build(config))
    }

    /// Creates a checkpoint around an already-constructed oracle (used by
    /// tests that need to inspect specific oracle behaviours).
    pub fn with_oracle(start: u64, oracle: Box<dyn SsoOracle>) -> Self {
        Checkpoint {
            start,
            accumulator: InfluenceAccumulator::new(),
            oracle,
            updates: 0,
            scratch: Vec::new(),
        }
    }

    /// The first action id covered by this checkpoint.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// `true` once the checkpoint covers more than the current window, i.e.
    /// its first covered action is older than the window start.
    #[inline]
    pub fn is_expired(&self, window_start: u64) -> bool {
        self.start < window_start
    }

    /// Applies one resolved action (the three SSM steps) under the given
    /// element weights.
    pub fn process(&mut self, action: &ResolvedAction, weights: &DenseWeights) {
        debug_assert!(action.id >= self.start, "checkpoint fed an older action");
        self.scratch.clear();
        self.accumulator
            .apply_into(action.actor, &action.ancestors, &mut self.scratch);
        for &user in &self.scratch {
            let set = self
                .accumulator
                .influence_set(user)
                .expect("grown set exists");
            // Every grown set grew by exactly one user: the actor.
            self.oracle.process_grow(user, action.actor, set, weights);
            self.updates += 1;
        }
    }

    /// [`Self::process`] with slide-time bitmap allocation routed through a
    /// per-worker [`WordArena`] — the path the slide loops
    /// (`CheckpointSet`/`ShardPool` workers) take.  Bit-identical to
    /// `process`: the arena only changes where bitmap backing stores come
    /// from, never their contents (property-tested in
    /// `rtim-stream/tests/kernel_props.rs` and `tests/determinism.rs`).
    pub fn process_in(
        &mut self,
        action: &ResolvedAction,
        weights: &DenseWeights,
        arena: &mut WordArena,
    ) {
        debug_assert!(action.id >= self.start, "checkpoint fed an older action");
        self.scratch.clear();
        self.accumulator.apply_into_arena(
            action.actor,
            &action.ancestors,
            &mut self.scratch,
            arena,
        );
        for &user in &self.scratch {
            let set = self
                .accumulator
                .influence_set(user)
                .expect("grown set exists");
            // Every grown set grew by exactly one user: the actor.
            self.oracle
                .process_grow_in(user, action.actor, set, weights, arena);
            self.updates += 1;
        }
    }

    /// Tears the checkpoint down, recycling its accumulator's bitmap
    /// backing stores into `arena` so the next slide's set promotions skip
    /// the global allocator (the expiry path of the slide loops).
    pub fn recycle_into(self, arena: &mut WordArena) {
        self.accumulator.recycle_into(arena);
    }

    /// The influence value of the checkpoint's current candidate solution
    /// (the overloaded `Λ_t[i]` of the paper).
    #[inline]
    pub fn value(&self) -> f64 {
        self.oracle.value()
    }

    /// The checkpoint's current solution.
    pub fn solution(&self) -> Solution {
        Solution {
            seeds: self.oracle.seeds(),
            value: self.oracle.value(),
        }
    }

    /// Number of oracle element updates performed so far.
    #[inline]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The oracle's outcome counters (see [`OracleCounters`]).
    #[inline]
    pub fn counters(&self) -> OracleCounters {
        self.oracle.counters()
    }

    /// Number of distinct users with a non-empty influence set inside this
    /// checkpoint (memory instrumentation).
    pub fn tracked_users(&self) -> usize {
        self.accumulator.sets().len()
    }

    /// Captures the checkpoint's serializable state, or `None` if the
    /// wrapped oracle is a custom implementation without snapshot support.
    pub fn snapshot(&self) -> Option<crate::snapshot::CheckpointState> {
        Some(crate::snapshot::CheckpointState {
            start: self.start,
            updates: self.updates,
            sets: self.accumulator.sets().clone(),
            oracle: self.oracle.snapshot_state()?,
        })
    }

    /// Rehydrates a checkpoint from persisted state under the given oracle
    /// configuration (the engine's `k`/`β`).
    pub fn from_state(state: crate::snapshot::CheckpointState, config: OracleConfig) -> Self {
        Checkpoint {
            start: state.start,
            accumulator: rtim_stream::InfluenceAccumulator::from_sets(state.sets),
            oracle: state.oracle.restore(config),
            updates: state.updates,
            scratch: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::UserId;

    const UNIT: DenseWeights<'static> = DenseWeights::Unit;

    fn resolved(id: u64, actor: u32, ancestors: &[u32]) -> ResolvedAction {
        ResolvedAction {
            id,
            actor: UserId(actor),
            ancestors: ancestors.iter().map(|&u| UserId(u)).collect(),
        }
    }

    /// The Figure-1 stream as resolved actions.
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

    fn checkpoint(start: u64, k: usize, beta: f64) -> Checkpoint {
        Checkpoint::new(
            start,
            OracleKind::SieveStreaming,
            OracleConfig::new(k, beta),
        )
    }

    #[test]
    fn figure3_checkpoint_lambda_8_1() {
        // Λ_8[1] observes a1..a8 and, per Figure 2/3, reports value 5 with
        // seeds {u1, u3} for k = 2, β = 0.3.
        let mut cp = checkpoint(1, 2, 0.3);
        for a in figure1_resolved().into_iter().take(8) {
            cp.process(&a, &UNIT);
        }
        assert_eq!(cp.value(), 5.0);
        // Several seed pairs achieve the optimum value of 5 on this window
        // ({u1,u3} in the paper's run, {u1,u5} is equally optimal); we only
        // require an optimal-value pair of at most k seeds.
        let seeds = cp.solution().seeds;
        assert_eq!(seeds.len(), 2);
        assert_eq!(cp.start(), 1);
        assert!(cp.updates() > 0);
        assert_eq!(cp.tracked_users(), 5);
    }

    #[test]
    fn figure2_checkpoint_values_at_time_8() {
        // The IC row at t=8 in Figure 2: Λ_8[i] values 5,5,4,4,3,3,2,1 for
        // checkpoints starting at actions 1..8 (k = 2).
        let expected = [5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 1.0];
        let stream = figure1_resolved();
        for (i, want) in expected.iter().enumerate() {
            let start = (i + 1) as u64;
            let mut cp = checkpoint(start, 2, 0.3);
            for a in stream.iter().filter(|a| a.id >= start).take(8 - i) {
                cp.process(a, &UNIT);
            }
            assert_eq!(cp.value(), *want, "checkpoint starting at {start}");
        }
    }

    #[test]
    fn figure2_checkpoint_values_at_time_10() {
        // The IC row at t=10: Λ_10[i] for starts 3..10 = 6,6,5,5,4,3,2,1.
        let expected = [6.0, 6.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let stream = figure1_resolved();
        for (i, want) in expected.iter().enumerate() {
            let start = (i + 3) as u64;
            let mut cp = checkpoint(start, 2, 0.3);
            for a in stream.iter().filter(|a| a.id >= start) {
                cp.process(a, &UNIT);
            }
            assert_eq!(cp.value(), *want, "checkpoint starting at {start}");
        }
    }

    #[test]
    fn expiry_is_relative_to_window_start() {
        let cp = checkpoint(5, 2, 0.1);
        assert!(!cp.is_expired(5));
        assert!(!cp.is_expired(3));
        assert!(cp.is_expired(6));
    }

    #[test]
    fn value_is_monotone_as_actions_arrive() {
        let mut cp = checkpoint(1, 2, 0.2);
        let mut last = 0.0;
        for a in figure1_resolved() {
            cp.process(&a, &UNIT);
            assert!(cp.value() + 1e-9 >= last);
            last = cp.value();
        }
    }

    #[test]
    fn independently_fed_checkpoints_agree() {
        let mut cps = [checkpoint(1, 2, 0.2), checkpoint(1, 2, 0.2)];
        let stream = figure1_resolved();
        for action in &stream[..4] {
            for cp in cps.iter_mut() {
                cp.process(action, &UNIT);
            }
        }
        assert_eq!(cps[0].value(), cps[1].value());
        assert!(cps[0].value() > 0.0);
    }

    #[test]
    fn weighted_checkpoint_uses_the_dense_table() {
        // Users are (already) dense 1..=6 here; weight user 4 at 10.0.
        let mut table = vec![1.0; 7];
        table[4] = 10.0;
        let w = DenseWeights::Table(&table);
        let mut cp = checkpoint(1, 2, 0.3);
        for a in figure1_resolved().into_iter().take(8) {
            cp.process(&a, &w);
        }
        // Optimal coverage {u1,u3} covers users {1,2,3,4,5} = 4·1 + 10 = 14;
        // SieveStreaming guarantees (1/2 − β) of it and in practice lands on
        // at least I(3)'s 13 here.  The point: user 4's table weight counts.
        assert!(cp.value() >= 13.0 && cp.value() <= 14.0, "{}", cp.value());
    }
}

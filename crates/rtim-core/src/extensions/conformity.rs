//! Conformity-aware SIM (Appendix A).
//!
//! The conformity-aware influence function weights every influenced user
//! `u'` by a score derived from offline influence (`Φ`) and conformity
//! (`Ω`) values.  Appendix A's exact formulation couples the weight to the
//! seed set; this implementation uses the standard per-user decomposition
//! `w(u') = Ω(u')` (an influenced user contributes its conformity score),
//! which keeps the objective a weighted-coverage function — monotone and
//! submodular — so all IC/SIC guarantees apply verbatim.  The scores evolve
//! slowly in practice (the paper recommends treating them as constants and
//! recomputing offline periodically), which is exactly how
//! [`ConformityScores::weight`] is meant to be used: rebuild it when the
//! offline scores are refreshed and start a new engine.

use rtim_stream::UserId;
use rtim_submodular::MapWeight;
use std::collections::HashMap;

/// Offline influence/conformity scores of users.
#[derive(Debug, Clone, Default)]
pub struct ConformityScores {
    /// Influence scores `Φ(u)` (how strongly `u` influences others).
    influence: HashMap<UserId, f64>,
    /// Conformity scores `Ω(u)` (how easily `u` is influenced).
    conformity: HashMap<UserId, f64>,
}

impl ConformityScores {
    /// Creates an empty score table (all users default to score 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the influence score `Φ(u)`.
    pub fn set_influence(&mut self, user: UserId, phi: f64) {
        self.influence.insert(user, phi.max(0.0));
    }

    /// Sets the conformity score `Ω(u)`.
    pub fn set_conformity(&mut self, user: UserId, omega: f64) {
        self.conformity.insert(user, omega.max(0.0));
    }

    /// The influence score `Φ(u)` (default 1).
    pub fn influence(&self, user: UserId) -> f64 {
        self.influence.get(&user).copied().unwrap_or(1.0)
    }

    /// The conformity score `Ω(u)` (default 1).
    pub fn conformity(&self, user: UserId) -> f64 {
        self.conformity.get(&user).copied().unwrap_or(1.0)
    }

    /// Builds the element weight for the conformity-aware influence
    /// function: an influenced user contributes its conformity score.
    pub fn weight(&self) -> MapWeight {
        MapWeight::new(self.conformity.clone(), 1.0)
    }

    /// Number of users with an explicit score of either kind.
    pub fn len(&self) -> usize {
        let mut users: std::collections::HashSet<UserId> = self.influence.keys().copied().collect();
        users.extend(self.conformity.keys().copied());
        users.len()
    }

    /// `true` if no explicit score is stored.
    pub fn is_empty(&self) -> bool {
        self.influence.is_empty() && self.conformity.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, SimEngine};
    use rtim_stream::Action;
    use rtim_submodular::ElementWeight;

    #[test]
    fn scores_default_to_one_and_clamp_negatives() {
        let mut s = ConformityScores::new();
        assert!(s.is_empty());
        s.set_influence(UserId(1), 2.0);
        s.set_conformity(UserId(2), -3.0);
        assert_eq!(s.influence(UserId(1)), 2.0);
        assert_eq!(s.influence(UserId(9)), 1.0);
        assert_eq!(s.conformity(UserId(2)), 0.0);
        assert_eq!(s.conformity(UserId(9)), 1.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn weight_reflects_conformity() {
        let mut s = ConformityScores::new();
        s.set_conformity(UserId(3), 5.0);
        let w = s.weight();
        assert_eq!(w.weight(UserId(3)), 5.0);
        assert_eq!(w.weight(UserId(4)), 1.0);
    }

    #[test]
    fn conformity_aware_engine_runs() {
        let mut s = ConformityScores::new();
        s.set_conformity(UserId(2), 10.0);
        let mut engine = SimEngine::new_sic_weighted(SimConfig::new(2, 0.2, 8, 1), s.weight());
        let actions = vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
        ];
        for a in actions {
            engine.process_slide(&[a]);
        }
        // u1 influences u2 (weight 10) and itself (weight 1): value ≥ 11.
        assert!(engine.query().value >= 11.0);
    }
}

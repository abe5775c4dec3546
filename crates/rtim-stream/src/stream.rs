//! In-memory social streams and batched iteration.
//!
//! Experiments replay a finite, pre-generated action trace; [`SocialStream`]
//! owns such a trace, validates its structural invariants, and exposes
//! batched iteration matching the multi-action window slides of §5.3
//! (each slide delivers `L` new actions).

use crate::action::{Action, ActionId, UserId};
use std::collections::HashSet;

/// Summary statistics of a finite action trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Total number of actions.
    pub actions: u64,
    /// Number of distinct users performing at least one action.
    pub distinct_users: u64,
    /// Number of root actions.
    pub roots: u64,
    /// Mean response distance `t - t'` over reply actions.
    pub avg_response_distance: f64,
    /// Maximum user id + 1 (useful for sizing dense arrays).
    pub user_id_bound: u32,
}

/// A finite, in-memory social action stream.
///
/// Actions must have strictly increasing ids and parents must reference
/// earlier actions present in the stream (validated by
/// [`SocialStream::new`]).
#[derive(Debug, Clone, Default)]
pub struct SocialStream {
    actions: Vec<Action>,
}

impl SocialStream {
    /// Wraps a validated action trace.
    ///
    /// # Errors
    /// Returns a description of the first structural violation found:
    /// non-increasing ids or a parent reference to a missing/future action.
    pub fn new(actions: Vec<Action>) -> Result<Self, String> {
        let mut seen: HashSet<ActionId> = HashSet::with_capacity(actions.len());
        let mut last: Option<ActionId> = None;
        for a in &actions {
            if let Some(prev) = last {
                if a.id <= prev {
                    return Err(format!(
                        "action ids must be strictly increasing: {} after {}",
                        a.id, prev
                    ));
                }
            }
            if let Some(p) = a.parent {
                if p >= a.id {
                    return Err(format!(
                        "action {} replies to a non-earlier action {}",
                        a.id, p
                    ));
                }
                if !seen.contains(&p) {
                    return Err(format!("action {} replies to unknown action {}", a.id, p));
                }
            }
            seen.insert(a.id);
            last = Some(a.id);
        }
        Ok(SocialStream { actions })
    }

    /// Wraps a trace without validation (for generators that construct
    /// streams correct by construction).
    pub fn new_unchecked(actions: Vec<Action>) -> Self {
        SocialStream { actions }
    }

    /// Number of actions in the trace.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The underlying actions, oldest first.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Iterates actions oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Action> {
        self.actions.iter()
    }

    /// Iterates the stream in consecutive batches of `slide` actions
    /// (the last batch may be shorter).
    pub fn batches(&self, slide: usize) -> ActionBatchIter<'_> {
        assert!(slide > 0, "slide length L must be positive");
        ActionBatchIter {
            actions: &self.actions,
            pos: 0,
            slide,
        }
    }

    /// Computes summary statistics of the trace.
    pub fn stats(&self) -> StreamStats {
        let mut users: HashSet<UserId> = HashSet::new();
        let mut roots = 0u64;
        let mut dist_sum = 0u64;
        let mut replies = 0u64;
        let mut bound = 0u32;
        for a in &self.actions {
            users.insert(a.user);
            bound = bound.max(a.user.0 + 1);
            match a.parent {
                None => roots += 1,
                Some(p) => {
                    dist_sum += a.id.0.saturating_sub(p.0);
                    replies += 1;
                }
            }
        }
        StreamStats {
            actions: self.actions.len() as u64,
            distinct_users: users.len() as u64,
            roots,
            avg_response_distance: if replies == 0 {
                0.0
            } else {
                dist_sum as f64 / replies as f64
            },
            user_id_bound: bound,
        }
    }
}

/// Iterator over consecutive slide-sized batches of a [`SocialStream`].
#[derive(Debug, Clone)]
pub struct ActionBatchIter<'a> {
    actions: &'a [Action],
    pos: usize,
    slide: usize,
}

impl<'a> Iterator for ActionBatchIter<'a> {
    type Item = &'a [Action];

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.actions.len() {
            return None;
        }
        let end = (self.pos + self.slide).min(self.actions.len());
        let batch = &self.actions[self.pos..end];
        self.pos = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Action> {
        vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
            Action::reply(4u64, 3u32, 1u64),
            Action::reply(5u64, 4u32, 3u64),
        ]
    }

    #[test]
    fn validation_accepts_well_formed_traces() {
        let s = SocialStream::new(trace()).unwrap();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn validation_rejects_non_increasing_ids() {
        let mut t = trace();
        t[2] = Action::root(2u64, 9u32);
        assert!(SocialStream::new(t).is_err());
    }

    #[test]
    fn validation_rejects_unknown_parent() {
        let t = vec![Action::root(1u64, 1u32), Action::reply(3u64, 2u32, 2u64)];
        assert!(SocialStream::new(t).is_err());
    }

    #[test]
    fn batches_cover_stream_exactly_once() {
        let s = SocialStream::new(trace()).unwrap();
        let batches: Vec<_> = s.batches(2).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[2].len(), 1);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn stats_summarize_trace() {
        let s = SocialStream::new(trace()).unwrap();
        let st = s.stats();
        assert_eq!(st.actions, 5);
        assert_eq!(st.distinct_users, 4);
        assert_eq!(st.roots, 2);
        assert_eq!(st.user_id_bound, 5);
        // reply distances: 1, 3, 2 -> mean 2.0
        assert!((st.avg_response_distance - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_slide_panics() {
        let s = SocialStream::new(trace()).unwrap();
        let _ = s.batches(0);
    }
}

//! Reddit-like and Twitter-like stream simulators.
//!
//! The paper's two real-world traces are not redistributable (a Kaggle dump
//! of all May-2015 Reddit comments and a week-long Twitter crawl), so these
//! simulators generate streams that match the *published statistics* of the
//! traces (Table 3): user counts, average cascade depth and average response
//! distance.  The SIM/IC/SIC algorithms only observe the reply structure of
//! the stream, so matching these statistics exercises the same code paths
//! with the same per-action cost profile (see DESIGN.md §2).
//!
//! Generation model:
//!
//! 1. Each action's *cascade position* is drawn from a geometric
//!    distribution whose mean equals the target average depth (Reddit ≈ 4.6,
//!    Twitter ≈ 1.9).  Position 1 means a root action.
//! 2. A reply at position `p` attaches to a recent action at position
//!    `p − 1`; recency is controlled so the mean response distance matches
//!    the target (expressed as a fraction of the stream length so scaled
//!    runs keep the same window dynamics).
//! 3. Users are drawn from a power-law activity distribution (a few users
//!    produce most actions, as in both real platforms).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtim_stream::{Action, SocialStream, UserId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which real-world trace to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SocialSimKind {
    /// Deep cascades (avg depth ≈ 4.6), long response distances — imitates
    /// the Reddit May-2015 comment trace.
    RedditLike,
    /// Shallow cascades (avg depth ≈ 1.9), shorter response distances —
    /// imitates the Twitter trending-topic crawl.
    TwitterLike,
}

impl SocialSimKind {
    /// Target average cascade depth (Table 3).
    pub fn target_depth(self) -> f64 {
        match self {
            SocialSimKind::RedditLike => 4.58,
            SocialSimKind::TwitterLike => 1.87,
        }
    }

    /// Target mean response distance as a fraction of the stream length
    /// (Table 3: 404 714 / 48.1 M ≈ 0.84 %, 294 609 / 9.72 M ≈ 3.0 %).
    pub fn target_distance_fraction(self) -> f64 {
        match self {
            SocialSimKind::RedditLike => 404_714.9 / 48_104_875.0,
            SocialSimKind::TwitterLike => 294_609.4 / 9_724_908.0,
        }
    }

    /// Dataset name used in figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            SocialSimKind::RedditLike => "Reddit",
            SocialSimKind::TwitterLike => "Twitter",
        }
    }
}

/// Configuration of the social-trace simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocialSimConfig {
    /// Which platform to imitate.
    pub kind: SocialSimKind,
    /// Number of users.
    pub users: u32,
    /// Number of actions to generate.
    pub actions: u64,
    /// Power-law exponent of user activity (larger = more skewed).
    pub activity_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SocialSimConfig {
    /// Paper-scale configuration matching the original trace sizes.
    pub fn paper(kind: SocialSimKind) -> Self {
        match kind {
            SocialSimKind::RedditLike => SocialSimConfig {
                kind,
                users: 2_628_904,
                actions: 48_104_875,
                activity_skew: 3.0,
                seed: 0x5eed_0002,
            },
            SocialSimKind::TwitterLike => SocialSimConfig {
                kind,
                users: 2_881_154,
                actions: 9_724_908,
                activity_skew: 3.0,
                seed: 0x5eed_0003,
            },
        }
    }

    /// Laptop-scale configuration with `scale` ∈ (0, 1].
    pub fn scaled(kind: SocialSimKind, scale: f64) -> Self {
        let scale = scale.clamp(1e-5, 1.0);
        let mut cfg = Self::paper(kind);
        cfg.users = ((cfg.users as f64 * scale).ceil() as u32).max(100);
        cfg.actions = ((cfg.actions as f64 * scale).ceil() as u64).max(1_000);
        cfg
    }

    /// Generates the simulated trace.
    pub fn generate(&self) -> SocialStream {
        assert!(self.users > 0 && self.actions > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Geometric success probability so that the mean cascade position
        // equals the target depth.
        let p_stop = 1.0 / self.kind.target_depth();
        // Per-depth buffers of recent action ids; their retention span
        // controls the response-distance distribution (mean of a uniform
        // draw over the last `span` actions is span/2).
        let span = ((self.actions as f64 * self.kind.target_distance_fraction() * 2.0).ceil()
            as usize)
            .clamp(8, 4_000_000);
        let mut by_depth: Vec<VecDeque<u64>> = Vec::new(); // recent action ids per depth level

        let mut actions: Vec<Action> = Vec::with_capacity(self.actions as usize);
        for t in 1..=self.actions {
            // Desired cascade position (1 = root).
            let mut position = 1u32;
            while position < 64 && !rng.gen_bool(p_stop) {
                position += 1;
            }
            let user = self.sample_user(&mut rng);
            // Find a parent at position - 1 (or the deepest shallower level
            // available); fall back to a root if none exists.  The parent's
            // depth is known from the level it was drawn from.
            let parent: Option<(u64, u32)> = if position == 1 || by_depth.is_empty() {
                None
            } else {
                let want = (position - 2) as usize; // depth d is stored at index d-1
                (0..=want.min(by_depth.len() - 1)).rev().find_map(|lvl| {
                    let buf = &by_depth[lvl];
                    if buf.is_empty() {
                        None
                    } else {
                        let i = rng.gen_range(0..buf.len());
                        Some((buf[i], (lvl + 1) as u32))
                    }
                })
            };
            let (action, depth) = match parent {
                Some((pid, parent_depth)) => (Action::reply(t, user, pid), parent_depth + 1),
                None => (Action::root(t, user), 1u32),
            };
            let lvl = (depth - 1) as usize;
            if by_depth.len() <= lvl {
                by_depth.resize_with(lvl + 1, VecDeque::new);
            }
            let buf = &mut by_depth[lvl];
            buf.push_back(t);
            // Evict entries outside the recency span (bounded per level).
            let per_level_cap = (span / (lvl + 1)).max(4);
            while buf.len() > per_level_cap
                || buf
                    .front()
                    .is_some_and(|&id| t.saturating_sub(id) > span as u64)
            {
                buf.pop_front();
            }
            actions.push(action);
        }
        SocialStream::new_unchecked(actions)
    }

    /// Power-law user sampling: user `⌊n · r^s⌋` for uniform `r` concentrates
    /// activity on low ids for `s > 1`.
    fn sample_user<R: Rng + ?Sized>(&self, rng: &mut R) -> UserId {
        let r: f64 = rng.gen();
        let id = (self.users as f64 * r.powf(self.activity_skew)).floor() as u32;
        UserId(id.min(self.users - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::PropagationIndex;

    fn small(kind: SocialSimKind) -> SocialSimConfig {
        SocialSimConfig {
            kind,
            users: 2_000,
            actions: 30_000,
            activity_skew: 3.0,
            seed: 123,
        }
    }

    fn avg_depth(stream: &SocialStream) -> f64 {
        let mut idx = PropagationIndex::new();
        for a in stream.iter() {
            idx.insert(a);
        }
        idx.stats().avg_depth()
    }

    #[test]
    fn reddit_like_is_deeper_than_twitter_like() {
        let r = small(SocialSimKind::RedditLike).generate();
        let t = small(SocialSimKind::TwitterLike).generate();
        let dr = avg_depth(&r);
        let dt = avg_depth(&t);
        assert!(dr > dt + 0.5, "reddit depth {dr} vs twitter depth {dt}");
    }

    #[test]
    fn depths_are_near_targets() {
        let r = small(SocialSimKind::RedditLike).generate();
        let dr = avg_depth(&r);
        assert!((dr - 4.58).abs() < 1.6, "reddit-like avg depth {dr}");
        let t = small(SocialSimKind::TwitterLike).generate();
        let dt = avg_depth(&t);
        assert!((dt - 1.87).abs() < 0.7, "twitter-like avg depth {dt}");
    }

    #[test]
    fn streams_are_structurally_valid() {
        let s = small(SocialSimKind::RedditLike).generate();
        assert!(SocialStream::new(s.actions().to_vec()).is_ok());
        assert_eq!(s.len(), 30_000);
    }

    #[test]
    fn activity_is_skewed_toward_few_users() {
        let s = small(SocialSimKind::TwitterLike).generate();
        let mut counts = vec![0u32; 2_000];
        for a in s.iter() {
            counts[a.user.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u32 = counts.iter().take(200).sum();
        assert!(
            top_decile as f64 > 0.4 * s.len() as f64,
            "top 10% of users only produced {top_decile} actions"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = small(SocialSimKind::RedditLike).generate();
        let b = small(SocialSimKind::RedditLike).generate();
        assert_eq!(a.actions()[..50], b.actions()[..50]);
    }

    #[test]
    fn scaled_paper_config_reduces_size() {
        let cfg = SocialSimConfig::scaled(SocialSimKind::RedditLike, 0.001);
        assert!(cfg.actions < 100_000);
        assert!(cfg.users < 10_000);
        assert_eq!(SocialSimKind::RedditLike.name(), "Reddit");
    }
}

//! Unified dataset selection: the four datasets of §6.1 behind one config.
//!
//! Every experiment binary takes a [`DatasetKind`] and a [`Scale`]; the
//! paper-scale sizes match Table 3, the laptop scales shrink the stream
//! while preserving the ratios that drive the algorithms' behaviour
//! (response distance vs. stream length, users vs. actions).

use crate::social_sim::{SocialSimConfig, SocialSimKind};
use crate::synthetic::{SyntheticConfig, SyntheticKind};
use rtim_stream::SocialStream;
use serde::{Deserialize, Serialize};

/// One of the paper's four evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Reddit-like simulated trace (deep cascades).
    Reddit,
    /// Twitter-like simulated trace (shallow cascades).
    Twitter,
    /// Synthetic stream, exponential response distance, λ = 2·10⁻⁶.
    SynO,
    /// Synthetic stream, exponential response distance, λ = 2·10⁻⁴.
    SynN,
}

impl DatasetKind {
    /// All four datasets in the order used by the paper's figures (a–d).
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Reddit,
            DatasetKind::Twitter,
            DatasetKind::SynO,
            DatasetKind::SynN,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Reddit => "Reddit",
            DatasetKind::Twitter => "Twitter",
            DatasetKind::SynO => "SYN-O",
            DatasetKind::SynN => "SYN-N",
        }
    }

    /// Parses a dataset name (case-insensitive, accepts `syn-o`/`syno`).
    pub fn parse(s: &str) -> Option<DatasetKind> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "reddit" => Some(DatasetKind::Reddit),
            "twitter" => Some(DatasetKind::Twitter),
            "syn-o" | "syno" => Some(DatasetKind::SynO),
            "syn-n" | "synn" => Some(DatasetKind::SynN),
            _ => None,
        }
    }
}

/// How large a stream to generate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scale {
    /// Full paper-scale sizes (tens of millions of actions) — hours of
    /// generation and processing; intended for offline reproduction runs.
    Paper,
    /// ~1% of paper scale: minutes per experiment.
    Medium,
    /// ~0.1–0.5% of paper scale: seconds per experiment (default for the
    /// bundled experiment binaries and benches).
    Small,
    /// Custom fraction of paper scale.
    Fraction(f64),
}

impl Scale {
    /// The fraction of paper scale this setting corresponds to.
    pub fn fraction(self) -> f64 {
        match self {
            Scale::Paper => 1.0,
            Scale::Medium => 0.01,
            Scale::Small => 0.002,
            Scale::Fraction(f) => f.clamp(1e-5, 1.0),
        }
    }

    /// Parses `paper`, `medium`, `small` or a numeric fraction.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "paper" | "full" => Some(Scale::Paper),
            "medium" => Some(Scale::Medium),
            "small" => Some(Scale::Small),
            other => other.parse::<f64>().ok().map(Scale::Fraction),
        }
    }
}

/// A fully specified dataset request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Which dataset to generate.
    pub kind: DatasetKind,
    /// Size of the generated stream.
    pub scale: Scale,
    /// RNG seed override (`None` keeps the per-dataset default so different
    /// datasets stay decorrelated).
    pub seed: Option<u64>,
    /// Override of the number of users (used by the |U|-scalability sweep).
    pub users: Option<u32>,
    /// Override of the number of actions.
    pub actions: Option<u64>,
}

impl DatasetConfig {
    /// A dataset at the given scale with default seed and sizes.
    pub fn new(kind: DatasetKind, scale: Scale) -> Self {
        DatasetConfig {
            kind,
            scale,
            seed: None,
            users: None,
            actions: None,
        }
    }

    /// Sets an explicit user count (for the Figure-12 sweep).
    pub fn with_users(mut self, users: u32) -> Self {
        self.users = Some(users);
        self
    }

    /// Sets an explicit action count.
    pub fn with_actions(mut self, actions: u64) -> Self {
        self.actions = Some(actions);
        self
    }

    /// Sets an explicit RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Generates the action stream.
    pub fn generate(&self) -> SocialStream {
        let f = self.scale.fraction();
        match self.kind {
            DatasetKind::Reddit | DatasetKind::Twitter => {
                let kind = if self.kind == DatasetKind::Reddit {
                    SocialSimKind::RedditLike
                } else {
                    SocialSimKind::TwitterLike
                };
                let mut cfg = SocialSimConfig::scaled(kind, f);
                if let Some(u) = self.users {
                    cfg.users = u;
                }
                if let Some(a) = self.actions {
                    cfg.actions = a;
                }
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.generate()
            }
            DatasetKind::SynO | DatasetKind::SynN => {
                let kind = if self.kind == DatasetKind::SynO {
                    SyntheticKind::SynO
                } else {
                    SyntheticKind::SynN
                };
                let mut cfg = SyntheticConfig::scaled(kind, f);
                if let Some(u) = self.users {
                    cfg.users = u;
                }
                if let Some(a) = self.actions {
                    cfg.actions = a;
                }
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.generate()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_datasets_generate_at_tiny_scale() {
        for kind in DatasetKind::all() {
            let stream = DatasetConfig::new(kind, Scale::Fraction(0.0002))
                .with_actions(5_000)
                .with_users(1_000)
                .generate();
            assert_eq!(stream.len(), 5_000, "{}", kind.name());
            assert!(SocialStream::new(stream.actions().to_vec()).is_ok());
        }
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(DatasetKind::parse("reddit"), Some(DatasetKind::Reddit));
        assert_eq!(DatasetKind::parse("SYN-O"), Some(DatasetKind::SynO));
        assert_eq!(DatasetKind::parse("syn_n"), Some(DatasetKind::SynN));
        assert_eq!(DatasetKind::parse("bogus"), None);
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert!(
            matches!(Scale::parse("0.05"), Some(Scale::Fraction(f)) if (f - 0.05).abs() < 1e-12)
        );
        assert_eq!(Scale::parse("wat"), None);
    }

    #[test]
    fn overrides_apply() {
        let cfg = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
            .with_users(123)
            .with_actions(2_000)
            .with_seed(7);
        let s = cfg.generate();
        assert_eq!(s.len(), 2_000);
        assert!(s.stats().user_id_bound <= 123);
    }

    #[test]
    fn scales_shrink_fraction() {
        assert!(Scale::Small.fraction() < Scale::Medium.fraction());
        assert_eq!(Scale::Paper.fraction(), 1.0);
    }
}

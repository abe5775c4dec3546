//! SIM query configuration.

use rtim_submodular::{OracleConfig, OracleKind};
use serde::{Deserialize, Serialize};

/// Configuration of a continuous SIM query (Definition 2 plus the framework
/// parameters of §4–§5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed-set cardinality constraint `k`.
    pub k: usize,
    /// Accuracy/efficiency trade-off `β ∈ (0, 1)` shared by the checkpoint
    /// oracle (SieveStreaming's guess grid) and SIC's pruning rule.
    pub beta: f64,
    /// Sliding-window size `N` (number of most recent actions considered).
    pub window_size: usize,
    /// Slide length `L`: number of actions per window shift (§5.3).
    pub slide: usize,
    /// Which streaming-submodular oracle backs each checkpoint (Table 2).
    pub oracle: OracleKind,
    /// Number of shards used to update checkpoints per slide (1 = inline
    /// on the calling thread, no worker threads; see [`crate::pool`]).
    pub threads: usize,
}

impl SimConfig {
    /// Creates a configuration with the default SieveStreaming oracle.
    ///
    /// # Panics
    /// Panics if `k == 0`, `window_size == 0`, `slide == 0` or
    /// `slide > window_size`.
    pub fn new(k: usize, beta: f64, window_size: usize, slide: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(window_size > 0, "window size N must be positive");
        assert!(slide > 0, "slide length L must be positive");
        assert!(
            slide <= window_size,
            "slide length L must not exceed the window size N"
        );
        SimConfig {
            k,
            beta: beta.clamp(1e-6, 0.999_999),
            window_size,
            slide,
            oracle: OracleKind::SieveStreaming,
            threads: 1,
        }
    }

    /// Selects a different checkpoint oracle.
    pub fn with_oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }

    /// Enables parallel checkpoint updates with the given worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The paper's default parameters (Table 4, defaults in bold): `k = 50`,
    /// `β = 0.1`, `N = 250 000`, `L = 5 000`.
    pub fn paper_defaults() -> Self {
        SimConfig::new(50, 0.1, 250_000, 5_000)
    }

    /// Number of checkpoints the IC framework maintains: `⌈N / L⌉`.
    pub fn checkpoint_capacity(&self) -> usize {
        self.window_size.div_ceil(self.slide)
    }

    /// The oracle configuration derived from this SIM configuration.
    pub fn oracle_config(&self) -> OracleConfig {
        OracleConfig::new(self.k, self.beta)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_capacity_is_ceiling() {
        assert_eq!(SimConfig::new(5, 0.1, 10, 5).checkpoint_capacity(), 2);
        assert_eq!(SimConfig::new(5, 0.1, 10, 3).checkpoint_capacity(), 4);
        assert_eq!(SimConfig::new(5, 0.1, 10, 10).checkpoint_capacity(), 1);
    }

    #[test]
    fn paper_defaults_match_table4() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.k, 50);
        assert_eq!(c.window_size, 250_000);
        assert_eq!(c.slide, 5_000);
        assert_eq!(c.checkpoint_capacity(), 50);
        assert_eq!(c.oracle, OracleKind::SieveStreaming);
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn oracle_config_propagates_k_and_beta() {
        let c = SimConfig::new(7, 0.25, 100, 10);
        let oc = c.oracle_config();
        assert_eq!(oc.k, 7);
        assert!((oc.beta - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn slide_larger_than_window_rejected() {
        let _ = SimConfig::new(5, 0.1, 10, 11);
    }

    #[test]
    fn beta_is_clamped() {
        let c = SimConfig::new(1, 5.0, 10, 1);
        assert!(c.beta < 1.0);
    }
}

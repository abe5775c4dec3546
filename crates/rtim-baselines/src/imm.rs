//! IMM — Influence Maximization via Martingales (Tang, Shi, Xiao 2015).
//!
//! IMM is the state-of-the-art *static* influence-maximization algorithm the
//! paper uses as its quality/throughput baseline (§6.1, `ε = 0.5`, `l = 1`).
//! It consists of two phases over a fixed influence graph:
//!
//! 1. **Sampling** — estimate a lower bound `LB` on the optimal spread
//!    `OPT_k` by iteratively halving a guess `x` and checking whether the
//!    greedy solution over the current reverse-reachable (RR) sets covers
//!    enough of them; then sample `θ = λ* / LB` RR sets in total, where `λ*`
//!    is the martingale-derived constant of Theorem 4 of the IMM paper.
//! 2. **Node selection** — run greedy maximum coverage over the sampled RR
//!    sets and return the `k` chosen nodes.
//!
//! The result is a `(1 − 1/e − ε)`-approximation with probability
//! `1 − 1/n^l`.  The implementation caps the total number of RR sets
//! (`max_rr_sets`) so that degenerate windows (tiny optima) cannot stall an
//! experiment sweep; the cap is far above what the paper-scale sweeps need.

use rand::Rng;
use rtim_graph::{greedy_over_rr_sets, InfluenceGraph, RrCollection};
use rtim_stream::UserId;

/// Result of one IMM invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmResult {
    /// The selected seed users (at most `k`).
    pub seeds: Vec<UserId>,
    /// Estimated spread `n · F(S)` of the selected seeds.
    pub estimated_spread: f64,
    /// Number of RR sets sampled in total.
    pub rr_sets: usize,
}

/// The IMM algorithm with the paper's parameterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imm {
    /// Seed-set size `k`.
    pub k: usize,
    /// Accuracy parameter `ε` (the paper's experiments use 0.5).
    pub epsilon: f64,
    /// Confidence parameter `l` (the paper's experiments use 1).
    pub ell: f64,
    /// Hard cap on the number of RR sets (resource guard).
    pub max_rr_sets: usize,
}

impl Imm {
    /// IMM with the paper's experiment parameters (`ε = 0.5`, `l = 1`).
    pub fn new(k: usize) -> Self {
        Imm {
            k,
            epsilon: 0.5,
            ell: 1.0,
            max_rr_sets: 2_000_000,
        }
    }

    /// Overrides the accuracy parameter `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.clamp(0.05, 1.0);
        self
    }

    /// Overrides the RR-set cap.
    pub fn with_max_rr_sets(mut self, cap: usize) -> Self {
        self.max_rr_sets = cap.max(1);
        self
    }

    /// Runs IMM on the given influence graph.
    pub fn select<R: Rng + ?Sized>(&self, graph: &InfluenceGraph, rng: &mut R) -> ImmResult {
        let n = graph.node_count();
        if n == 0 || self.k == 0 {
            return ImmResult {
                seeds: Vec::new(),
                estimated_spread: 0.0,
                rr_sets: 0,
            };
        }
        let k = self.k.min(n);
        let nf = n as f64;
        // l is inflated so the overall failure probability stays 1/n^l after
        // the union bound over both phases (IMM paper, remark after Thm 2).
        let ell = self.ell * (1.0 + 2f64.ln() / nf.ln().max(1.0));
        let logcnk = log_binomial(n, k);
        let eps_prime = std::f64::consts::SQRT_2 * self.epsilon;

        let mut rr = RrCollection::new(n);
        let mut lb = 1.0;
        let max_rounds = (nf.log2().ceil() as usize).max(1);

        // Phase 1: estimate a lower bound on OPT_k.
        for i in 1..max_rounds {
            let x = nf / 2f64.powi(i as i32);
            let lambda_prime = (2.0 + 2.0 / 3.0 * eps_prime)
                * (logcnk + ell * nf.ln() + (nf.log2().max(1.0)).ln())
                * nf
                / (eps_prime * eps_prime);
            let theta_i = ((lambda_prime / x).ceil() as usize).min(self.max_rr_sets);
            rr.sample_to(graph, theta_i, rng);
            let (_, coverage) = greedy_over_rr_sets(graph, &rr, k);
            if nf * coverage >= (1.0 + eps_prime) * x {
                lb = nf * coverage / (1.0 + eps_prime);
                break;
            }
        }

        // Phase 1b: the final RR-set count θ = λ* / LB.
        let alpha = (ell * nf.ln() + 2f64.ln()).sqrt();
        let beta =
            ((1.0 - 1.0 / std::f64::consts::E) * (logcnk + ell * nf.ln() + 2f64.ln())).sqrt();
        let lambda_star = 2.0 * nf * ((1.0 - 1.0 / std::f64::consts::E) * alpha + beta).powi(2)
            / (self.epsilon * self.epsilon);
        let theta = ((lambda_star / lb.max(1.0)).ceil() as usize).min(self.max_rr_sets);
        rr.sample_to(graph, theta, rng);

        // Phase 2: node selection.
        let (seeds, coverage) = greedy_over_rr_sets(graph, &rr, k);
        ImmResult {
            estimated_spread: nf * coverage,
            rr_sets: rr.len(),
            seeds,
        }
    }
}

/// `ln C(n, k)` computed stably.
fn log_binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k.min(n));
    (0..k)
        .map(|i| ((n - i) as f64).ln() - ((i + 1) as f64).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtim_graph::monte_carlo_spread;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    /// Two independent stars: hubs 0 and 100 with 10 / 6 leaves.
    fn two_stars() -> InfluenceGraph {
        let mut g = InfluenceGraph::new();
        for l in 1..=10u32 {
            g.add_edge(UserId(0), UserId(l), 1.0);
        }
        for l in 101..=106u32 {
            g.add_edge(UserId(100), UserId(l), 1.0);
        }
        g
    }

    #[test]
    fn picks_both_hubs_with_k2() {
        let g = two_stars();
        let result = Imm::new(2).with_max_rr_sets(50_000).select(&g, &mut rng());
        let mut seeds = result.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![UserId(0), UserId(100)]);
        assert!(result.rr_sets > 0);
        // Spread of both hubs is the whole graph (18 nodes).
        assert!((result.estimated_spread - 18.0).abs() < 1.5);
    }

    #[test]
    fn spread_estimate_agrees_with_monte_carlo() {
        let g = two_stars();
        let result = Imm::new(1).with_max_rr_sets(50_000).select(&g, &mut rng());
        let mc = monte_carlo_spread(&g, &result.seeds, 2_000, &mut rng());
        assert!((result.estimated_spread - mc).abs() < 1.5);
    }

    #[test]
    fn log_binomial_matches_known_values() {
        // C(10, 3) = 120.
        assert!((log_binomial(10, 3) - 120f64.ln()).abs() < 1e-9);
        // C(5, 5) = 1.
        assert!(log_binomial(5, 5).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_and_zero_k_are_safe() {
        let g = InfluenceGraph::new();
        let r = Imm::new(3).select(&g, &mut rng());
        assert!(r.seeds.is_empty());
        let g = two_stars();
        let r = Imm {
            k: 0,
            ..Imm::new(1)
        }
        .select(&g, &mut rng());
        assert!(r.seeds.is_empty());
    }

    #[test]
    fn k_larger_than_graph_is_clamped() {
        let mut g = InfluenceGraph::new();
        g.add_edge(UserId(1), UserId(2), 0.5);
        let r = Imm::new(10).with_max_rr_sets(10_000).select(&g, &mut rng());
        assert!(r.seeds.len() <= 2);
        assert!(!r.seeds.is_empty());
    }

    #[test]
    fn respects_rr_set_cap() {
        let g = two_stars();
        let r = Imm::new(2).with_max_rr_sets(500).select(&g, &mut rng());
        assert!(r.rr_sets <= 500);
        assert_eq!(r.seeds.len(), 2);
    }
}

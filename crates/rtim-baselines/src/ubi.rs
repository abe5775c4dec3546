//! UBI — Upper Bound Interchange (Chen, Song, He, Xie — SDM 2015).
//!
//! UBI is the dynamic-IM baseline of §6.1: instead of recomputing seeds from
//! scratch when the influence graph changes, it *maintains* a seed set `S`
//! and applies local interchange steps: a non-seed `u` replaces a seed `v`
//! only when the estimated spread gain exceeds an interchange threshold
//! `γ · σ(S)` (the paper keeps `γ = 0.01`).  Upper bounds on marginal gains
//! are used to prune candidate swaps.
//!
//! The original implementation estimates spreads with snapshot sketches; the
//! authors' code is not available, so this reproduction estimates spreads
//! with reverse-reachable (RR) sets sampled per window (the same substrate
//! IMM uses), which preserves the two behaviours the paper's experiments
//! rely on:
//!
//! * quality close to IMM for small `k` but degrading as `k` grows (the
//!   interchange threshold `γ·σ(S)` grows with the total spread, so useful
//!   swaps are increasingly rejected — §6.3's explanation), and
//! * per-update cost far above the streaming frameworks (every window
//!   requires fresh sketches plus candidate evaluation).
//!
//! See DESIGN.md §2 for the substitution note.

use rand::Rng;
use rtim_graph::{greedy_over_rr_sets, InfluenceGraph, RrCollection};
use rtim_stream::UserId;
use std::collections::HashSet;

/// Configuration of the UBI baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UbiConfig {
    /// Seed-set size `k`.
    pub k: usize,
    /// Interchange threshold factor `γ` (the paper uses 0.01).
    pub gamma: f64,
    /// Number of RR sets sampled per window to estimate spreads.
    pub rr_sets_per_update: usize,
    /// Maximum number of interchange passes per update.
    pub max_passes: usize,
}

impl UbiConfig {
    /// The paper's parameterization (`γ = 0.01`).
    pub fn new(k: usize) -> Self {
        UbiConfig {
            k,
            gamma: 0.01,
            rr_sets_per_update: 10_000,
            max_passes: 4,
        }
    }

    /// Overrides the per-update RR-set budget.
    pub fn with_rr_sets(mut self, rr: usize) -> Self {
        self.rr_sets_per_update = rr.max(100);
        self
    }
}

/// The UBI dynamic-IM baseline.  Keeps its seed set across windows.
#[derive(Debug, Clone)]
pub struct Ubi {
    config: UbiConfig,
    seeds: Vec<UserId>,
    /// Spread estimate of the current seed set on the last processed window.
    last_spread: f64,
    /// Total number of interchange swaps applied (instrumentation).
    swaps: u64,
}

impl Ubi {
    /// Creates an empty UBI tracker.
    pub fn new(config: UbiConfig) -> Self {
        Ubi {
            config,
            seeds: Vec::new(),
            last_spread: 0.0,
            swaps: 0,
        }
    }

    /// The current seed set.
    pub fn seeds(&self) -> &[UserId] {
        &self.seeds
    }

    /// The spread estimate of the current seed set on the last window.
    pub fn last_spread(&self) -> f64 {
        self.last_spread
    }

    /// Total number of interchange swaps applied so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Updates the seed set against the influence graph of the new window.
    /// Returns the spread estimate of the (possibly modified) seed set.
    pub fn update<R: Rng + ?Sized>(&mut self, graph: &InfluenceGraph, rng: &mut R) -> f64 {
        let n = graph.node_count();
        if n == 0 || self.config.k == 0 {
            self.last_spread = self.seeds.len() as f64;
            return self.last_spread;
        }
        // Fresh sketches for this window.
        let mut rr = RrCollection::new(n);
        rr.sample_to(graph, self.config.rr_sets_per_update, rng);

        // Drop seeds that vanished from the graph (no actions in window)
        // and (re)fill up to k greedily — this is also the cold-start path.
        self.seeds.retain(|s| graph.node_of(*s).is_some());
        if self.seeds.len() < self.config.k.min(n) {
            self.refill(graph, &rr);
        }

        // Interchange passes.
        for _ in 0..self.config.max_passes {
            if !self.interchange_pass(graph, &rr) {
                break;
            }
        }
        self.last_spread = rr.estimate_spread(graph, &self.seeds);
        self.last_spread
    }

    /// Greedily completes the seed set to `k` members using RR coverage.
    fn refill(&mut self, graph: &InfluenceGraph, rr: &RrCollection) {
        let k = self.config.k.min(graph.node_count());
        let (greedy_seeds, _) = greedy_over_rr_sets(graph, rr, k);
        let existing: HashSet<UserId> = self.seeds.iter().copied().collect();
        for s in greedy_seeds {
            if self.seeds.len() >= k {
                break;
            }
            if !existing.contains(&s) {
                self.seeds.push(s);
            }
        }
    }

    /// One interchange pass: tries the best swap; applies it when the gain
    /// exceeds `γ · σ(S)`.  Returns `true` if a swap was applied.
    fn interchange_pass(&mut self, graph: &InfluenceGraph, rr: &RrCollection) -> bool {
        let n = graph.node_count();
        let seed_nodes: Vec<usize> = self
            .seeds
            .iter()
            .filter_map(|s| graph.node_of(*s))
            .collect();
        if seed_nodes.is_empty() {
            return false;
        }
        // Which RR sets are covered, and by how many seeds.
        let mut cover_count = vec![0u32; rr.len()];
        let mut covered_by_seed: Vec<Vec<u32>> = vec![Vec::new(); seed_nodes.len()];
        let seed_lookup: std::collections::HashMap<usize, usize> = seed_nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        for (ri, set) in rr.sets().iter().enumerate() {
            for v in set {
                if let Some(&si) = seed_lookup.get(v) {
                    cover_count[ri] += 1;
                    covered_by_seed[si].push(ri as u32);
                }
            }
        }
        let covered_total = cover_count.iter().filter(|&&c| c > 0).count();
        let current_spread = n as f64 * covered_total as f64 / rr.len().max(1) as f64;

        // Exclusive coverage of each seed: RR sets only it covers (the upper
        // bound on what a swap-out loses).
        let exclusive: Vec<usize> = covered_by_seed
            .iter()
            .map(|sets| {
                sets.iter()
                    .filter(|&&ri| cover_count[ri as usize] == 1)
                    .count()
            })
            .collect();
        // The cheapest seed to give up.
        let Some((worst_idx, &worst_loss)) =
            exclusive.iter().enumerate().min_by_key(|&(_, loss)| *loss)
        else {
            return false;
        };

        // Candidate gain: RR sets not covered by any seed that the candidate
        // covers (upper bound on its marginal), evaluated for every
        // non-seed node.
        let mut best: Option<(usize, i64)> = None;
        let seed_node_set: HashSet<usize> = seed_nodes.iter().copied().collect();
        let mut candidate_gain = vec![0i64; n];
        for (ri, set) in rr.sets().iter().enumerate() {
            if cover_count[ri] > 0 {
                continue;
            }
            for &v in set {
                if !seed_node_set.contains(&v) {
                    candidate_gain[v] += 1;
                }
            }
        }
        for (v, &gain) in candidate_gain.iter().enumerate() {
            if gain > 0 {
                match best {
                    Some((_, g)) if g >= gain => {}
                    _ => best = Some((v, gain)),
                }
            }
        }
        let Some((candidate, gain)) = best else {
            return false;
        };
        let net_gain = (gain - worst_loss as i64) as f64 * n as f64 / rr.len().max(1) as f64;
        if net_gain > self.config.gamma * current_spread && net_gain > 0.0 {
            let out_user = graph.user(seed_nodes[worst_idx]);
            let in_user = graph.user(candidate);
            if let Some(pos) = self.seeds.iter().position(|&s| s == out_user) {
                self.seeds[pos] = in_user;
                self.swaps += 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn star(hub: u32, leaves: std::ops::Range<u32>, g: &mut InfluenceGraph) {
        for l in leaves {
            g.add_edge(UserId(hub), UserId(l), 1.0);
        }
    }

    #[test]
    fn cold_start_fills_with_greedy_seeds() {
        let mut g = InfluenceGraph::new();
        star(0, 1..10, &mut g);
        star(100, 101..106, &mut g);
        let mut ubi = Ubi::new(UbiConfig::new(2).with_rr_sets(5_000));
        let spread = ubi.update(&g, &mut rng());
        let mut seeds = ubi.seeds().to_vec();
        seeds.sort();
        assert_eq!(seeds, vec![UserId(0), UserId(100)]);
        assert!(spread > 10.0);
    }

    #[test]
    fn interchange_replaces_obsolete_seed() {
        // Window 1: hub 0 dominates.  Window 2: hub 0 disappears and hub 200
        // dominates; UBI must swap it in.
        let mut g1 = InfluenceGraph::new();
        star(0, 1..12, &mut g1);
        star(50, 51..54, &mut g1);
        let mut ubi = Ubi::new(UbiConfig::new(2).with_rr_sets(5_000));
        ubi.update(&g1, &mut rng());
        assert!(ubi.seeds().contains(&UserId(0)));

        let mut g2 = InfluenceGraph::new();
        star(50, 51..54, &mut g2);
        star(200, 201..220, &mut g2);
        ubi.update(&g2, &mut rng());
        assert!(
            ubi.seeds().contains(&UserId(200)),
            "seeds after shift: {:?}",
            ubi.seeds()
        );
    }

    #[test]
    fn seed_set_never_exceeds_k() {
        let mut g = InfluenceGraph::new();
        star(0, 1..30, &mut g);
        star(40, 41..60, &mut g);
        star(70, 71..90, &mut g);
        let mut ubi = Ubi::new(UbiConfig::new(2).with_rr_sets(3_000));
        for _ in 0..3 {
            ubi.update(&g, &mut rng());
            assert!(ubi.seeds().len() <= 2);
        }
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = InfluenceGraph::new();
        let mut ubi = Ubi::new(UbiConfig::new(3));
        let spread = ubi.update(&g, &mut rng());
        assert_eq!(spread, 0.0);
        assert!(ubi.seeds().is_empty());
        assert_eq!(ubi.swaps(), 0);
    }

    #[test]
    fn last_spread_tracks_latest_window() {
        let mut g = InfluenceGraph::new();
        star(0, 1..5, &mut g);
        let mut ubi = Ubi::new(UbiConfig::new(1).with_rr_sets(3_000));
        let s1 = ubi.update(&g, &mut rng());
        assert!((ubi.last_spread() - s1).abs() < 1e-12);
        assert!(s1 >= 4.0);
    }
}

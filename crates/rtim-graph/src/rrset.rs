//! Reverse-reachable (RR) set sampling and coverage-based seed selection.
//!
//! An RR set for a uniformly random target `v` is the random set of nodes
//! that would have activated `v` under one realization of the Independent
//! Cascade model: it is produced by a reverse BFS from `v` where each
//! incoming edge `(u, w)` is traversed with probability `p(u, w)`.
//! Borgs et al. (2014) show that for any seed set `S`,
//! `σ(S) = n · E[S covers a random RR set]`, which is the foundation of the
//! IMM baseline and of UBI's fast spread estimates.

use crate::graph::InfluenceGraph;
use rand::Rng;
use rtim_stream::UserId;

/// A collection of sampled RR sets over a fixed influence graph.
#[derive(Debug, Clone, Default)]
pub struct RrCollection {
    /// Each RR set is a list of dense node indices.
    sets: Vec<Vec<usize>>,
    /// Number of nodes of the underlying graph (for spread scaling).
    nodes: usize,
}

impl RrCollection {
    /// Creates an empty collection for a graph with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        RrCollection {
            sets: Vec::new(),
            nodes,
        }
    }

    /// Samples RR sets until the collection holds `target` of them.
    pub fn sample_to<R: Rng + ?Sized>(
        &mut self,
        graph: &InfluenceGraph,
        target: usize,
        rng: &mut R,
    ) {
        while self.sets.len() < target {
            self.sets.push(sample_rr_set(graph, rng));
        }
    }

    /// Number of RR sets currently held.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if no RR set has been sampled.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of nodes of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The sampled RR sets.
    pub fn sets(&self) -> &[Vec<usize>] {
        &self.sets
    }

    /// Fraction of RR sets covered by the seed nodes.
    pub fn coverage_fraction(&self, seed_nodes: &[usize]) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        let seed_set: std::collections::HashSet<usize> = seed_nodes.iter().copied().collect();
        let covered = self
            .sets
            .iter()
            .filter(|rr| rr.iter().any(|v| seed_set.contains(v)))
            .count();
        covered as f64 / self.sets.len() as f64
    }

    /// Spread estimate `n · F(S)` for the given seed users.
    pub fn estimate_spread(&self, graph: &InfluenceGraph, seeds: &[UserId]) -> f64 {
        let nodes = graph.nodes_of(seeds);
        self.nodes as f64 * self.coverage_fraction(&nodes)
    }
}

/// Samples a single RR set by reverse probabilistic BFS from a random node.
pub fn sample_rr_set<R: Rng + ?Sized>(graph: &InfluenceGraph, rng: &mut R) -> Vec<usize> {
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    let target = rng.gen_range(0..n);
    let mut visited = vec![false; n];
    visited[target] = true;
    let mut queue = vec![target];
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &(u, p) in graph.in_edges(v) {
            if !visited[u] && rng.gen_bool(p) {
                visited[u] = true;
                queue.push(u);
            }
        }
    }
    queue
}

/// Greedy maximum coverage over RR sets: selects up to `k` nodes covering the
/// largest number of RR sets.  Returns the selected users (mapped back from
/// dense indices) and the fraction of RR sets covered.
pub fn greedy_over_rr_sets(
    graph: &InfluenceGraph,
    rr: &RrCollection,
    k: usize,
) -> (Vec<UserId>, f64) {
    let n = graph.node_count();
    if n == 0 || rr.is_empty() || k == 0 {
        return (Vec::new(), 0.0);
    }
    // node -> indices of RR sets containing it
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, set) in rr.sets().iter().enumerate() {
        for &v in set {
            containing[v].push(i as u32);
        }
    }
    let mut covered = vec![false; rr.len()];
    let mut degree: Vec<i64> = containing.iter().map(|c| c.len() as i64).collect();
    let mut selected: Vec<UserId> = Vec::with_capacity(k);
    let mut covered_count = 0usize;

    for _ in 0..k {
        // Pick the node covering the most uncovered RR sets (recompute its
        // effective degree lazily, CELF-style).
        let mut best: Option<(usize, i64)> = None;
        for v in 0..n {
            if degree[v] <= best.map_or(0, |(_, d)| d) {
                continue;
            }
            // Refresh degree.
            let fresh = containing[v]
                .iter()
                .filter(|&&i| !covered[i as usize])
                .count() as i64;
            degree[v] = fresh;
            if fresh > best.map_or(0, |(_, d)| d) {
                best = Some((v, fresh));
            }
        }
        let Some((v, gain)) = best else { break };
        if gain <= 0 {
            break;
        }
        for &i in &containing[v] {
            if !covered[i as usize] {
                covered[i as usize] = true;
                covered_count += 1;
            }
        }
        degree[v] = 0;
        selected.push(graph.user(v));
    }
    (selected, covered_count as f64 / rr.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::monte_carlo_spread;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn star_graph(leaves: u32) -> InfluenceGraph {
        // Hub user 0 activates each leaf with probability 1.
        let mut g = InfluenceGraph::new();
        for l in 1..=leaves {
            g.add_edge(UserId(0), UserId(l), 1.0);
        }
        g
    }

    #[test]
    fn rr_sets_from_deterministic_star_contain_hub() {
        let g = star_graph(5);
        let mut r = rng();
        for _ in 0..50 {
            let rr = sample_rr_set(&g, &mut r);
            let hub = g.node_of(UserId(0)).unwrap();
            assert!(rr.contains(&hub));
        }
    }

    #[test]
    fn greedy_over_rr_sets_picks_the_hub() {
        let g = star_graph(8);
        let mut rr = RrCollection::new(g.node_count());
        rr.sample_to(&g, 500, &mut rng());
        let (seeds, frac) = greedy_over_rr_sets(&g, &rr, 1);
        assert_eq!(seeds, vec![UserId(0)]);
        assert!((frac - 1.0).abs() < 1e-9);
        assert_eq!(rr.len(), 500);
    }

    #[test]
    fn rr_spread_estimate_matches_monte_carlo() {
        // Random-ish small graph; compare the two estimators.
        let mut g = InfluenceGraph::new();
        let edges = [
            (1u32, 2u32, 0.5),
            (1, 3, 0.5),
            (2, 4, 0.5),
            (3, 4, 0.5),
            (4, 5, 0.5),
            (5, 6, 1.0),
            (2, 6, 0.25),
        ];
        for (u, v, p) in edges {
            g.add_edge(UserId(u), UserId(v), p);
        }
        let mut r = rng();
        let mut rr = RrCollection::new(g.node_count());
        rr.sample_to(&g, 30_000, &mut r);
        let seeds = [UserId(1)];
        let est_rr = rr.estimate_spread(&g, &seeds);
        let est_mc = monte_carlo_spread(&g, &seeds, 30_000, &mut r);
        assert!((est_rr - est_mc).abs() < 0.15, "rr {est_rr} vs mc {est_mc}");
    }

    #[test]
    fn coverage_fraction_handles_empty_inputs() {
        let rr = RrCollection::new(0);
        assert_eq!(rr.coverage_fraction(&[]), 0.0);
        assert!(rr.is_empty());
        let g = InfluenceGraph::new();
        let (seeds, frac) = greedy_over_rr_sets(&g, &rr, 3);
        assert!(seeds.is_empty());
        assert_eq!(frac, 0.0);
    }
}

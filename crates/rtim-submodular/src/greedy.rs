//! Offline greedy algorithms for (weighted) maximum k-coverage.
//!
//! * [`greedy_max_coverage`] — the classic greedy of Nemhauser, Wolsey &
//!   Fisher (1978): `(1 − 1/e)`-approximate, `O(k·|U|)` marginal evaluations.
//!   This is the paper's "Greedy" baseline (§4, §6.1) which recomputes its
//!   answer from the current window on every query.
//! * [`lazy_greedy_max_coverage`] — the CELF acceleration: identical output
//!   guarantee, usually far fewer marginal evaluations thanks to lazily
//!   re-evaluated upper bounds (valid because the objective is submodular).
//! * [`brute_force_best`] — exact optimum by exhaustive search, only for
//!   small instances (tests and approximation-ratio property checks).

use crate::coverage::CoverageState;
use crate::weights::ElementWeight;
use rtim_stream::{InfluenceSets, UserId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a seed-selection algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyResult {
    /// Selected seeds, in selection order.
    pub seeds: Vec<UserId>,
    /// Objective value `f(I(S))` achieved by the seeds.
    pub value: f64,
}

impl GreedyResult {
    /// An empty result (no candidates, value 0).
    pub fn empty() -> Self {
        GreedyResult {
            seeds: Vec::new(),
            value: 0.0,
        }
    }
}

/// Classic greedy: repeatedly add the candidate with the largest marginal
/// gain until `k` seeds are chosen or no candidate improves the objective.
pub fn greedy_max_coverage<W: ElementWeight>(
    candidates: &InfluenceSets,
    k: usize,
    weight: &W,
) -> GreedyResult {
    let mut cov = CoverageState::new();
    let mut seeds: Vec<UserId> = Vec::with_capacity(k);
    let users: Vec<UserId> = candidates.users().collect();

    for _ in 0..k {
        let mut best: Option<(UserId, f64)> = None;
        for &u in &users {
            if seeds.contains(&u) {
                continue;
            }
            let Some(set) = candidates.get(u) else {
                continue;
            };
            let gain = cov.marginal_gain(weight, set);
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((u, gain)),
            }
        }
        match best {
            Some((u, gain)) if gain > 0.0 => {
                cov.absorb(weight, candidates.get(u).expect("candidate present"));
                seeds.push(u);
            }
            _ => break,
        }
    }
    GreedyResult {
        value: cov.value(),
        seeds,
    }
}

/// Entry in the CELF lazy-evaluation priority queue.
struct LazyEntry {
    user: UserId,
    /// Upper bound on the user's marginal gain (stale but valid by
    /// submodularity).
    bound: f64,
    /// Number of seeds selected when `bound` was last computed.
    round: usize,
}

impl PartialEq for LazyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for LazyEntry {}
impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.user.0.cmp(&other.user.0))
    }
}

/// CELF / lazy greedy: same `(1 − 1/e)` guarantee as [`greedy_max_coverage`]
/// but skips most marginal-gain evaluations by keeping stale upper bounds in
/// a max-heap (submodularity makes stale bounds valid upper bounds).
pub fn lazy_greedy_max_coverage<W: ElementWeight>(
    candidates: &InfluenceSets,
    k: usize,
    weight: &W,
) -> GreedyResult {
    let mut cov = CoverageState::new();
    let mut seeds: Vec<UserId> = Vec::with_capacity(k);

    let mut heap: BinaryHeap<LazyEntry> = candidates
        .iter()
        .map(|(u, set)| LazyEntry {
            user: u,
            bound: CoverageState::set_value(weight, set),
            round: 0,
        })
        .collect();

    while seeds.len() < k {
        let Some(top) = heap.pop() else { break };
        if top.bound <= 0.0 {
            break;
        }
        if top.round == seeds.len() {
            // Bound is fresh for the current round: it is the exact gain.
            let set = candidates.get(top.user).expect("candidate present");
            cov.absorb(weight, set);
            seeds.push(top.user);
        } else {
            // Re-evaluate lazily and push back.
            let set = candidates.get(top.user).expect("candidate present");
            let gain = cov.marginal_gain(weight, set);
            heap.push(LazyEntry {
                user: top.user,
                bound: gain,
                round: seeds.len(),
            });
        }
    }
    GreedyResult {
        value: cov.value(),
        seeds,
    }
}

/// Exhaustive optimum over all subsets of size ≤ `k`.
///
/// Exponential in the number of candidates; intended only for tests
/// (approximation-ratio property checks) and tiny instances.
pub fn brute_force_best<W: ElementWeight>(
    candidates: &InfluenceSets,
    k: usize,
    weight: &W,
) -> GreedyResult {
    let users: Vec<UserId> = candidates.users().collect();
    let n = users.len();
    assert!(n <= 24, "brute force limited to 24 candidates, got {n}");
    let mut best = GreedyResult::empty();
    // Iterate all bitmasks with ≤ k bits set.
    for mask in 0u32..(1u32 << n) {
        if (mask.count_ones() as usize) > k {
            continue;
        }
        let mut cov = CoverageState::new();
        let mut seeds = Vec::new();
        for (i, &u) in users.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cov.absorb(weight, candidates.get(u).expect("present"));
                seeds.push(u);
            }
        }
        if cov.value() > best.value {
            best = GreedyResult {
                value: cov.value(),
                seeds,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::UnitWeight;

    fn instance(pairs: &[(u32, &[u32])]) -> InfluenceSets {
        let mut s = InfluenceSets::new();
        for (u, covered) in pairs {
            for &v in *covered {
                s.insert(UserId(*u), UserId(v));
            }
        }
        s
    }

    #[test]
    fn greedy_solves_figure1_window8() {
        // Influence sets at time 8 (Figure 1b).
        let inf = instance(&[
            (1, &[1, 2, 3]),
            (2, &[2]),
            (3, &[1, 3, 4, 5]),
            (4, &[4]),
            (5, &[4, 5]),
        ]);
        let r = greedy_max_coverage(&inf, 2, &UnitWeight);
        // u3 (gain 4) is always picked first; the second pick is a tie
        // between u1 and u2 (both add u2's action), and either choice
        // reaches the optimum value of 5.
        assert_eq!(r.value, 5.0);
        assert!(r.seeds.contains(&UserId(3)));
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn lazy_greedy_matches_greedy_guarantee() {
        // Greedy and CELF may break ties between equal marginal gains
        // differently (candidate iteration order is not specified), so we
        // compare both against the brute-force optimum rather than against
        // each other.
        let inf = instance(&[
            (1, &[1, 2, 3, 10]),
            (2, &[2, 4]),
            (3, &[1, 3, 4, 5]),
            (4, &[4, 6, 7]),
            (5, &[4, 5, 8]),
            (6, &[9]),
        ]);
        let ratio = 1.0 - 1.0 / std::f64::consts::E;
        for k in 1..=4 {
            let opt = brute_force_best(&inf, k, &UnitWeight).value;
            let g = greedy_max_coverage(&inf, k, &UnitWeight);
            let l = lazy_greedy_max_coverage(&inf, k, &UnitWeight);
            assert!(g.value >= ratio * opt - 1e-9, "k={k}: greedy {}", g.value);
            assert!(l.value >= ratio * opt - 1e-9, "k={k}: lazy {}", l.value);
            assert!(g.value <= opt + 1e-9 && l.value <= opt + 1e-9, "k={k}");
        }
    }

    #[test]
    fn greedy_stops_when_no_gain() {
        let inf = instance(&[(1, &[1, 2]), (2, &[1, 2]), (3, &[2])]);
        let r = greedy_max_coverage(&inf, 3, &UnitWeight);
        assert_eq!(r.value, 2.0);
        assert_eq!(r.seeds.len(), 1);
    }

    #[test]
    fn brute_force_finds_optimum_greedy_misses() {
        // Classic instance where greedy is suboptimal for k=2:
        // s1 covers {1..4}, s2 covers {1,2,5}, s3 covers {3,4,6}.
        // Greedy picks s1 first (4), then gains 2 -> 6; OPT is s2+s3 = 6... make
        // it strictly better: s2 covers {1,2,5,7}, s3 covers {3,4,6,8} -> OPT 8.
        let inf = instance(&[
            (1, &[1, 2, 3, 4, 5]),
            (2, &[1, 2, 5, 7]),
            (3, &[3, 4, 6, 8]),
        ]);
        let opt = brute_force_best(&inf, 2, &UnitWeight);
        let grd = greedy_max_coverage(&inf, 2, &UnitWeight);
        assert_eq!(opt.value, 8.0);
        assert!(grd.value >= (1.0 - 1.0 / std::f64::consts::E) * opt.value);
        assert!(grd.value <= opt.value);
    }

    #[test]
    fn empty_candidates_yield_empty_result() {
        let inf = InfluenceSets::new();
        let r = greedy_max_coverage(&inf, 3, &UnitWeight);
        assert!(r.seeds.is_empty());
        assert_eq!(r.value, 0.0);
        let r = lazy_greedy_max_coverage(&inf, 3, &UnitWeight);
        assert!(r.seeds.is_empty());
    }

    #[test]
    fn k_zero_selects_nothing() {
        let inf = instance(&[(1, &[1, 2])]);
        assert!(greedy_max_coverage(&inf, 0, &UnitWeight).seeds.is_empty());
        assert!(lazy_greedy_max_coverage(&inf, 0, &UnitWeight)
            .seeds
            .is_empty());
    }
}

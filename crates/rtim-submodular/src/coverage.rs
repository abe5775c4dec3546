//! Incremental weighted-coverage state on a growable bitmap.
//!
//! [`CoverageState`] maintains the union of the influence sets of the
//! currently selected seeds together with its weighted value
//! `f(I(S)) = Σ_{v ∈ ∪ I(u)} w(v)`.  It supports the operations every
//! algorithm in this workspace needs:
//!
//! * `marginal_gain(set)` — `f(I(S) ∪ set) − f(I(S))` without mutating,
//! * `absorb(set)` — extend the union with a new seed's influence set, and
//! * `absorb_one(user)` — extend the union by a single user (the delta-aware
//!   SSM path, where an influence set grows by exactly one user per action).
//!
//! The union is a growable `Vec<u64>` bitmap indexed by (interned) user id.
//! When the arriving set is itself in bitmap form, gains and unions run
//! word-at-a-time: `new = set_word & !covered_word`, then `popcount(new)`
//! for the cardinality objective ([`ElementWeight::is_unit`]) or a per-bit
//! weight lookup otherwise.  Small sets (the common case — cascades are
//! shallow) take a per-element path over their sorted slice.
//!
//! Because iteration over both representations is ascending by id, weighted
//! accumulation order is deterministic — part of the bit-identical
//! sequential/sharded execution contract.
//!
//! The pre-bitmap `HashSet<UserId>` implementation is retained as
//! [`reference::HashCoverageState`]: it is the baseline the `coverage_ops`
//! microbench compares against and the reference model of the property
//! tests.

use crate::weights::ElementWeight;
use rtim_stream::{
    absorb_count, and_not_popcount, and_not_popcount_at_least, popcount_words, InfluenceSet,
    SetView, UserId, WordArena,
};

/// The union coverage of a seed set together with its weighted value.
#[derive(Debug, Clone, Default)]
pub struct CoverageState {
    /// Bit `i` set ⇔ `UserId(i)` covered.
    words: Vec<u64>,
    /// Population count of `words`.
    covered: usize,
    /// Cached objective value `f(I(S))`.
    value: f64,
}

impl CoverageState {
    /// Empty coverage (no seed selected yet), `f(∅) = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current objective value `f(I(S))`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of covered users `|I(S)|`.
    #[inline]
    pub fn covered_count(&self) -> usize {
        self.covered
    }

    /// `true` if `user` is already covered.
    #[inline]
    pub fn covers(&self, user: UserId) -> bool {
        let i = user.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Iterates the covered users in ascending id order.
    pub fn covered(&self) -> impl Iterator<Item = UserId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(UserId((w * 64 + b) as u32))
            })
        })
    }

    /// Marginal gain of adding a seed whose influence set is `set`.
    ///
    /// The bitmap arm splits at the covered/set common prefix so both loops
    /// index directly (no per-word `get().unwrap_or(0)` bounds check); the
    /// unit-weight prefix runs the unrolled
    /// [`and_not_popcount`]/[`popcount_words`] kernels, summing integral
    /// popcounts and converting to `f64` once (bit-identical — unit gains
    /// are exact integers).  Weighted accumulation keeps the scalar
    /// per-word order, part of the bit-identity contract.
    pub fn marginal_gain<W: ElementWeight>(&self, weight: &W, set: &InfluenceSet) -> f64 {
        match set.view() {
            SetView::Small(users) => {
                let mut gain = 0.0;
                for &u in users {
                    if !self.covers(u) {
                        gain += weight.weight(u);
                    }
                }
                gain
            }
            SetView::Bits(words) => {
                let n = words.len().min(self.words.len());
                if weight.is_unit() {
                    let covered_prefix = and_not_popcount(&words[..n], &self.words[..n]);
                    (covered_prefix + popcount_words(&words[n..])) as f64
                } else {
                    let mut gain = 0.0;
                    for (i, (&w, &c)) in words[..n].iter().zip(&self.words[..n]).enumerate() {
                        let new = w & !c;
                        if new != 0 {
                            gain += weigh_bits(weight, i, new);
                        }
                    }
                    for (i, &new) in words.iter().enumerate().skip(n) {
                        if new != 0 {
                            gain += weigh_bits(weight, i, new);
                        }
                    }
                    gain
                }
            }
        }
    }

    /// Marginal gain with an early-exit upper bound: stops summing as soon as
    /// the accumulated gain reaches `target` (useful for threshold tests where
    /// only "≥ target" matters).  Returns the (possibly truncated) gain.
    ///
    /// The unit-weight bitmap arm exits at 4-word-block granularity (the
    /// unrolled [`and_not_popcount_at_least`] kernel), so the truncated
    /// return value may differ from a per-word exit — callers only use it
    /// in `gain >= target` / `gain > 0` predicates, both invariant under
    /// the exit point (see the kernel docs).  The weighted arm keeps the
    /// original per-word exit and accumulation order.
    pub fn marginal_gain_at_least<W: ElementWeight>(
        &self,
        weight: &W,
        set: &InfluenceSet,
        target: f64,
    ) -> f64 {
        let mut gain = 0.0;
        match set.view() {
            SetView::Small(users) => {
                for &u in users {
                    if !self.covers(u) {
                        gain += weight.weight(u);
                        if gain >= target {
                            return gain;
                        }
                    }
                }
            }
            SetView::Bits(words) => {
                let n = words.len().min(self.words.len());
                if weight.is_unit() {
                    gain = and_not_popcount_at_least(&words[..n], &self.words[..n], target) as f64;
                    if gain >= target {
                        return gain;
                    }
                    for &new in &words[n..] {
                        if new == 0 {
                            continue;
                        }
                        gain += new.count_ones() as f64;
                        if gain >= target {
                            return gain;
                        }
                    }
                } else {
                    for (i, (&w, &c)) in words[..n].iter().zip(&self.words[..n]).enumerate() {
                        let new = w & !c;
                        if new == 0 {
                            continue;
                        }
                        gain += weigh_bits(weight, i, new);
                        if gain >= target {
                            return gain;
                        }
                    }
                    for (i, &new) in words.iter().enumerate().skip(n) {
                        if new == 0 {
                            continue;
                        }
                        gain += weigh_bits(weight, i, new);
                        if gain >= target {
                            return gain;
                        }
                    }
                }
            }
        }
        gain
    }

    /// Adds a seed's influence set to the union, returning the realized gain.
    pub fn absorb<W: ElementWeight>(&mut self, weight: &W, set: &InfluenceSet) -> f64 {
        self.absorb_impl(weight, set, None)
    }

    /// [`Self::absorb`] with bitmap growth routed through a [`WordArena`]
    /// (the slide-loop path; content-identical, only the backing-store
    /// provenance differs).
    pub fn absorb_in<W: ElementWeight>(
        &mut self,
        weight: &W,
        set: &InfluenceSet,
        arena: &mut WordArena,
    ) -> f64 {
        self.absorb_impl(weight, set, Some(arena))
    }

    fn absorb_impl<W: ElementWeight>(
        &mut self,
        weight: &W,
        set: &InfluenceSet,
        mut arena: Option<&mut WordArena>,
    ) -> f64 {
        let mut gain = 0.0;
        match set.view() {
            SetView::Small(users) => {
                for &u in users {
                    gain += self.absorb_bit(weight, u, arena.as_deref_mut());
                }
            }
            SetView::Bits(words) => {
                self.grow_words(words.len(), arena);
                if weight.is_unit() {
                    let newly = absorb_count(words, &mut self.words[..words.len()]);
                    self.covered += newly;
                    gain = newly as f64;
                } else {
                    for (i, &sw) in words.iter().enumerate() {
                        let new = sw & !self.words[i];
                        if new == 0 {
                            continue;
                        }
                        self.words[i] |= new;
                        self.covered += new.count_ones() as usize;
                        gain += weigh_bits(weight, i, new);
                    }
                }
            }
        }
        self.value += gain;
        gain
    }

    /// Adds a single user to the union, returning the realized gain (`0` if
    /// already covered).  This is the O(1) path the delta-aware set-stream
    /// mapping uses when an existing seed's influence set grows by one user.
    pub fn absorb_one<W: ElementWeight>(&mut self, weight: &W, user: UserId) -> f64 {
        let gain = self.absorb_bit(weight, user, None);
        self.value += gain;
        gain
    }

    /// [`Self::absorb_one`] with bitmap growth routed through a
    /// [`WordArena`].
    pub fn absorb_one_in<W: ElementWeight>(
        &mut self,
        weight: &W,
        user: UserId,
        arena: &mut WordArena,
    ) -> f64 {
        let gain = self.absorb_bit(weight, user, Some(arena));
        self.value += gain;
        gain
    }

    /// Zero-extends the bitmap to at least `words` words, recycling the old
    /// backing store when an arena is available.
    #[inline]
    fn grow_words(&mut self, words: usize, arena: Option<&mut WordArena>) {
        if self.words.len() >= words {
            return;
        }
        match arena {
            Some(a) => a.grow_zeroed(&mut self.words, words),
            None => self.words.resize(words, 0),
        }
    }

    /// Sets the bit of `user`, updating the count, and returns the weight
    /// gained (without touching `value` — callers accumulate it).
    #[inline]
    fn absorb_bit<W: ElementWeight>(
        &mut self,
        weight: &W,
        user: UserId,
        arena: Option<&mut WordArena>,
    ) -> f64 {
        let i = user.index();
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words.len() <= w {
            self.grow_words(w + 1, arena);
        }
        if self.words[w] & bit != 0 {
            0.0
        } else {
            self.words[w] |= bit;
            self.covered += 1;
            weight.weight(user)
        }
    }

    /// The union bitmap words (snapshot access for the state codec).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a coverage state from a persisted snapshot: the covered
    /// count is recomputed from the bitmap, while the objective value is
    /// restored verbatim — it was accumulated incrementally in arrival
    /// order, so recomputing it could differ in the last ulp and break the
    /// restored-equals-uninterrupted bit-identity guarantee.
    pub fn from_snapshot(words: Vec<u64>, value: f64) -> Self {
        let covered = popcount_words(&words);
        CoverageState {
            words,
            covered,
            value,
        }
    }

    /// Weighted value of an arbitrary set of users (helper for `f({I(u)})`).
    pub fn set_value<W: ElementWeight>(weight: &W, set: &InfluenceSet) -> f64 {
        if weight.is_unit() {
            return set.len() as f64;
        }
        set.iter().map(|u| weight.weight(u)).sum()
    }
}

/// Sum of weights over the set bits of `word` (word index `word_idx`).
#[inline]
fn weigh_bits<W: ElementWeight>(weight: &W, word_idx: usize, mut word: u64) -> f64 {
    let base = word_idx * 64;
    let mut sum = 0.0;
    while word != 0 {
        let b = word.trailing_zeros() as usize;
        word &= word - 1;
        sum += weight.weight(UserId((base + b) as u32));
    }
    sum
}

/// The retained pre-bitmap coverage implementation.
pub mod reference {
    use super::*;
    use std::collections::HashSet;

    /// Coverage state backed by a `HashSet<UserId>` — the implementation the
    /// bitmap [`CoverageState`](super::CoverageState) replaced.
    ///
    /// Retained for two purposes:
    ///
    /// * the `coverage_ops` microbench compares the bitmap layout against it
    ///   so the layout win stays measurable across PRs, and
    /// * the property tests use it as the trusted reference model for the
    ///   bitmap implementation (including the small-vec↔bitmap promotion
    ///   boundary of the arriving sets).
    ///
    /// Not used on any production path.
    #[derive(Debug, Clone, Default)]
    pub struct HashCoverageState {
        covered: HashSet<UserId>,
        value: f64,
    }

    impl HashCoverageState {
        /// Empty coverage, `f(∅) = 0`.
        pub fn new() -> Self {
            Self::default()
        }

        /// Current objective value.
        #[inline]
        pub fn value(&self) -> f64 {
            self.value
        }

        /// Number of covered users.
        pub fn covered_count(&self) -> usize {
            self.covered.len()
        }

        /// `true` if `user` is covered.
        pub fn covers(&self, user: UserId) -> bool {
            self.covered.contains(&user)
        }

        /// Marginal gain of adding `set` (no mutation).
        pub fn marginal_gain<W: ElementWeight>(&self, weight: &W, set: &InfluenceSet) -> f64 {
            set.iter()
                .filter(|u| !self.covered.contains(u))
                .map(|u| weight.weight(u))
                .sum()
        }

        /// Adds `set` to the union, returning the realized gain.
        pub fn absorb<W: ElementWeight>(&mut self, weight: &W, set: &InfluenceSet) -> f64 {
            let mut gain = 0.0;
            for u in set.iter() {
                if self.covered.insert(u) {
                    gain += weight.weight(u);
                }
            }
            self.value += gain;
            gain
        }

        /// Adds a single user, returning the realized gain.
        pub fn absorb_one<W: ElementWeight>(&mut self, weight: &W, user: UserId) -> f64 {
            if self.covered.insert(user) {
                let g = weight.weight(user);
                self.value += g;
                g
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{MapWeight, UnitWeight};
    use std::collections::HashMap;

    fn users(ids: &[u32]) -> InfluenceSet {
        ids.iter().map(|&i| UserId(i)).collect()
    }

    /// Same ids, forced into the bitmap representation.
    fn users_bits(ids: &[u32]) -> InfluenceSet {
        let mut s = InfluenceSet::with_universe(64);
        s.extend(ids.iter().map(|&i| UserId(i)));
        s
    }

    #[test]
    fn absorb_accumulates_union_value() {
        let w = UnitWeight;
        let mut cov = CoverageState::new();
        assert_eq!(cov.absorb(&w, &users(&[1, 2, 3])), 3.0);
        assert_eq!(cov.absorb(&w, &users(&[3, 4])), 1.0);
        assert_eq!(cov.value(), 4.0);
        assert_eq!(cov.covered_count(), 4);
        assert!(cov.covers(UserId(4)));
        assert!(!cov.covers(UserId(9)));
        assert_eq!(
            cov.covered().collect::<Vec<_>>(),
            vec![UserId(1), UserId(2), UserId(3), UserId(4)]
        );
    }

    #[test]
    fn marginal_gain_matches_absorb() {
        let w = UnitWeight;
        let mut cov = CoverageState::new();
        cov.absorb(&w, &users(&[1, 2]));
        let s = users(&[2, 3, 4]);
        let predicted = cov.marginal_gain(&w, &s);
        let realized = cov.absorb(&w, &s);
        assert_eq!(predicted, realized);
        assert_eq!(predicted, 2.0);
    }

    #[test]
    fn bitmap_sets_take_the_word_level_path() {
        let w = UnitWeight;
        let mut cov = CoverageState::new();
        let a = users_bits(&[1, 2, 3, 64, 65]);
        assert!(a.is_bitmap());
        assert_eq!(cov.absorb(&w, &a), 5.0);
        let b = users_bits(&[2, 65, 130]);
        assert_eq!(cov.marginal_gain(&w, &b), 1.0);
        assert_eq!(cov.absorb(&w, &b), 1.0);
        assert_eq!(cov.value(), 6.0);
        assert_eq!(cov.covered_count(), 6);
    }

    #[test]
    fn absorb_one_is_the_single_user_delta() {
        let w = UnitWeight;
        let mut cov = CoverageState::new();
        assert_eq!(cov.absorb_one(&w, UserId(7)), 1.0);
        assert_eq!(cov.absorb_one(&w, UserId(7)), 0.0);
        assert_eq!(cov.value(), 1.0);
        assert!(cov.covers(UserId(7)));
    }

    #[test]
    fn early_exit_gain_stops_at_target() {
        let w = UnitWeight;
        let cov = CoverageState::new();
        let s = users(&[1, 2, 3, 4, 5]);
        let g = cov.marginal_gain_at_least(&w, &s, 2.0);
        assert!(g >= 2.0);
        let g = cov.marginal_gain_at_least(&w, &users_bits(&[1, 2, 3, 200]), 3.0);
        assert!(g >= 3.0);
    }

    #[test]
    fn weighted_coverage_uses_weights() {
        let mut table = HashMap::new();
        table.insert(UserId(1), 5.0);
        let w = MapWeight::new(table, 1.0);
        let mut cov = CoverageState::new();
        assert_eq!(cov.absorb(&w, &users(&[1, 2])), 6.0);
        assert_eq!(CoverageState::set_value(&w, &users(&[1])), 5.0);
        // Weighted gains also work on the word-level path.
        assert_eq!(cov.marginal_gain(&w, &users_bits(&[1, 2, 3])), 1.0);
    }

    #[test]
    fn submodularity_of_marginals() {
        // Marginal gain wrt. a superset is never larger (diminishing returns).
        let w = UnitWeight;
        let mut small = CoverageState::new();
        small.absorb(&w, &users(&[1]));
        let mut big = small.clone();
        big.absorb(&w, &users(&[2, 3]));
        let x = users(&[2, 5, 6]);
        assert!(big.marginal_gain(&w, &x) <= small.marginal_gain(&w, &x));
    }

    #[test]
    fn reference_model_agrees_with_bitmap() {
        let w = UnitWeight;
        let mut bitmap = CoverageState::new();
        let mut hash = reference::HashCoverageState::new();
        for set in [users(&[1, 2, 3]), users_bits(&[2, 3, 90]), users(&[5])] {
            assert_eq!(bitmap.marginal_gain(&w, &set), hash.marginal_gain(&w, &set));
            assert_eq!(bitmap.absorb(&w, &set), hash.absorb(&w, &set));
        }
        assert_eq!(bitmap.value(), hash.value());
        assert_eq!(bitmap.covered_count(), hash.covered_count());
        assert_eq!(
            bitmap.absorb_one(&w, UserId(42)),
            hash.absorb_one(&w, UserId(42))
        );
    }
}

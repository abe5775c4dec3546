//! Hybrid user-ID set: inline ids, then a sorted vec, then a dense bitmap.
//!
//! Influence sets are the unit of work of the entire coverage hot path: every
//! action appends to them, every checkpoint oracle probes and unions them.
//! The original implementation used `HashSet<UserId>`, paying a SipHash plus
//! a pointer chase per probe.  [`InfluenceSet`] replaces it with three
//! hardware-friendly layouts, and a set only ever moves forward through
//! them as it grows:
//!
//! * **Inline** — up to [`InfluenceSet::INLINE_MAX`] sorted ids stored in
//!   the 32-byte set value itself: no heap allocation, and the map entry
//!   that holds the set is the only cache line a probe touches.  Real
//!   cascades are shallow (Table 3 of the paper reports average depths
//!   below 5), so most influence sets live and die here.
//! * **Sorted vec** — a sorted `Vec<UserId>` from `INLINE_MAX + 1` ids
//!   while the set holds at most [`InfluenceSet::SMALL_MAX`] users:
//!   branch-predictable binary search, zero hashing.
//! * **Bits** — a `Vec<u64>` bitmap indexed by `UserId::index()` once the
//!   set outgrows the sorted-vec threshold.  Membership is a shift-and-mask,
//!   unions and intersections are word-level `AND`/`OR`/`popcount` — this is
//!   what makes the word-level coverage operations in `rtim-submodular`
//!   possible.
//!
//! Both sorted layouts are seen through [`SetView::Small`], so the word-level
//! kernels, the coverage code and the state codec tell only "sorted ids" from
//! "bitmap".  Sets never shrink, so a sorted vec always holds more than
//! `INLINE_MAX` ids and the codec's restore (`InfluenceSet::from_sorted_vec`)
//! recovers the exact layout from the id count alone.
//!
//! The bitmap is sized by the **largest id stored**, which is why the engine
//! interns raw user ids into a dense `0..n` space before anything reaches
//! the hot path (see `rtim-core`'s `UserInterner`): with dense ids a bitmap
//! costs one bit per user ever seen, independent of how sparse the raw id
//! space of the trace is.
//!
//! Iteration order is **ascending by id in every layout**, so every float
//! accumulation over an `InfluenceSet` is deterministic — a property the
//! bit-identical sequential/sharded execution contract relies on.

use crate::action::UserId;

/// A set of user ids with a hybrid inline / sorted-vec / bitmap layout.
///
/// See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct InfluenceSet {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// `ids[..len]` sorted ascending, deduplicated; `len <= INLINE_MAX`.
    Inline {
        len: u8,
        ids: [UserId; InfluenceSet::INLINE_MAX],
    },
    /// Sorted ascending, deduplicated, more than `INLINE_MAX` ids.
    Sorted(Vec<UserId>),
    /// Bit `i` of word `i / 64` set ⇔ `UserId(i)` present; `len` caches the
    /// population count.
    Bits { words: Vec<u64>, len: usize },
}

/// Borrowed view of an [`InfluenceSet`]'s storage, letting consumers (the
/// coverage state in `rtim-submodular`) run word-level operations without
/// re-deriving the representation.
#[derive(Debug, Clone, Copy)]
pub enum SetView<'a> {
    /// Sorted slice of user ids (inline or small-vec).
    Small(&'a [UserId]),
    /// Bitmap words (bit `i` of word `w` ⇔ `UserId(w * 64 + i)`).
    Bits(&'a [u64]),
}

impl InfluenceSet {
    /// Maximum cardinality kept inline: five 4-byte ids and a length byte
    /// fit beside the enum tag, so `size_of::<InfluenceSet>()` stays 32.
    pub const INLINE_MAX: usize = 5;

    /// Maximum cardinality kept in the sorted small-vec representation;
    /// inserting a new id into a set of this size attempts promotion to a
    /// bitmap.
    ///
    /// 32 ids keep the small representation within two cache lines while
    /// still covering the vast majority of real influence sets (shallow
    /// cascades).  The promotion boundary is covered by property tests.
    pub const SMALL_MAX: usize = 32;

    /// Density guard for promotion: the bitmap is adopted only when it
    /// costs at most this many 64-bit words per present element.  Dense
    /// (interned) id spaces pass this immediately at the `SMALL_MAX`
    /// boundary; raw-id consumers (the Greedy baseline and quality metric
    /// run without an interner) with sparse billion-range ids keep the
    /// sorted-vec layout instead of allocating `max_id / 8` bytes — slower,
    /// but correct and memory-safe.  Re-checked on every insert, so a set
    /// promotes as soon as it grows dense enough.
    pub const WORDS_PER_ELEMENT_MAX: usize = 8;

    /// Creates an empty set (inline representation).
    pub fn new() -> Self {
        InfluenceSet {
            repr: Repr::Inline {
                len: 0,
                ids: [UserId(0); Self::INLINE_MAX],
            },
        }
    }

    /// Creates an empty set that starts out as a bitmap with capacity for
    /// ids below `universe` (avoids repeated regrowth when the final size is
    /// known, e.g. when unioning many sets over an interned id space).
    pub fn with_universe(universe: usize) -> Self {
        InfluenceSet {
            repr: Repr::Bits {
                words: vec![0u64; universe.div_ceil(64)],
                len: 0,
            },
        }
    }

    /// Number of users in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Sorted(v) => v.len(),
            Repr::Bits { len, .. } => *len,
        }
    }

    /// `true` if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `user` is in the set.
    #[inline]
    pub fn contains(&self, user: UserId) -> bool {
        match &self.repr {
            Repr::Inline { len, ids } => ids[..usize::from(*len)].contains(&user),
            Repr::Sorted(v) => v.binary_search(&user).is_ok(),
            Repr::Bits { words, .. } => {
                let i = user.index();
                words
                    .get(i / 64)
                    .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
            }
        }
    }

    /// Inserts `user`, returning `true` if it was not present before.
    ///
    /// Moves an inline set to a sorted vec when it outgrows
    /// [`Self::INLINE_MAX`], and promotes a sorted vec to a bitmap when it exceeds
    /// [`Self::SMALL_MAX`] **and** the ids are dense enough for the bitmap
    /// to be worth its memory (see [`Self::WORDS_PER_ELEMENT_MAX`]).
    pub fn insert(&mut self, user: UserId) -> bool {
        self.insert_impl(user, None)
    }

    /// [`Self::insert`] with bitmap allocation (promotion and growth)
    /// routed through a [`WordArena`](crate::WordArena) — the slide-loop
    /// path.  The resulting set is content-identical to a heap-backed one
    /// (only the backing store's capacity provenance differs; equality,
    /// iteration and the snapshot codec are all content/length-based).
    pub fn insert_in(&mut self, user: UserId, arena: &mut crate::WordArena) -> bool {
        self.insert_impl(user, Some(arena))
    }

    fn insert_impl(&mut self, user: UserId, arena: Option<&mut crate::WordArena>) -> bool {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = usize::from(*len);
                match ids[..n].binary_search(&user) {
                    Ok(_) => false,
                    Err(pos) if n < Self::INLINE_MAX => {
                        ids.copy_within(pos..n, pos + 1);
                        ids[pos] = user;
                        *len += 1;
                        true
                    }
                    Err(pos) => {
                        // Doubling from 8 reaches `SMALL_MAX` = 32 exactly.
                        let mut v = Vec::with_capacity((Self::INLINE_MAX + 1).next_power_of_two());
                        v.extend_from_slice(&ids[..pos]);
                        v.push(user);
                        v.extend_from_slice(&ids[pos..]);
                        self.repr = Repr::Sorted(v);
                        true
                    }
                }
            }
            Repr::Sorted(v) => match v.binary_search(&user) {
                Ok(_) => false,
                Err(pos) => {
                    let len_after = v.len() + 1;
                    let max_id = v.last().map_or(0, |u| u.index()).max(user.index());
                    let words_needed = max_id / 64 + 1;
                    if v.len() < Self::SMALL_MAX
                        || words_needed > Self::WORDS_PER_ELEMENT_MAX * len_after
                    {
                        v.insert(pos, user);
                    } else {
                        let mut words = match arena {
                            Some(a) => a.take_zeroed(words_needed),
                            None => vec![0u64; words_needed],
                        };
                        for &u in v.iter() {
                            set_bit(&mut words, u.index());
                        }
                        set_bit(&mut words, user.index());
                        self.repr = Repr::Bits {
                            words,
                            len: len_after,
                        };
                    }
                    true
                }
            },
            Repr::Bits { words, len } => {
                let i = user.index();
                let (w, bit) = (i / 64, 1u64 << (i % 64));
                if words.len() <= w {
                    match arena {
                        Some(a) => a.grow_zeroed(words, w + 1),
                        None => words.resize(w + 1, 0),
                    }
                }
                if words[w] & bit != 0 {
                    false
                } else {
                    words[w] |= bit;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// A borrowed view of the underlying representation for word-level
    /// consumers.
    #[inline]
    pub fn view(&self) -> SetView<'_> {
        match &self.repr {
            Repr::Inline { len, ids } => SetView::Small(&ids[..usize::from(*len)]),
            Repr::Sorted(v) => SetView::Small(v),
            Repr::Bits { words, .. } => SetView::Bits(words),
        }
    }

    /// Iterates the users in ascending id order (every representation).
    pub fn iter(&self) -> SetIter<'_> {
        match &self.repr {
            Repr::Inline { len, ids } => SetIter::Small(ids[..usize::from(*len)].iter()),
            Repr::Sorted(v) => SetIter::Small(v.iter()),
            Repr::Bits { words, .. } => SetIter::Bits {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// `true` once the set has been promoted to the bitmap representation
    /// (introspection for tests and benchmarks).
    pub fn is_bitmap(&self) -> bool {
        matches!(self.repr, Repr::Bits { .. })
    }

    /// `true` while the ids are stored inline, without a heap allocation
    /// (introspection for tests).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Rebuilds a sorted-representation set from an already sorted,
    /// deduplicated id list (the state codec's restore path — validation
    /// happens at decode time): at most [`Self::INLINE_MAX`] ids go inline,
    /// the layout a set of that size always has.
    pub(crate) fn from_sorted_vec(users: Vec<UserId>) -> Self {
        debug_assert!(users.windows(2).all(|w| w[0] < w[1]), "unsorted restore");
        if users.len() > Self::INLINE_MAX {
            return InfluenceSet {
                repr: Repr::Sorted(users),
            };
        }
        let mut ids = [UserId(0); Self::INLINE_MAX];
        ids[..users.len()].copy_from_slice(&users);
        InfluenceSet {
            repr: Repr::Inline {
                len: users.len() as u8,
                ids,
            },
        }
    }

    /// Rebuilds a bitmap-representation set from its words (the state
    /// codec's restore path); the cached length is recomputed by popcount.
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        let len = crate::kernels::popcount_words(&words);
        InfluenceSet {
            repr: Repr::Bits { words, len },
        }
    }

    /// Tears the set down, recycling a bitmap backing store into `arena`
    /// (sorted representations just drop).  Used when a checkpoint expires
    /// so its thousands of bitmaps feed the next slide's promotions.
    pub fn recycle_into(self, arena: &mut crate::WordArena) {
        if let Repr::Bits { words, .. } = self.repr {
            arena.recycle(words);
        }
    }
}

#[inline]
fn set_bit(words: &mut Vec<u64>, i: usize) {
    let w = i / 64;
    if words.len() <= w {
        words.resize(w + 1, 0);
    }
    words[w] |= 1u64 << (i % 64);
}

impl Default for InfluenceSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for InfluenceSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for InfluenceSet {}

impl FromIterator<UserId> for InfluenceSet {
    fn from_iter<I: IntoIterator<Item = UserId>>(iter: I) -> Self {
        let mut s = InfluenceSet::new();
        for u in iter {
            s.insert(u);
        }
        s
    }
}

impl Extend<UserId> for InfluenceSet {
    fn extend<I: IntoIterator<Item = UserId>>(&mut self, iter: I) {
        for u in iter {
            self.insert(u);
        }
    }
}

impl<'a> IntoIterator for &'a InfluenceSet {
    type Item = UserId;
    type IntoIter = SetIter<'a>;

    fn into_iter(self) -> SetIter<'a> {
        self.iter()
    }
}

/// Ascending-order iterator over an [`InfluenceSet`].
#[derive(Debug, Clone)]
pub enum SetIter<'a> {
    /// Iterating the sorted ids (inline or small-vec).
    Small(std::slice::Iter<'a, UserId>),
    /// Iterating set bits of the bitmap.
    Bits {
        /// All words of the bitmap.
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word_idx: usize,
        /// Remaining (not yet yielded) bits of the current word.
        current: u64,
    },
}

impl Iterator for SetIter<'_> {
    type Item = UserId;

    fn next(&mut self) -> Option<UserId> {
        match self {
            SetIter::Small(it) => it.next().copied(),
            SetIter::Bits {
                words,
                word_idx,
                current,
            } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= words.len() {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(UserId((*word_idx * 64 + bit) as u32))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(set: &InfluenceSet) -> Vec<u32> {
        set.iter().map(|u| u.0).collect()
    }

    #[test]
    fn small_insert_keeps_sorted_dedup() {
        let mut s = InfluenceSet::new();
        assert!(s.insert(UserId(5)));
        assert!(s.insert(UserId(1)));
        assert!(!s.insert(UserId(5)));
        assert!(s.insert(UserId(3)));
        assert_eq!(ids(&s), vec![1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(UserId(3)));
        assert!(!s.contains(UserId(4)));
        assert!(!s.is_bitmap());
    }

    #[test]
    fn promotion_preserves_contents_and_order() {
        let mut s = InfluenceSet::new();
        // Insert SMALL_MAX + 3 distinct ids in scrambled order.
        let n = (InfluenceSet::SMALL_MAX + 3) as u32;
        for i in 0..n {
            let id = (i * 37) % 1009;
            assert!(s.insert(UserId(id)));
        }
        assert!(s.is_bitmap());
        assert_eq!(s.len(), n as usize);
        let got = ids(&s);
        let mut want: Vec<u32> = (0..n).map(|i| (i * 37) % 1009).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Duplicates after promotion are rejected.
        assert!(!s.insert(UserId(0)));
    }

    #[test]
    fn sparse_ids_defer_promotion() {
        // Billion-range ids: a bitmap would cost ~max_id/8 bytes, so the
        // density guard keeps the sorted-vec layout past SMALL_MAX...
        let mut s = InfluenceSet::new();
        let n = (InfluenceSet::SMALL_MAX * 2) as u32;
        for i in 0..n {
            assert!(s.insert(UserId(i * 50_000_017 + 17)));
        }
        assert!(!s.is_bitmap(), "sparse set should stay sorted-vec");
        assert_eq!(s.len(), n as usize);
        assert!(s.contains(UserId(17)));
        // ...while a dense block of ids promotes as soon as the set grows
        // dense enough to amortize the words.
        let mut d = InfluenceSet::new();
        for i in 0..n {
            d.insert(UserId(i));
        }
        assert!(d.is_bitmap(), "dense set should promote");
    }

    #[test]
    fn bitmap_grows_to_high_ids() {
        let mut s = InfluenceSet::with_universe(10);
        assert!(s.is_bitmap());
        assert!(s.insert(UserId(100_000)));
        assert!(s.contains(UserId(100_000)));
        assert_eq!(s.len(), 1);
        assert_eq!(ids(&s), vec![100_000]);
    }

    #[test]
    fn equality_is_representation_independent() {
        let small: InfluenceSet = [1u32, 2, 3].into_iter().map(UserId).collect();
        let mut big = InfluenceSet::with_universe(64);
        for i in [3u32, 1, 2] {
            big.insert(UserId(i));
        }
        assert!(big.is_bitmap() && !small.is_bitmap());
        assert_eq!(small, big);
        big.insert(UserId(9));
        assert_ne!(small, big);
    }

    #[test]
    fn empty_set_behaves() {
        let s = InfluenceSet::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(UserId(0)));
        assert_eq!(s, InfluenceSet::default());
    }

    #[test]
    fn view_matches_repr() {
        let small: InfluenceSet = [7u32].into_iter().map(UserId).collect();
        assert!(matches!(small.view(), SetView::Small(v) if v == [UserId(7)]));
        let big = InfluenceSet::with_universe(64);
        assert!(matches!(big.view(), SetView::Bits(_)));
    }
}

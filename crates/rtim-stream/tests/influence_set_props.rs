//! Property tests of the hybrid [`InfluenceSet`] against `HashSet` and
//! `BTreeSet` reference models, with id ranges and set sizes chosen to
//! cross both layout boundaries: inline → sorted vec past `INLINE_MAX`, and
//! sorted vec → bitmap past `SMALL_MAX`.

use proptest::prelude::*;
use rtim_stream::persist::state::{decode_influence_set, encode_influence_set, ByteReader};
use rtim_stream::{InfluenceSet, SetView, UserId, WordArena};
use std::collections::{BTreeSet, HashSet};

/// The layout a set is in.
fn layout(set: &InfluenceSet) -> &'static str {
    if set.is_inline() {
        "inline"
    } else if set.is_bitmap() {
        "bitmap"
    } else {
        "vec"
    }
}

/// The layout a set of `len` ids below 512 must be in: dense ids pass the
/// bitmap's density guard at once, so only the size decides.
fn expected_layout(len: usize) -> &'static str {
    if len <= InfluenceSet::INLINE_MAX {
        "inline"
    } else if len <= InfluenceSet::SMALL_MAX {
        "vec"
    } else {
        "bitmap"
    }
}

#[test]
fn an_influence_set_is_32_bytes() {
    assert_eq!(std::mem::size_of::<InfluenceSet>(), 32);
}

/// Insertion sequences around the promotion threshold: lengths from far
/// below to well above `SMALL_MAX`, ids both dense and sparse.
fn arb_inserts(max_len: usize, universe: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..universe, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert/contains/len agree with the HashSet model across promotions.
    #[test]
    fn matches_hashset_model(ids in arb_inserts(3 * InfluenceSet::SMALL_MAX, 4_000)) {
        let mut set = InfluenceSet::new();
        let mut model: HashSet<u32> = HashSet::new();
        for &id in &ids {
            prop_assert_eq!(set.insert(UserId(id)), model.insert(id), "insert {}", id);
            prop_assert_eq!(set.len(), model.len());
            prop_assert!(set.contains(UserId(id)));
        }
        // Membership agrees over the whole universe sample.
        for &id in &ids {
            prop_assert_eq!(set.contains(UserId(id)), model.contains(&id));
        }
        prop_assert_eq!(set.is_empty(), model.is_empty());
        // Promotion happened iff the model outgrew the small capacity at
        // some prefix — at the very least, a set larger than SMALL_MAX
        // cannot still be small.
        if set.len() > InfluenceSet::SMALL_MAX {
            prop_assert!(set.is_bitmap());
        }
    }

    /// Iteration yields exactly the model's elements, in ascending order,
    /// in both representations.
    #[test]
    fn iteration_is_sorted_and_complete(ids in arb_inserts(120, 10_000)) {
        let set: InfluenceSet = ids.iter().map(|&i| UserId(i)).collect();
        let mut expect: Vec<u32> = ids.iter().copied().collect::<HashSet<_>>().into_iter().collect();
        expect.sort_unstable();
        let got: Vec<u32> = set.iter().map(|u| u.0).collect();
        prop_assert_eq!(got, expect);
    }

    /// Equality is representation-independent: the same elements forced into
    /// the small and the bitmap layout compare equal.
    #[test]
    fn equality_across_representations(ids in arb_inserts(InfluenceSet::SMALL_MAX, 500)) {
        let small: InfluenceSet = ids.iter().map(|&i| UserId(i)).collect();
        let mut bits = InfluenceSet::with_universe(512);
        bits.extend(ids.iter().map(|&i| UserId(i)));
        prop_assert!(bits.is_bitmap());
        prop_assert_eq!(&small, &bits);
        prop_assert_eq!(small.len(), bits.len());
    }

    /// Union via extend matches the model union.
    #[test]
    fn union_matches_model(a in arb_inserts(80, 3_000), b in arb_inserts(80, 3_000)) {
        let mut set: InfluenceSet = a.iter().map(|&i| UserId(i)).collect();
        set.extend(b.iter().map(|&i| UserId(i)));
        let model: HashSet<u32> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(set.len(), model.len());
        for id in model {
            prop_assert!(set.contains(UserId(id)));
        }
    }

    /// Every insert, whether heap- or arena-backed, keeps contents, order,
    /// `len`, `contains` and `view` equal to a `BTreeSet` model, and the
    /// layout follows the size through inline → vec → bitmap.
    #[test]
    fn layouts_match_btreeset_model(
        ids in prop::collection::vec(0u32..400, 0..3 * InfluenceSet::SMALL_MAX),
        pooled in 0u8..2,
    ) {
        let mut set = InfluenceSet::new();
        let mut arena = WordArena::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for &id in &ids {
            let fresh = if pooled == 1 {
                set.insert_in(UserId(id), &mut arena)
            } else {
                set.insert(UserId(id))
            };
            prop_assert_eq!(fresh, model.insert(id), "insert {}", id);
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(layout(&set), expected_layout(model.len()));
            let got: Vec<u32> = set.iter().map(|u| u.0).collect();
            let want: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(&got, &want);
            match set.view() {
                SetView::Small(users) => {
                    prop_assert!(!set.is_bitmap());
                    let viewed: Vec<u32> = users.iter().map(|u| u.0).collect();
                    prop_assert_eq!(&viewed, &want);
                }
                SetView::Bits(words) => {
                    prop_assert!(set.is_bitmap());
                    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                    prop_assert_eq!(ones, model.len());
                }
            }
        }
        for id in 0..400 {
            prop_assert_eq!(set.contains(UserId(id)), model.contains(&id), "contains {}", id);
        }
    }

    /// The state codec restores an equal set in the same layout, and
    /// re-encoding the restored set gives the same bytes.
    #[test]
    fn codec_round_trip_keeps_the_layout(
        ids in prop::collection::vec(0u32..400, 0..2 * InfluenceSet::SMALL_MAX),
    ) {
        let set: InfluenceSet = ids.iter().map(|&i| UserId(i)).collect();
        let mut bytes = Vec::new();
        encode_influence_set(&set, &mut bytes);
        let mut r = ByteReader::new(&bytes);
        let restored = decode_influence_set(&mut r).expect("decodes");
        r.finish().expect("no trailing bytes");
        prop_assert_eq!(&restored, &set);
        prop_assert_eq!(layout(&restored), layout(&set));
        let mut again = Vec::new();
        encode_influence_set(&restored, &mut again);
        prop_assert_eq!(again, bytes);
    }
}

//! Hot-path word kernels: unrolled (and optionally SIMD) bitmap loops.
//!
//! The coverage hot path of the whole workspace is three word loops —
//! `popcount(set & !covered)` (marginal gain), the same with an early-exit
//! threshold, and the absorbing union `covered |= set` — plus the plain
//! population count used when restoring persisted bitmaps.  This module
//! owns all four as explicit kernels so every caller
//! ([`CoverageState`](../../rtim_submodular/coverage/index.html),
//! [`InfluenceSet`](crate::InfluenceSet), the snapshot codecs) runs the
//! same tuned code:
//!
//! * **4-wide unrolling with independent accumulators** — one `u64`
//!   popcount per cycle has a 3-instruction SWAR dependency chain on the
//!   default `x86-64` baseline; four independent accumulators let the
//!   out-of-order core overlap them.
//! * **Counts stay integral until the end** — the unit-weight objective
//!   sums `u32` popcounts in `u64` accumulators and converts to `f64`
//!   once, at the caller.  Unit gains are exact small integers, so integer
//!   reassociation is bit-identical to the old one-word-at-a-time float
//!   accumulation (every intermediate is exactly representable).  Weighted
//!   accumulation does **not** go through these kernels — float order
//!   must stay scalar per-word (see `docs/PERF.md`).
//! * **`simd` feature** — `std::simd` is still unstable on the pinned
//!   stable toolchain, so the gated implementation uses the stable
//!   `std::arch` route instead: `#[target_feature(enable = "popcnt")]`
//!   respecializations of the same kernels (the compiler lowers
//!   `count_ones` to one hardware `popcnt` instead of the ~12-op SWAR
//!   sequence the baseline build must emit) and an AVX2 nibble-lookup
//!   popcount (Muła's `vpshufb` + `vpsadbw` reduction) for long runs,
//!   both dispatched at runtime via `is_x86_feature_detected!`.  All
//!   variants are differentially property-tested against the
//!   [`reference`](mod@reference) scalars in `tests/kernel_props.rs`.
//!
//! ## Early-exit granularity
//!
//! [`and_not_popcount_at_least`] checks the target after each 4-word
//! block (per word only in the tail), not after every word like the old
//! scalar loop.  The truncated return value can therefore differ from the
//! old implementation's — but callers only use it in the predicates
//! `gain >= target` and `gain > 0`, and both are invariant under where
//! the loop stops once the target is reached (the accumulated count is
//! monotone).  The [`reference`](mod@reference) implementation mirrors the block
//! granularity exactly so the differential tests can assert full bit
//! identity, not just predicate equivalence.

/// Population count over a word slice.
///
/// Shared by every "recompute the covered count from a restored bitmap"
/// path (`CoverageState::from_snapshot`, `InfluenceSet::from_words`).
#[inline]
pub fn popcount_words(words: &[u64]) -> usize {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(n) = simd::popcount_words(words) {
        return n;
    }
    popcount_words_impl(words)
}

/// `popcount(set & !covered)` over two equal-length word slices: how many
/// users of `set` a coverage bitmap does not cover yet.
///
/// Callers with unequal lengths split at the common prefix and add
/// [`popcount_words`] of the uncovered tail (a missing covered word is an
/// all-zero word).
#[inline]
pub fn and_not_popcount(set: &[u64], covered: &[u64]) -> usize {
    debug_assert_eq!(set.len(), covered.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(n) = simd::and_not_popcount(set, covered) {
        return n;
    }
    and_not_popcount_impl(set, covered)
}

/// [`and_not_popcount`] with an early exit: stops counting as soon as the
/// running count reaches `target`, checking at 4-word block boundaries
/// (per word in the tail).  Returns the possibly-truncated count.
#[inline]
pub fn and_not_popcount_at_least(set: &[u64], covered: &[u64], target: f64) -> usize {
    debug_assert_eq!(set.len(), covered.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(n) = simd::and_not_popcount_at_least(set, covered, target) {
        return n;
    }
    and_not_popcount_at_least_impl(set, covered, target)
}

/// Absorbing union: `covered[i] |= set[i]`, returning how many bits were
/// newly set.  Equal-length slices; callers resize `covered` first.
#[inline]
pub fn absorb_count(set: &[u64], covered: &mut [u64]) -> usize {
    debug_assert_eq!(set.len(), covered.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(n) = simd::absorb_count(set, covered) {
        return n;
    }
    absorb_count_impl(set, covered)
}

// ---------------------------------------------------------------------------
// Unrolled implementations (shared verbatim by the `simd` respecializations:
// inside a `#[target_feature(enable = "popcnt")]` caller the inlined
// `count_ones` lowers to the hardware instruction).
// ---------------------------------------------------------------------------

#[inline(always)]
fn popcount_words_impl(words: &[u64]) -> usize {
    let mut chunks = words.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for w in chunks.by_ref() {
        a += w[0].count_ones() as u64;
        b += w[1].count_ones() as u64;
        c += w[2].count_ones() as u64;
        d += w[3].count_ones() as u64;
    }
    let mut tail = 0u64;
    for &w in chunks.remainder() {
        tail += w.count_ones() as u64;
    }
    (a + b + c + d + tail) as usize
}

#[inline(always)]
fn and_not_popcount_impl(set: &[u64], covered: &[u64]) -> usize {
    let n = set.len().min(covered.len());
    let (set, covered) = (&set[..n], &covered[..n]);
    let mut sc = set.chunks_exact(4);
    let mut cc = covered.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for (s, v) in sc.by_ref().zip(cc.by_ref()) {
        a += (s[0] & !v[0]).count_ones() as u64;
        b += (s[1] & !v[1]).count_ones() as u64;
        c += (s[2] & !v[2]).count_ones() as u64;
        d += (s[3] & !v[3]).count_ones() as u64;
    }
    let mut tail = 0u64;
    for (&s, &v) in sc.remainder().iter().zip(cc.remainder()) {
        tail += (s & !v).count_ones() as u64;
    }
    (a + b + c + d + tail) as usize
}

#[inline(always)]
fn and_not_popcount_at_least_impl(set: &[u64], covered: &[u64], target: f64) -> usize {
    let n = set.len().min(covered.len());
    let (set, covered) = (&set[..n], &covered[..n]);
    let mut sc = set.chunks_exact(4);
    let mut cc = covered.chunks_exact(4);
    let mut acc = 0u64;
    for (s, v) in sc.by_ref().zip(cc.by_ref()) {
        let a = (s[0] & !v[0]).count_ones() as u64;
        let b = (s[1] & !v[1]).count_ones() as u64;
        let c = (s[2] & !v[2]).count_ones() as u64;
        let d = (s[3] & !v[3]).count_ones() as u64;
        acc += a + b + c + d;
        if acc as f64 >= target {
            return acc as usize;
        }
    }
    for (&s, &v) in sc.remainder().iter().zip(cc.remainder()) {
        acc += (s & !v).count_ones() as u64;
        if acc as f64 >= target {
            return acc as usize;
        }
    }
    acc as usize
}

#[inline(always)]
fn absorb_count_impl(set: &[u64], covered: &mut [u64]) -> usize {
    let n = set.len().min(covered.len());
    let (set, covered) = (&set[..n], &mut covered[..n]);
    let mut sc = set.chunks_exact(4);
    let mut cc = covered.chunks_exact_mut(4);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for (s, v) in sc.by_ref().zip(cc.by_ref()) {
        a += (s[0] & !v[0]).count_ones() as u64;
        b += (s[1] & !v[1]).count_ones() as u64;
        c += (s[2] & !v[2]).count_ones() as u64;
        d += (s[3] & !v[3]).count_ones() as u64;
        v[0] |= s[0];
        v[1] |= s[1];
        v[2] |= s[2];
        v[3] |= s[3];
    }
    let mut tail = 0u64;
    for (&s, v) in sc.remainder().iter().zip(cc.into_remainder()) {
        tail += (s & !*v).count_ones() as u64;
        *v |= s;
    }
    (a + b + c + d + tail) as usize
}

// ---------------------------------------------------------------------------
// `--features simd`: stable std::arch respecializations.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    // The only unsafe this feature introduces is (a) the `target_feature`
    // call boundary — discharged by the `is_x86_feature_detected!` guards
    // at every call site in the parent module — and (b) nothing else: the
    // AVX2 body uses value-based intrinsics only (no pointer loads), which
    // are safe inside a matching `#[target_feature]` function.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
        _mm256_extract_epi64, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_set_epi64x,
        _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
    };

    /// Below this many words the per-call AVX2 setup (vector build +
    /// horizontal reduction) costs more than it saves; use the `popcnt`
    /// kernels instead.
    const AVX2_MIN_WORDS: usize = 16;

    // Safe dispatchers: `None` means "no suitable CPU feature, take the
    // generic kernel".  `is_x86_feature_detected!` caches in std behind an
    // atomic load, so per-call detection is one relaxed load.

    #[inline]
    pub(super) fn popcount_words(words: &[u64]) -> Option<usize> {
        if words.len() >= AVX2_MIN_WORDS && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime just above.
            return Some(unsafe { popcount_words_avx2(words) });
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt support verified at runtime just above.
            return Some(unsafe { popcount_words_popcnt(words) });
        }
        None
    }

    #[inline]
    pub(super) fn and_not_popcount(set: &[u64], covered: &[u64]) -> Option<usize> {
        if set.len() >= AVX2_MIN_WORDS && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime just above.
            return Some(unsafe { and_not_popcount_avx2(set, covered) });
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt support verified at runtime just above.
            return Some(unsafe { and_not_popcount_popcnt(set, covered) });
        }
        None
    }

    #[inline]
    pub(super) fn and_not_popcount_at_least(
        set: &[u64],
        covered: &[u64],
        target: f64,
    ) -> Option<usize> {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt support verified at runtime just above.
            return Some(unsafe { and_not_popcount_at_least_popcnt(set, covered, target) });
        }
        None
    }

    #[inline]
    pub(super) fn absorb_count(set: &[u64], covered: &mut [u64]) -> Option<usize> {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt support verified at runtime just above.
            return Some(unsafe { absorb_count_popcnt(set, covered) });
        }
        None
    }

    #[target_feature(enable = "popcnt")]
    fn popcount_words_popcnt(words: &[u64]) -> usize {
        super::popcount_words_impl(words)
    }

    #[target_feature(enable = "popcnt")]
    fn and_not_popcount_popcnt(set: &[u64], covered: &[u64]) -> usize {
        super::and_not_popcount_impl(set, covered)
    }

    #[target_feature(enable = "popcnt")]
    fn and_not_popcount_at_least_popcnt(set: &[u64], covered: &[u64], target: f64) -> usize {
        super::and_not_popcount_at_least_impl(set, covered, target)
    }

    #[target_feature(enable = "popcnt")]
    fn absorb_count_popcnt(set: &[u64], covered: &mut [u64]) -> usize {
        super::absorb_count_impl(set, covered)
    }

    /// Muła nibble-lookup popcount of one 256-bit lane: per-byte counts via
    /// two `vpshufb` table lookups, reduced to four u64 sums by `vpsadbw`.
    #[target_feature(enable = "avx2")]
    fn popcount_m256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    fn horizontal_sum(acc: __m256i) -> usize {
        (_mm256_extract_epi64(acc, 0)
            + _mm256_extract_epi64(acc, 1)
            + _mm256_extract_epi64(acc, 2)
            + _mm256_extract_epi64(acc, 3)) as usize
    }

    // Lanes are built with `_mm256_set_epi64x` from `chunks_exact(4)` — no
    // pointer loads, so alignment is a non-issue and the body stays safe.

    #[target_feature(enable = "avx2")]
    fn popcount_words_avx2(words: &[u64]) -> usize {
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for w in chunks.by_ref() {
            let v = _mm256_set_epi64x(w[3] as i64, w[2] as i64, w[1] as i64, w[0] as i64);
            acc = _mm256_add_epi64(acc, popcount_m256(v));
        }
        let mut tail = 0usize;
        for &w in chunks.remainder() {
            tail += w.count_ones() as usize;
        }
        horizontal_sum(acc) + tail
    }

    #[target_feature(enable = "avx2")]
    fn and_not_popcount_avx2(set: &[u64], covered: &[u64]) -> usize {
        let n = set.len().min(covered.len());
        let (set, covered) = (&set[..n], &covered[..n]);
        let mut sc = set.chunks_exact(4);
        let mut cc = covered.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for (s, v) in sc.by_ref().zip(cc.by_ref()) {
            let sv = _mm256_set_epi64x(s[3] as i64, s[2] as i64, s[1] as i64, s[0] as i64);
            let cv = _mm256_set_epi64x(v[3] as i64, v[2] as i64, v[1] as i64, v[0] as i64);
            // andnot(a, b) = !a & b, so pass covered first: set & !covered.
            acc = _mm256_add_epi64(acc, popcount_m256(_mm256_andnot_si256(cv, sv)));
        }
        let mut tail = 0usize;
        for (&s, &v) in sc.remainder().iter().zip(cc.remainder()) {
            tail += (s & !v).count_ones() as usize;
        }
        horizontal_sum(acc) + tail
    }
}

/// One-word-at-a-time scalar reference implementations.
///
/// These are the ground truth the differential property tests compare the
/// unrolled and `simd` kernels against (`tests/kernel_props.rs`).  The
/// early-exit reference mirrors the kernels' block granularity exactly —
/// see the module docs — so the comparison is full bit identity.
pub mod reference {
    /// Scalar [`popcount_words`](super::popcount_words).
    pub fn popcount_words(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Scalar [`and_not_popcount`](super::and_not_popcount).
    pub fn and_not_popcount(set: &[u64], covered: &[u64]) -> usize {
        set.iter()
            .zip(covered)
            .map(|(&s, &c)| (s & !c).count_ones() as usize)
            .sum()
    }

    /// Scalar [`and_not_popcount_at_least`](super::and_not_popcount_at_least)
    /// with the same 4-word-block early-exit boundaries.
    pub fn and_not_popcount_at_least(set: &[u64], covered: &[u64], target: f64) -> usize {
        let n = set.len().min(covered.len());
        let blocks = n / 4 * 4;
        let mut acc = 0usize;
        for i in 0..blocks {
            acc += (set[i] & !covered[i]).count_ones() as usize;
            if i % 4 == 3 && acc as f64 >= target {
                return acc;
            }
        }
        for i in blocks..n {
            acc += (set[i] & !covered[i]).count_ones() as usize;
            if acc as f64 >= target {
                return acc;
            }
        }
        acc
    }

    /// Scalar [`absorb_count`](super::absorb_count).
    pub fn absorb_count(set: &[u64], covered: &mut [u64]) -> usize {
        set.iter()
            .zip(covered)
            .map(|(&s, c)| {
                let new = (s & !*c).count_ones() as usize;
                *c |= s;
                new
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize, seed: u64) -> Vec<u64> {
        // Simple xorshift fill — deterministic, covers dense and sparse words.
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 3 == 0 {
                    x
                } else {
                    x & 0x0101_0101_0101_0101
                }
            })
            .collect()
    }

    #[test]
    fn kernels_match_reference_across_boundary_sizes() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100] {
            let set = words(n, 0xdead_beef ^ n as u64);
            let covered = words(n, 0x1234_5678 ^ n as u64);
            assert_eq!(popcount_words(&set), reference::popcount_words(&set));
            assert_eq!(
                and_not_popcount(&set, &covered),
                reference::and_not_popcount(&set, &covered),
                "n={n}"
            );
            for target in [0.0, 1.0, 17.0, f64::INFINITY] {
                assert_eq!(
                    and_not_popcount_at_least(&set, &covered, target),
                    reference::and_not_popcount_at_least(&set, &covered, target),
                    "n={n} target={target}"
                );
            }
            let mut a = covered.clone();
            let mut b = covered.clone();
            assert_eq!(
                absorb_count(&set, &mut a),
                reference::absorb_count(&set, &mut b)
            );
            assert_eq!(a, b);
            assert_eq!(and_not_popcount(&set, &a), 0, "absorb must cover the set");
        }
    }

    #[test]
    fn at_least_truncation_preserves_predicates() {
        let set = words(23, 42);
        let covered = words(23, 7);
        let full = reference::and_not_popcount(&set, &covered) as f64;
        for target in [0.5, 1.0, 3.0, 10.0, 60.0, 1e9] {
            let got = and_not_popcount_at_least(&set, &covered, target) as f64;
            assert_eq!(got >= target, full >= target, "target={target}");
            assert_eq!(got > 0.0, full > 0.0);
        }
    }
}

//! Recycling word-buffer arena for slide-time bitmap allocation.
//!
//! The slide loop's allocator traffic is bitmap `Vec<u64>` churn: every
//! small→bitmap promotion of an [`InfluenceSet`](crate::InfluenceSet)
//! allocates, every growth past capacity reallocates, and every expired
//! checkpoint frees thousands of them at once.  [`WordArena`] closes that
//! loop per worker: buffers harvested from dying sets (and from in-place
//! growth) are bucketed by power-of-two capacity class and handed back
//! out — zero-filled — to the next promotion, so steady-state slides stop
//! hitting the global allocator.
//!
//! This is a *recycling pool*, not a literal bump arena: the bitmaps
//! allocated during a slide outlive it (they live inside influence sets
//! until their checkpoint expires), so memory cannot be reclaimed
//! wholesale at a slide boundary.  What resets per slide is the retention
//! policy — [`WordArena::end_slide`] trims each class back to a fixed
//! cap so a burst (e.g. a mass expiry) cannot pin memory forever.
//!
//! Buffers returned by [`WordArena::take_zeroed`] are all-zero with
//! `len == words`; only the *capacity* may exceed the request (rounded to
//! the class size).  `InfluenceSet` equality, iteration and the snapshot
//! codecs are content/length-based, so arena-backed sets are
//! indistinguishable from heap-backed ones — property-tested in
//! `tests/kernel_props.rs`.

/// Largest capacity class retained: `1 << (CLASSES - 1)` words (2 MiB of
/// bitmap).  Larger buffers are simply dropped on recycle.
const CLASSES: usize = 19;

/// Buffers kept per class after [`WordArena::end_slide`] trims.
const RETAIN_PER_CLASS: usize = 64;

/// A per-worker recycling pool of `Vec<u64>` bitmap buffers.
#[derive(Debug, Default)]
pub struct WordArena {
    /// `classes[k]` holds buffers whose capacity is exactly `1 << k`.
    classes: Vec<Vec<Vec<u64>>>,
    takes: u64,
    hits: u64,
}

impl WordArena {
    /// An empty arena (first takes fall through to the global allocator).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn class_of(words: usize) -> usize {
        words.next_power_of_two().trailing_zeros() as usize
    }

    /// Hands out an all-zero buffer with `len == words` (capacity rounded
    /// up to the power-of-two class), recycled if one is available.
    pub fn take_zeroed(&mut self, words: usize) -> Vec<u64> {
        self.takes += 1;
        let class = Self::class_of(words.max(1));
        if let Some(mut buf) = self.classes.get_mut(class).and_then(|bucket| bucket.pop()) {
            self.hits += 1;
            buf.clear();
            buf.resize(words, 0);
            return buf;
        }
        let mut buf = Vec::with_capacity(1 << class);
        buf.resize(words, 0);
        buf
    }

    /// Grows `buf` to `words` zero-extended, recycling the old backing
    /// store when growth forces a new allocation.  No-op if `buf` is
    /// already long enough.
    pub fn grow_zeroed(&mut self, buf: &mut Vec<u64>, words: usize) {
        if words <= buf.len() {
            return;
        }
        if words <= buf.capacity() {
            buf.resize(words, 0);
            return;
        }
        let mut bigger = self.take_zeroed(words);
        bigger[..buf.len()].copy_from_slice(buf);
        let old = std::mem::replace(buf, bigger);
        self.recycle(old);
    }

    /// Returns a buffer to the pool (dropped if over the class ceiling —
    /// the per-slide trim keeps retention bounded either way).
    pub fn recycle(&mut self, buf: Vec<u64>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        // Only exact power-of-two capacities re-enter their class: a
        // recycled buffer must really hold `1 << class` words or
        // `take_zeroed` would under-deliver capacity.
        if !cap.is_power_of_two() {
            return;
        }
        let class = cap.trailing_zeros() as usize;
        if class >= CLASSES {
            return;
        }
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        self.classes[class].push(buf);
    }

    /// Slide-boundary reset: trims every class to its retention cap.
    pub fn end_slide(&mut self) {
        for bucket in &mut self.classes {
            bucket.truncate(RETAIN_PER_CLASS);
        }
    }

    /// `(takes, free-list hits)` served so far (instrumentation/tests).
    pub fn stats(&self) -> (u64, u64) {
        (self.takes, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_after_recycle() {
        let mut arena = WordArena::new();
        let mut buf = arena.take_zeroed(5);
        assert_eq!(buf, vec![0u64; 5]);
        buf.iter_mut().for_each(|w| *w = u64::MAX);
        arena.recycle(buf);
        // 6 words rounds up to the same capacity class (8) as 5 did.
        let again = arena.take_zeroed(6);
        assert_eq!(again, vec![0u64; 6]);
        assert_eq!(arena.stats(), (2, 1));
    }

    #[test]
    fn classes_round_up_capacity() {
        let mut arena = WordArena::new();
        let buf = arena.take_zeroed(5);
        assert_eq!(buf.capacity(), 8);
        // A recycled 8-cap buffer serves any request in (4, 8].
        arena.recycle(buf);
        let buf = arena.take_zeroed(7);
        assert_eq!(buf.len(), 7);
        assert_eq!(arena.stats().1, 1);
        // ...but not a request for 9 words.
        arena.recycle(buf);
        let buf = arena.take_zeroed(9);
        assert_eq!(buf.capacity(), 16);
        assert_eq!(arena.stats().1, 1);
    }

    #[test]
    fn grow_zeroed_recycles_old_backing() {
        let mut arena = WordArena::new();
        let mut buf = arena.take_zeroed(5);
        buf[0] = 0xff;
        arena.grow_zeroed(&mut buf, 6);
        assert_eq!(buf.len(), 6);
        assert_eq!(buf[0], 0xff);
        assert_eq!(&buf[5..], &[0]);
        // Growth within the class capacity must not allocate a new buffer.
        assert_eq!(arena.stats().0, 1);
        arena.grow_zeroed(&mut buf, 40);
        assert_eq!(buf.len(), 40);
        assert_eq!(buf[0], 0xff);
        // The old 8-cap backing store went back to the pool.
        let reused = arena.take_zeroed(8);
        assert_eq!(reused, vec![0u64; 8]);
        assert_eq!(arena.stats().1, 1);
    }

    #[test]
    fn end_slide_trims_retention() {
        let mut arena = WordArena::new();
        let bufs: Vec<_> = (0..100).map(|_| arena.take_zeroed(4)).collect();
        for b in bufs {
            arena.recycle(b);
        }
        arena.end_slide();
        let retained: usize = arena.classes.iter().map(|b| b.len()).sum();
        assert_eq!(retained, RETAIN_PER_CLASS);
    }

    #[test]
    fn oversized_and_empty_buffers_are_dropped() {
        let mut arena = WordArena::new();
        arena.recycle(Vec::new());
        arena.recycle(Vec::with_capacity(1 << CLASSES));
        arena.recycle(Vec::with_capacity(12)); // not a power of two
        assert!(arena.classes.iter().all(|b| b.is_empty()));
    }
}

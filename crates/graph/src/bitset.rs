//! Fixed-capacity bitsets used as transitive-closure rows.
//!
//! A `BitSet` is a plain `Vec<u64>`; all operations are word-parallel, which
//! is what makes the `O(n·m/64)` closure computation cheap even for the
//! larger random DAGs of the experiment sweeps.

/// A fixed-capacity set of `usize` indices backed by 64-bit words.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity (exclusive upper bound on member indices).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`. Panics if `i` is out of capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {} out of capacity {}", i, self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self |= other`. Both sets must share capacity.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all members, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-dimensions the set to capacity `len` and clears it, reusing the
    /// word buffer. The allocation-free path of the batch analysis engine:
    /// a pooled row shrinks/grows without touching the heap once its buffer
    /// has reached the high-water mark.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// A recycling pool of [`BitSet`]s.
///
/// Scratch-aware algorithms ([`crate::closure::TransitiveClosure::build_into`])
/// return rows here when a smaller graph needs fewer of them and draw rows
/// back out when a larger graph arrives, so row buffers are allocated only
/// until the pool reaches the corpus high-water mark.
#[derive(Clone, Debug, Default)]
pub struct BitSetPool {
    free: Vec<BitSet>,
}

impl BitSetPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared set of capacity `len` from the pool (or allocates one
    /// if the pool is empty).
    pub fn acquire(&mut self, len: usize) -> BitSet {
        let mut s = self.free.pop().unwrap_or_else(|| BitSet::new(0));
        s.reset(len);
        s
    }

    /// Returns a set to the pool for later reuse.
    pub fn release(&mut self, s: BitSet) {
        self.free.push(s);
    }

    /// Number of sets currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Iterator over the members of a [`BitSet`], ascending.
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + tz)
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element (+1).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(200);
        for i in [5usize, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![5, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn union_with_merges_members() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 50, 99]);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(3);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn from_iter_sizes_to_max() {
        let s: BitSet = [3usize, 7, 7, 1].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn reset_redimensions_and_clears() {
        let mut s = BitSet::new(130);
        s.insert(129);
        s.reset(65);
        assert_eq!(s.capacity(), 65);
        assert!(s.is_empty());
        s.insert(64);
        assert!(s.contains(64));
        s.reset(200);
        assert!(s.is_empty());
        s.insert(199);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn pool_recycles_sets() {
        let mut pool = BitSetPool::new();
        let mut a = pool.acquire(100);
        a.insert(7);
        pool.release(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.acquire(50);
        assert_eq!(pool.pooled(), 0);
        assert_eq!(b.capacity(), 50);
        assert!(b.is_empty(), "recycled set must come back cleared");
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    proptest! {
        #[test]
        fn matches_reference_set(items in proptest::collection::vec(0usize..300, 0..80)) {
            let mut s = BitSet::new(300);
            let mut reference = std::collections::BTreeSet::new();
            for &i in &items {
                s.insert(i);
                reference.insert(i);
            }
            prop_assert_eq!(s.count(), reference.len());
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
            for i in 0..300 {
                prop_assert_eq!(s.contains(i), reference.contains(&i));
            }
        }

        #[test]
        fn union_is_commutative(
            xs in proptest::collection::vec(0usize..128, 0..40),
            ys in proptest::collection::vec(0usize..128, 0..40),
        ) {
            let mut a = BitSet::new(128);
            let mut b = BitSet::new(128);
            for &x in &xs { a.insert(x); }
            for &y in &ys { b.insert(y); }
            let mut ab = a.clone();
            ab.union_with(&b);
            let mut ba = b.clone();
            ba.union_with(&a);
            prop_assert_eq!(ab, ba);
        }
    }
}

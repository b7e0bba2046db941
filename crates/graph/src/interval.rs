//! Half-open lifetime intervals `(a, b]` and maximum-overlap sweeps.
//!
//! The paper defines the lifetime of a value as
//! `LT_σ(u) = (σ_u + δw(u), max_v(σ_v + δr(v))]` — *left-open*: a value
//! written at cycle `c` is available one step later, so a read at `c` of the
//! same register still sees the previous value. The register need `RN_σ(G)`
//! is the maximum number of pairwise-interfering intervals, which for
//! intervals equals the maximum overlap at any point (interval graphs are
//! perfect).

/// A half-open interval `(start, end]` on the integer timeline.
///
/// Empty when `end <= start` (a value killed no later than it is written
/// occupies no register — this happens for a value whose only reader is
/// issued at the write cycle with zero delays).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Exclusive left endpoint (the write completion cycle).
    pub start: i64,
    /// Inclusive right endpoint (the kill cycle).
    pub end: i64,
}

impl Interval {
    /// Creates `(start, end]`.
    pub fn new(start: i64, end: i64) -> Self {
        Interval { start, end }
    }

    /// Whether the interval contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether two half-open intervals share a point:
    /// `(a1, b1] ∩ (a2, b2] ≠ ∅  ⟺  a1 < b2 ∧ a2 < b1` (both nonempty).
    #[inline]
    pub fn interferes(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Number of integer points in the interval (`0` if empty).
    pub fn len(&self) -> i64 {
        (self.end - self.start).max(0)
    }
}

/// Maximum number of simultaneously "alive" intervals, i.e. the maximum
/// clique of the interference graph. Empty intervals never contribute.
///
/// The count of [`max_overlap_witness`]'s endpoint sweep, `O(k log k)`.
pub fn max_overlap(intervals: &[Interval]) -> usize {
    max_overlap_witness(intervals).0
}

/// The maximum overlap, the first time point achieving it (0 when no
/// interval is alive anywhere) and the indices of the intervals alive
/// there. Useful for extracting a *saturating set* of values from a
/// schedule.
pub fn max_overlap_witness(intervals: &[Interval]) -> (usize, i64, Vec<usize>) {
    // Events at integer point p: an interval (a, b] covers points a+1 ..= b.
    // Opening at a+1, closing after b.
    let mut events: Vec<(i64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        if iv.is_empty() {
            continue;
        }
        events.push((iv.start + 1, 1));
        events.push((iv.end + 1, -1));
    }
    // Sorting puts a closing (-1) before an opening (+1) at one position:
    // a close at b+1 and an open at a'+1 meet when b == a', and (a, b] and
    // (a', b'] with a' = b do not interfere, so the closing applies first.
    events.sort_unstable();
    let mut cur = 0i64;
    let mut best = 0i64;
    let mut best_point = 0i64;
    for (p, delta) in events {
        cur += delta as i64;
        if cur > best {
            best = cur;
            best_point = p;
        }
    }
    let members: Vec<usize> = intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| !iv.is_empty() && iv.start < best_point && best_point <= iv.end)
        .map(|(i, _)| i)
        .collect();
    (best as usize, best_point, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interference_semantics() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 10); // starts exactly where a ends: (0,5] vs (5,10]
        assert!(
            !a.interferes(&b),
            "touching half-open intervals do not interfere"
        );
        let c = Interval::new(4, 6);
        assert!(a.interferes(&c));
        assert!(c.interferes(&a), "interference is symmetric");
    }

    #[test]
    fn empty_intervals_never_interfere() {
        let e = Interval::new(3, 3);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let full = Interval::new(0, 10);
        assert!(!e.interferes(&full));
        assert!(!full.interferes(&e));
    }

    #[test]
    fn overlap_counts() {
        let ivs = [
            Interval::new(0, 10),
            Interval::new(2, 5),
            Interval::new(3, 4),
            Interval::new(9, 12),
        ];
        // at point 4: intervals 0,1,2 alive -> 3
        assert_eq!(max_overlap(&ivs), 3);
        let (k, point, members) = max_overlap_witness(&ivs);
        assert_eq!(k, 3);
        assert_eq!(members.len(), 3);
        for &m in &members {
            assert!(ivs[m].start < point && point <= ivs[m].end);
        }
    }

    #[test]
    fn disjoint_is_one() {
        let ivs = [
            Interval::new(0, 1),
            Interval::new(1, 2),
            Interval::new(2, 3),
        ];
        assert_eq!(max_overlap(&ivs), 1);
    }

    #[test]
    fn no_intervals() {
        assert_eq!(max_overlap(&[]), 0);
        let (k, _, members) = max_overlap_witness(&[]);
        assert_eq!(k, 0);
        assert!(members.is_empty());
    }

    #[test]
    fn negative_coordinates() {
        let ivs = [Interval::new(-10, -2), Interval::new(-5, 0)];
        assert_eq!(max_overlap(&ivs), 2);
    }

    /// Brute-force overlap: count at every integer point in range.
    fn brute_overlap(ivs: &[Interval]) -> usize {
        let mut best = 0;
        for p in -50i64..=50 {
            let c = ivs
                .iter()
                .filter(|iv| !iv.is_empty() && iv.start < p && p <= iv.end)
                .count();
            best = best.max(c);
        }
        best
    }

    proptest! {
        #[test]
        fn sweep_matches_brute_force(raw in proptest::collection::vec((-40i64..40, -40i64..40), 0..25)) {
            let ivs: Vec<Interval> = raw.into_iter().map(|(a, b)| Interval::new(a, b)).collect();
            prop_assert_eq!(max_overlap(&ivs), brute_overlap(&ivs));
        }

        #[test]
        fn witness_is_consistent(raw in proptest::collection::vec((-40i64..40, 0i64..20), 1..20)) {
            let ivs: Vec<Interval> = raw.into_iter().map(|(a, len)| Interval::new(a, a + len)).collect();
            let (k, point, members) = max_overlap_witness(&ivs);
            prop_assert_eq!(k, max_overlap(&ivs));
            prop_assert_eq!(members.len(), k);
            for &m in &members {
                prop_assert!(ivs[m].start < point && point <= ivs[m].end);
            }
            // all members pairwise interfere (they share `point`)
            for &a in &members {
                for &b in &members {
                    if a != b {
                        prop_assert!(ivs[a].interferes(&ivs[b]));
                    }
                }
            }
        }
    }
}

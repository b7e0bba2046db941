//! Maximum antichains of finite posets (Dilworth).
//!
//! The register saturation of a DAG under a fixed killing function is the
//! size of a maximum antichain of the *disjoint-value DAG* (Touati \[14\]).
//! Dilworth's theorem reduces this to bipartite matching: for a poset on
//! `n` elements, `max antichain = n − max matching` on the comparability
//! bipartite graph, and the antichain itself falls out of the König minimum
//! vertex cover.
//!
//! The order is supplied as a closure `less(u, v)` which **must be a strict
//! partial order** (irreflexive, transitive); callers pass reachability in a
//! transitively closed DAG.

use crate::graph::NodeId;
use crate::matching::{hopcroft_karp_into, BipartiteGraph, MatchingScratch};

/// Reusable working storage for [`max_antichain_into`]: the comparability
/// bipartite graph and the matching buffers.
#[derive(Clone, Debug, Default)]
pub struct AntichainScratch {
    bg: BipartiteGraph,
    matching: MatchingScratch,
}

impl AntichainScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes a maximum antichain of the poset induced by `less` on
/// `elements` into `antichain` (in `elements` order) and returns its width.
///
/// `less(a, b)` must hold iff `a` strictly precedes `b`; it must be
/// irreflexive and transitive, and it is only asked about distinct
/// elements. Complexity `O(k² + E√k)` for `k` elements; `scratch` is
/// reused across calls, so the steady state allocates nothing.
///
/// ```
/// use rs_graph::{antichain::{max_antichain_into, AntichainScratch}, NodeId};
///
/// // the divisibility poset on {1, 2, 3, 4}: width 2 ({3, 4})
/// let els: Vec<NodeId> = (1..=4).map(NodeId).collect();
/// let mut antichain = Vec::new();
/// let width = max_antichain_into(
///     &els,
///     |a, b| b.0 % a.0 == 0,
///     &mut AntichainScratch::new(),
///     &mut antichain,
/// );
/// assert_eq!(width, 2);
/// assert_eq!(antichain, vec![NodeId(3), NodeId(4)]);
/// ```
pub fn max_antichain_into(
    elements: &[NodeId],
    mut less: impl FnMut(NodeId, NodeId) -> bool,
    scratch: &mut AntichainScratch,
    antichain: &mut Vec<NodeId>,
) -> usize {
    let k = elements.len();
    scratch.bg.reset(k, k);
    for i in 0..k {
        for j in 0..k {
            if i != j && less(elements[i], elements[j]) {
                scratch.bg.add_edge(i, j);
            }
        }
    }
    hopcroft_karp_into(&scratch.bg, &mut scratch.matching);
    let m = &scratch.matching;

    // Antichain = elements uncovered on both sides (König).
    antichain.clear();
    antichain.extend(
        (0..k)
            .filter(|&i| !m.cover_left[i] && !m.cover_right[i])
            .map(|i| elements[i]),
    );
    debug_assert_eq!(antichain.len(), k - m.size, "Dilworth count mismatch");
    antichain.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    fn antichain_of(els: &[NodeId], less: impl FnMut(NodeId, NodeId) -> bool) -> Vec<NodeId> {
        let mut antichain = Vec::new();
        let width = max_antichain_into(els, less, &mut AntichainScratch::new(), &mut antichain);
        assert_eq!(width, antichain.len());
        antichain
    }

    #[test]
    fn total_order_has_width_one() {
        let els = ids(&[0, 1, 2, 3]);
        assert_eq!(antichain_of(&els, |a, b| a.0 < b.0).len(), 1);
    }

    #[test]
    fn empty_order_is_one_big_antichain() {
        let els = ids(&[0, 1, 2, 3, 4]);
        assert_eq!(antichain_of(&els, |_, _| false), els);
    }

    #[test]
    fn two_by_two_grid() {
        // poset: 0 < 1, 0 < 2, 1 < 3, 2 < 3 (and 0 < 3 by transitivity)
        let els = ids(&[0, 1, 2, 3]);
        let pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)];
        let r = antichain_of(&els, |a, b| pairs.contains(&(a.0, b.0)));
        assert_eq!(r, ids(&[1, 2]), "expected the middle layer");
    }

    #[test]
    fn empty_elements() {
        assert!(antichain_of(&[], |_, _| true).is_empty());
    }

    #[test]
    fn independent_chains() {
        // two independent chains: 0<1<2 and 3<4, plus isolated 5
        let els = ids(&[0, 1, 2, 3, 4, 5]);
        let pairs = [(0, 1), (1, 2), (0, 2), (3, 4)];
        let r = antichain_of(&els, |a, b| pairs.contains(&(a.0, b.0)));
        assert_eq!(r.len(), 3);
        assert!(r.contains(&NodeId(5)));
    }

    #[test]
    fn scratch_survives_size_changes() {
        // big → small → big on one scratch: nothing stale leaks through.
        // The order is two chains, the evens and the odds.
        let mut scratch = AntichainScratch::new();
        let mut antichain = Vec::new();
        let less = |a: NodeId, b: NodeId| a.0 % 2 == b.0 % 2 && a.0 < b.0;
        for k in [6u32, 1, 4, 0, 6] {
            let els: Vec<NodeId> = (0..k).map(NodeId).collect();
            let width = max_antichain_into(&els, less, &mut scratch, &mut antichain);
            assert_eq!(width, k.min(2) as usize);
            assert_eq!(antichain, antichain_of(&els, less));
        }
    }

    /// Brute-force max antichain by subset enumeration.
    fn brute_width(els: &[NodeId], less: &dyn Fn(NodeId, NodeId) -> bool) -> usize {
        let k = els.len();
        let mut best = 0;
        for mask in 0u32..(1 << k) {
            let members: Vec<NodeId> = (0..k)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| els[i])
                .collect();
            let ok = members.iter().all(|&a| {
                members
                    .iter()
                    .all(|&b| a == b || (!less(a, b) && !less(b, a)))
            });
            if ok {
                best = best.max(members.len());
            }
        }
        best
    }

    proptest! {
        #[test]
        fn agrees_with_brute_force(edges in proptest::collection::vec((0u32..8, 0u32..8), 0..20)) {
            // build a random strict order from a random DAG (low -> high) and
            // transitively close it by Floyd-Warshall
            let mut rel = [[false; 8]; 8];
            for (u, v) in edges {
                if u < v {
                    rel[u as usize][v as usize] = true;
                }
            }
            for m in 0..8 {
                for a in 0..8 {
                    for b in 0..8 {
                        if rel[a][m] && rel[m][b] {
                            rel[a][b] = true;
                        }
                    }
                }
            }
            let els = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
            let less = |a: NodeId, b: NodeId| rel[a.index()][b.index()];
            let r = antichain_of(&els, less);
            // witness is a valid antichain
            for &a in &r {
                for &b in &r {
                    prop_assert!(a == b || (!less(a, b) && !less(b, a)));
                }
            }
            // optimal
            prop_assert_eq!(r.len(), brute_width(&els, &less));
        }
    }
}

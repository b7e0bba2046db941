//! Bitset transitive closure / reachability.
//!
//! The disjoint-value DAG and the poset algorithms need `O(1)` reachability
//! queries; one bitset row per node gives `O(n·m/64)` construction.

use crate::bitset::{BitSet, BitSetPool};
use crate::graph::{DiGraph, NodeId};
use crate::topo::topo_sort;

/// Reachability oracle for a DAG. `reaches(u, v)` is true iff there is a
/// path of one or more edges from `u` to `v` (irreflexive: `reaches(u, u)`
/// is false unless the caller made it so via [`TransitiveClosure::insert`]).
#[derive(Clone, Debug)]
pub struct TransitiveClosure {
    rows: Vec<BitSet>,
}

impl Default for TransitiveClosure {
    fn default() -> Self {
        Self::empty()
    }
}

impl TransitiveClosure {
    /// Builds the closure of a DAG.
    pub fn new<N>(g: &DiGraph<N>) -> Self {
        let order = topo_sort(g).expect("TransitiveClosure requires a DAG");
        let mut tc = Self::empty();
        tc.build_into(g, &order, &mut BitSetPool::new());
        tc
    }

    /// A closure over zero nodes, ready for [`TransitiveClosure::build_into`].
    pub fn empty() -> Self {
        TransitiveClosure { rows: Vec::new() }
    }

    /// Rebuilds the closure for `g` in place. `order` must be a topological
    /// order of `g`; rows are recycled through `pool` when the node count
    /// shrinks and drawn back out when it grows, so a warm batch run touches
    /// the heap only at new high-water marks.
    pub fn build_into<N>(&mut self, g: &DiGraph<N>, order: &[NodeId], pool: &mut BitSetPool) {
        let n = g.node_count();
        debug_assert_eq!(order.len(), n, "order must cover the graph");
        while self.rows.len() > n {
            pool.release(self.rows.pop().expect("len checked"));
        }
        for row in &mut self.rows {
            row.reset(n);
        }
        while self.rows.len() < n {
            self.rows.push(pool.acquire(n));
        }
        let rows = &mut self.rows;
        for &u in order.iter().rev() {
            // descendants(u) = ∪ over successors s of ({s} ∪ descendants(s)),
            // iterated straight off the adjacency list (no temporary buffer).
            let ui = u.index();
            for e in g.out_edges(u) {
                let si = g.dst(e).index();
                if si != ui {
                    // split_at_mut to borrow two rows
                    if ui < si {
                        let (left, right) = rows.split_at_mut(si);
                        left[ui].union_with(&right[0]);
                    } else {
                        let (left, right) = rows.split_at_mut(ui);
                        right[0].union_with(&left[si]);
                    }
                    rows[ui].insert(si);
                }
            }
        }
    }

    /// Strict reachability query.
    #[inline]
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.rows[u.index()].contains(v.index())
    }

    /// Whether `u` and `v` are incomparable (no path either way, and distinct).
    #[inline]
    pub fn incomparable(&self, u: NodeId, v: NodeId) -> bool {
        u != v && !self.reaches(u, v) && !self.reaches(v, u)
    }

    /// The descendant row of `u`.
    #[inline]
    pub fn descendants(&self, u: NodeId) -> &BitSet {
        &self.rows[u.index()]
    }

    /// Manually asserts reachability `u ⇝ v` (used by callers that overlay
    /// extra precedence on top of a graph closure).
    pub fn insert(&mut self, u: NodeId, v: NodeId) {
        self.rows[u.index()].insert(v.index());
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the closure covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn diamond_closure() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(a, c, 0);
        g.add_edge(b, d, 0);
        g.add_edge(c, d, 0);
        let tc = TransitiveClosure::new(&g);
        assert!(tc.reaches(a, d));
        assert!(tc.reaches(a, b));
        assert!(!tc.reaches(d, a));
        assert!(!tc.reaches(b, c));
        assert!(tc.incomparable(b, c));
        assert!(!tc.incomparable(a, d));
        assert!(!tc.reaches(a, a));
        assert_eq!(tc.descendants(a).count(), 3);
        assert_eq!(tc.descendants(d).count(), 0);
    }

    #[test]
    fn build_into_recycles_rows() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        let order = topo_sort(&g).unwrap();
        let mut pool = BitSetPool::new();
        let mut tc = TransitiveClosure::empty();
        tc.build_into(&g, &order, &mut pool);
        assert!(tc.reaches(a, c));
        // shrink: extra rows land in the pool, stale bits cleared on reuse
        let mut g2: DiGraph<()> = DiGraph::new();
        let x = g2.add_node(());
        let order2 = topo_sort(&g2).unwrap();
        tc.build_into(&g2, &order2, &mut pool);
        assert_eq!(tc.len(), 1);
        assert_eq!(pool.pooled(), 2);
        assert!(!tc.reaches(x, x));
        // grow again: matches a fresh build
        tc.build_into(&g, &order, &mut pool);
        let fresh = TransitiveClosure::new(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(tc.reaches(u, v), fresh.reaches(u, v));
            }
        }
    }

    #[test]
    fn manual_insert() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let mut tc = TransitiveClosure::new(&g);
        assert!(!tc.reaches(a, b));
        tc.insert(a, b);
        assert!(tc.reaches(a, b));
    }

    proptest! {
        /// Closure agrees with DFS reachability on random DAGs.
        #[test]
        fn matches_dfs(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)) {
            let mut g: DiGraph<()> = DiGraph::new();
            for _ in 0..12 {
                g.add_node(());
            }
            for (u, v) in edges {
                // orient edges low -> high to guarantee a DAG
                if u < v {
                    g.add_edge(NodeId(u as u32), NodeId(v as u32), 1);
                }
            }
            let tc = TransitiveClosure::new(&g);
            // reference DFS
            for s in g.node_ids() {
                let mut seen = [false; 12];
                let mut stack = vec![s];
                while let Some(u) = stack.pop() {
                    for v in g.successors(u) {
                        if !seen[v.index()] {
                            seen[v.index()] = true;
                            stack.push(v);
                        }
                    }
                }
                for t in g.node_ids() {
                    prop_assert_eq!(tc.reaches(s, t), seen[t.index()],
                        "closure mismatch {:?} -> {:?}", s, t);
                }
            }
        }
    }
}

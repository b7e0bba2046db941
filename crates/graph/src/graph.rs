//! Arena-based directed multigraph with integer edge latencies.
//!
//! Nodes carry an arbitrary payload `N`; edges carry an `i64` latency (the
//! paper's `δ(e)`), which may be negative for VLIW/EPIC serialization arcs.
//! Edges are removed by tombstoning so that `EdgeId`s stay stable: the
//! register-saturation passes routinely record edge ids while mutating the
//! graph.

use crate::MAX_LATENCY;
use std::fmt;

/// Index of a node in a [`DiGraph`]. Stable for the lifetime of the graph
/// (nodes are never removed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`DiGraph`]. Stable; removed edges leave tombstones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct EdgeRecord {
    src: NodeId,
    dst: NodeId,
    latency: i64,
    alive: bool,
}

/// A directed multigraph with node payloads and `i64` edge latencies.
///
/// Parallel edges are allowed (the DDG model produces them: a flow edge and a
/// serial edge may connect the same pair); self-loops are rejected because
/// every structure in the framework is a DAG or must be checked to be one.
#[derive(Clone, Debug, Default)]
pub struct DiGraph<N> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    live_edges: usize,
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            live_edges: 0,
        }
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
            live_edges: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-tombstoned) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst` with the given latency.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range node ids, or a latency beyond
    /// ±[`MAX_LATENCY`] (which keeps longest-path sums exact).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, latency: i64) -> EdgeId {
        assert!(src != dst, "self-loop {:?} -> {:?} rejected", src, dst);
        assert!(
            (-MAX_LATENCY..=MAX_LATENCY).contains(&latency),
            "latency {latency} of {src:?} -> {dst:?} beyond ±{MAX_LATENCY}"
        );
        assert!(src.index() < self.nodes.len(), "src out of range");
        assert!(dst.index() < self.nodes.len(), "dst out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord {
            src,
            dst,
            latency,
            alive: true,
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.live_edges += 1;
        id
    }

    /// Tombstones an edge. Its id remains valid but the edge no longer
    /// participates in traversals. Idempotent.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let rec = &mut self.edges[e.index()];
        if rec.alive {
            rec.alive = false;
            self.live_edges -= 1;
        }
    }

    /// Whether the edge is live.
    #[inline]
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.edges[e.index()].alive
    }

    /// Source node of an edge (valid even for tombstoned edges).
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination node of an edge (valid even for tombstoned edges).
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// Latency `δ(e)` of an edge.
    #[inline]
    pub fn latency(&self, e: EdgeId) -> i64 {
        self.edges[e.index()].latency
    }

    /// Immutable access to a node payload.
    #[inline]
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Live out-edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_adj[n.index()]
            .iter()
            .copied()
            .filter(move |&e| self.edges[e.index()].alive)
    }

    /// Live in-edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_adj[n.index()]
            .iter()
            .copied()
            .filter(move |&e| self.edges[e.index()].alive)
    }

    /// Successor nodes of `n` (may repeat under parallel edges).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(move |e| self.dst(e))
    }

    /// Predecessor nodes of `n` (may repeat under parallel edges).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n).map(move |e| self.src(e))
    }

    /// Out-degree counting only live edges.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_edges(n).count()
    }

    /// In-degree counting only live edges.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_edges(n).count()
    }

    /// Nodes with no live out-edges.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }

    /// Sum of the latencies of all live edges, clamped at 0 from below per
    /// edge. This is the paper's worst-case total schedule time
    /// `T = Σ_e δ(e)` used to bound intLP variable domains (negative-latency
    /// VLIW arcs do not shrink the horizon).
    pub fn total_latency(&self) -> i64 {
        self.edge_ids().map(|e| self.latency(e).max(0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let d = g.add_node(3);
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_count() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency() {
        let (g, [a, b, c, d]) = diamond();
        let succ_a: Vec<_> = g.successors(a).collect();
        assert_eq!(succ_a, vec![b, c]);
        let pred_d: Vec<_> = g.predecessors(d).collect();
        assert_eq!(pred_d, vec![b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn tombstone_removal() {
        let (mut g, [a, b, c, _]) = diamond();
        let e = g.out_edges(a).next().unwrap();
        assert_eq!(g.dst(e), b);
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.edge_alive(e));
        assert_eq!(g.successors(a).collect::<Vec<_>>(), [c]);
        // idempotent
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 3);
        // endpoints still queryable on the tombstone
        assert_eq!(g.src(e), a);
        assert_eq!(g.dst(e), b);
    }

    #[test]
    fn parallel_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 5);
        assert_eq!(g.edge_count(), 2);
        let latencies: Vec<i64> = g.out_edges(a).map(|e| g.latency(e)).collect();
        assert_eq!(latencies, [1, 5]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, 0);
    }

    #[test]
    fn latency_bound_is_inclusive() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, MAX_LATENCY);
        g.add_edge(b, a, -MAX_LATENCY);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn latency_beyond_bound_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, i64::MIN);
    }

    #[test]
    fn sinks_and_sources() {
        let (g, [a, _, _, d]) = diamond();
        let sources: Vec<NodeId> = g.node_ids().filter(|&n| g.in_degree(n) == 0).collect();
        assert_eq!(sources, vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn total_latency_clamps_negative() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 3);
        g.add_edge(a, b, -7);
        assert_eq!(g.total_latency(), 3);
    }
}

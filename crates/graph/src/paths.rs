//! Longest paths on DAGs.
//!
//! In the scheduling model of the paper, a valid schedule satisfies
//! `σ_v − σ_u ≥ δ(e)` for every edge, so the *longest* path `lp(u, v)` is the
//! minimum possible separation between the issue dates of `u` and `v`. All
//! routines accept negative latencies (VLIW serialization arcs).
//!
//! All functions panic if the graph is cyclic; callers are expected to have
//! validated acyclicity (the DDG invariant).

use crate::graph::{DiGraph, NodeId};
use crate::topo::topo_sort;
use crate::NO_PATH;

/// Longest path lengths from `src` to every node (`None` if unreachable;
/// `Some(0)` for `src` itself).
pub fn longest_from<N>(g: &DiGraph<N>, src: NodeId) -> Vec<Option<i64>> {
    let order = topo_sort(g).expect("longest_from requires a DAG");
    let mut dist: Vec<Option<i64>> = vec![None; g.node_count()];
    dist[src.index()] = Some(0);
    for &u in &order {
        let Some(du) = dist[u.index()] else { continue };
        for e in g.out_edges(u) {
            let v = g.dst(e);
            let cand = du + g.latency(e);
            if dist[v.index()].is_none_or(|dv| cand > dv) {
                dist[v.index()] = Some(cand);
            }
        }
    }
    dist
}

/// Longest path lengths from every node to `dst`.
pub fn longest_to<N>(g: &DiGraph<N>, dst: NodeId) -> Vec<Option<i64>> {
    let order = topo_sort(g).expect("longest_to requires a DAG");
    let mut dist: Vec<Option<i64>> = vec![None; g.node_count()];
    dist[dst.index()] = Some(0);
    for &u in order.iter().rev() {
        if u == dst {
            continue;
        }
        let mut best: Option<i64> = None;
        for e in g.out_edges(u) {
            let v = g.dst(e);
            if let Some(dv) = dist[v.index()] {
                let cand = dv + g.latency(e);
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
            }
        }
        if u != dst {
            dist[u.index()] = best;
        }
    }
    dist
}

/// Dense all-pairs longest-path table for a DAG.
///
/// Memory is `O(n²)`; time is `O(n·m)`. DDGs in this framework are loop
/// bodies (tens of nodes) so a dense table is the right trade-off — it is
/// queried `O(n²)` times per saturation analysis.
///
/// Every cell starts at the one sentinel [`NO_PATH`] and relaxes with a
/// plain `max`, so a cell without a path drifts to `NO_PATH` plus the sum
/// of some real path. That is exact while every path sum stays inside
/// ±2^60: real cells then stay above `NO_PATH / 2` and pathless cells below
/// it, which holds for latencies within ±[`MAX_LATENCY`](crate::MAX_LATENCY)
/// (what [`DiGraph::add_edge`] accepts) and fewer than 2^29 nodes
/// (asserted).
#[derive(Clone, Debug)]
pub struct LongestPaths {
    n: usize,
    // row-major; any value ≤ NO_PATH / 2 encodes "no path"
    table: Vec<i64>,
}

/// Exclusive bound on the node count of a [`LongestPaths`] table: with
/// latencies within ±`MAX_LATENCY`, a path of fewer than 2^29 arcs sums to
/// less than 2^60 in magnitude.
const MAX_NODES: usize = 1 << 29;

impl Default for LongestPaths {
    fn default() -> Self {
        Self::empty()
    }
}

impl LongestPaths {
    /// Builds the table.
    pub fn new<N>(g: &DiGraph<N>) -> Self {
        let order = topo_sort(g).expect("LongestPaths requires a DAG");
        let mut lp = Self::empty();
        lp.compute_into(g, &order);
        lp
    }

    /// An empty table, ready to be (re)filled by [`LongestPaths::compute_into`].
    pub fn empty() -> Self {
        LongestPaths {
            n: 0,
            table: Vec::new(),
        }
    }

    /// Recomputes the table for `g` in place, reusing the table allocation.
    /// `order` must be a topological order of `g` (e.g. from
    /// [`crate::topo::topo_sort_into`]); sharing it lets a caller pay for one
    /// topological sort per graph instead of one per table.
    pub fn compute_into<N>(&mut self, g: &DiGraph<N>, order: &[NodeId]) {
        self.relax(g.node_count(), order, |u| {
            g.out_edges(u).map(move |e| (g.dst(e), g.latency(e)))
        });
    }

    /// [`LongestPaths::compute_into`] for a flat out-adjacency over
    /// `offsets.len() − 1` nodes: the arcs of node `u` are
    /// `arcs[offsets[u]..offsets[u + 1]]`, each a `(dst, latency)` pair with
    /// `|latency| ≤` [`MAX_LATENCY`](crate::MAX_LATENCY). `order` must be a
    /// topological order of those arcs (e.g. from
    /// [`crate::topo::topo_sort_arcs_into`]).
    pub fn compute_arcs_into(
        &mut self,
        order: &[NodeId],
        offsets: &[usize],
        arcs: &[(NodeId, i64)],
    ) {
        self.relax(offsets.len() - 1, order, |u| {
            arcs[offsets[u.index()]..offsets[u.index() + 1]]
                .iter()
                .copied()
        });
    }

    /// The one relaxation loop behind both entries: `out(u)` yields the
    /// `(dst, latency)` arcs leaving `u`.
    fn relax<I: Iterator<Item = (NodeId, i64)>>(
        &mut self,
        n: usize,
        order: &[NodeId],
        mut out: impl FnMut(NodeId) -> I,
    ) {
        assert!(n < MAX_NODES, "{n} nodes would let path sums pass ±2^60");
        debug_assert_eq!(order.len(), n, "order must cover the graph");
        self.n = n;
        self.table.clear();
        self.table.resize(n * n, NO_PATH);
        let table = &mut self.table[..];
        // Process nodes in reverse topological order: lp(u, v) =
        // max over out-arcs (u,w) of δ + lp(w, v), and lp(u, u) = 0.
        for &u in order.iter().rev() {
            let ui = u.index();
            table[ui * n + ui] = 0;
            for (w, lat) in out(u) {
                let wi = w.index();
                // Split borrows: row `u` mutable, row `w` shared (ui != wi
                // because self-loops are rejected). Whole-row slices keep the
                // inner loop free of index arithmetic so it vectorizes.
                let (urow, wrow) = if ui < wi {
                    let (lo, hi) = table.split_at_mut(wi * n);
                    (&mut lo[ui * n..ui * n + n], &hi[..n])
                } else {
                    let (lo, hi) = table.split_at_mut(ui * n);
                    (&mut hi[..n], &lo[wi * n..wi * n + n])
                };
                for (cell, &via) in urow.iter_mut().zip(wrow) {
                    *cell = (*cell).max(via + lat);
                }
            }
        }
    }

    /// `lp(u, v)`: longest path length, `None` if no path. `lp(u, u) == 0`.
    #[inline]
    pub fn lp(&self, u: NodeId, v: NodeId) -> Option<i64> {
        let x = self.table[u.index() * self.n + v.index()];
        (x > NO_PATH / 2).then_some(x)
    }

    /// Whether a (possibly empty) path `u ⇝ v` exists.
    #[inline]
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.table[u.index() * self.n + v.index()] > NO_PATH / 2
    }

    /// Number of nodes the table covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Length of the longest path in the DAG (0 for an empty or edgeless
/// graph): the latest [`asap`] date.
pub fn critical_path<N>(g: &DiGraph<N>) -> i64 {
    asap(g).into_iter().max().unwrap_or(0)
}

/// As-soon-as-possible issue dates: `asap(u) = max path length into u`,
/// i.e. the earliest valid `σ_u` starting all sources at 0.
pub fn asap<N>(g: &DiGraph<N>) -> Vec<i64> {
    let order = topo_sort(g).expect("asap requires a DAG");
    let mut dist = vec![0i64; g.node_count()];
    for &u in &order {
        for e in g.out_edges(u) {
            let v = g.dst(e);
            dist[v.index()] = dist[v.index()].max(dist[u.index()] + g.latency(e));
        }
    }
    dist
}

/// As-late-as-possible issue dates against horizon `t`:
/// `alap(u) = t − max path length from u`.
pub fn alap<N>(g: &DiGraph<N>, horizon: i64) -> Vec<i64> {
    let order = topo_sort(g).expect("alap requires a DAG");
    let mut from = vec![0i64; g.node_count()];
    for &u in order.iter().rev() {
        for e in g.out_edges(u) {
            let v = g.dst(e);
            from[u.index()] = from[u.index()].max(from[v.index()] + g.latency(e));
        }
    }
    from.iter().map(|&f| horizon - f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_LATENCY;

    fn chain_and_shortcut() -> (DiGraph<()>, [NodeId; 4]) {
        // a -1-> b -2-> c -3-> d, plus shortcut a -4-> d
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 2);
        g.add_edge(c, d, 3);
        g.add_edge(a, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn longest_from_picks_longer_route() {
        let (g, [a, b, c, d]) = chain_and_shortcut();
        let lp = longest_from(&g, a);
        assert_eq!(lp[a.index()], Some(0));
        assert_eq!(lp[b.index()], Some(1));
        assert_eq!(lp[c.index()], Some(3));
        assert_eq!(lp[d.index()], Some(6)); // 1+2+3 beats the 4 shortcut
    }

    #[test]
    fn longest_to_mirrors() {
        let (g, [a, b, _, d]) = chain_and_shortcut();
        let lp = longest_to(&g, d);
        assert_eq!(lp[a.index()], Some(6));
        assert_eq!(lp[b.index()], Some(5));
        assert_eq!(lp[d.index()], Some(0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1);
        let lp = longest_from(&g, a);
        assert_eq!(lp[c.index()], None);
        let lpt = longest_to(&g, b);
        assert_eq!(lpt[c.index()], None);
    }

    #[test]
    fn all_pairs_consistent_with_single_source() {
        let (g, [a, b, c, d]) = chain_and_shortcut();
        let ap = LongestPaths::new(&g);
        for &u in &[a, b, c, d] {
            let single = longest_from(&g, u);
            for &v in &[a, b, c, d] {
                assert_eq!(ap.lp(u, v), single[v.index()], "lp({:?},{:?})", u, v);
            }
        }
        assert!(ap.reaches(a, d));
        assert!(!ap.reaches(d, a));
        assert_eq!(ap.len(), 4);
    }

    #[test]
    fn negative_latency_paths() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, -2);
        g.add_edge(b, c, 5);
        g.add_edge(a, c, 1);
        let ap = LongestPaths::new(&g);
        assert_eq!(ap.lp(a, c), Some(3)); // -2+5 beats 1
        assert_eq!(ap.lp(a, b), Some(-2));
    }

    #[test]
    fn critical_path_and_asap_alap() {
        let (g, [a, b, c, d]) = chain_and_shortcut();
        assert_eq!(critical_path(&g), 6);
        let asap_v = asap(&g);
        assert_eq!(asap_v[a.index()], 0);
        assert_eq!(asap_v[d.index()], 6);
        let alap_v = alap(&g, 10);
        assert_eq!(alap_v[d.index()], 10);
        assert_eq!(alap_v[a.index()], 4);
        assert_eq!(alap_v[b.index()], 5);
        assert_eq!(alap_v[c.index()], 7);
        // asap ≤ alap for any horizon ≥ critical path
        for n in g.node_ids() {
            assert!(asap_v[n.index()] <= alap_v[n.index()]);
        }
    }

    #[test]
    fn parallel_edges_take_max() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 9);
        let ap = LongestPaths::new(&g);
        assert_eq!(ap.lp(a, b), Some(9));
    }

    #[test]
    fn compute_into_reuses_table_across_graph_sizes() {
        let (g, [a, _, _, d]) = chain_and_shortcut();
        let order = topo_sort(&g).unwrap();
        let mut lp = LongestPaths::empty();
        lp.compute_into(&g, &order);
        assert_eq!(lp.lp(a, d), Some(6));
        // refill from a smaller graph: stale cells must not leak through
        let mut g2 = DiGraph::new();
        let x = g2.add_node(());
        let y = g2.add_node(());
        g2.add_edge(x, y, 7);
        let order2 = topo_sort(&g2).unwrap();
        lp.compute_into(&g2, &order2);
        assert_eq!(lp.len(), 2);
        assert_eq!(lp.lp(x, y), Some(7));
        assert_eq!(lp.lp(y, x), None);
        // and back to the larger one: identical to a fresh build
        lp.compute_into(&g, &order);
        let fresh = LongestPaths::new(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(lp.lp(u, v), fresh.lp(u, v));
            }
        }
    }

    /// splitmix64: the seeded stream behind [`random_dag`].
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A DAG of `n` nodes whose topological order is a shuffle of the ids,
    /// with sparse arcs (so many pairs are unreachable), some parallel arcs,
    /// and latencies anywhere in ±`MAX_LATENCY`, both extremes included.
    fn random_dag(n: usize, seed: u64) -> DiGraph<()> {
        let mut state = seed;
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        let mut rank = ids.clone();
        for i in (1..n).rev() {
            rank.swap(i, next(&mut state) as usize % (i + 1));
        }
        let density = 1 + next(&mut state) % 4; // arcs per 16 pairs
        for i in 0..n {
            for j in i + 1..n {
                if next(&mut state) % 16 >= density {
                    continue;
                }
                let copies = if next(&mut state) % 8 == 0 { 2 } else { 1 };
                for _ in 0..copies {
                    let lat = match next(&mut state) % 6 {
                        0 => MAX_LATENCY,
                        1 => -MAX_LATENCY,
                        2 => (next(&mut state) % 9) as i64 - 4,
                        _ => (next(&mut state) % (2 * MAX_LATENCY as u64 + 1)) as i64 - MAX_LATENCY,
                    };
                    g.add_edge(rank[i], rank[j], lat);
                }
            }
        }
        g
    }

    /// The flat out-adjacency of `g` that [`LongestPaths::compute_arcs_into`]
    /// reads.
    fn arc_list(g: &DiGraph<()>) -> (Vec<usize>, Vec<(NodeId, i64)>) {
        let mut offsets = vec![0];
        let mut arcs = Vec::new();
        for u in g.node_ids() {
            arcs.extend(g.out_edges(u).map(|e| (g.dst(e), g.latency(e))));
            offsets.push(arcs.len());
        }
        (offsets, arcs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Both entries of the table equal the single-source oracle
        /// `longest_from` (no sentinel, plain `Option` arithmetic) on every
        /// pair, while one table is refilled at changing sizes.
        #[test]
        fn table_matches_single_source_oracle(
            sizes in (1usize..=48, 1usize..=48),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut lp = LongestPaths::empty();
            for (i, n) in [sizes.0, sizes.1, sizes.0].into_iter().enumerate() {
                let g = random_dag(n, seed ^ i as u64);
                let order = topo_sort(&g).unwrap();
                let (offsets, arcs) = arc_list(&g);
                let mut indeg = Vec::new();
                let mut arc_order = Vec::new();
                proptest::prop_assert!(crate::topo::topo_sort_arcs_into(
                    &offsets, &arcs, &mut indeg, &mut arc_order
                ));
                proptest::prop_assert_eq!(&arc_order, &order);
                for flat in [false, true] {
                    if flat {
                        lp.compute_arcs_into(&arc_order, &offsets, &arcs);
                    } else {
                        lp.compute_into(&g, &order);
                    }
                    proptest::prop_assert_eq!(lp.len(), n);
                    for u in g.node_ids() {
                        let oracle = longest_from(&g, u);
                        for v in g.node_ids() {
                            proptest::prop_assert_eq!(
                                lp.lp(u, v), oracle[v.index()],
                                "n={} flat={} lp({:?},{:?})", n, flat, u, v
                            );
                            proptest::prop_assert_eq!(lp.reaches(u, v), oracle[v.index()].is_some());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<()> = DiGraph::new();
        assert_eq!(critical_path(&g), 0);
        let ap = LongestPaths::new(&g);
        assert!(ap.is_empty());
    }
}

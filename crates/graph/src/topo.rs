//! Topological sorting and cycle detection.
//!
//! The reduction pass (Section 4 of the paper) can introduce circuits on
//! VLIW/EPIC targets; [`cycle_witness`] extracts an explicit cycle so the
//! caller can build an ordering cut against it.

use crate::graph::{DiGraph, NodeId};

/// A cycle was found while topologically sorting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// Nodes on one witness cycle, in order (`cycle[i] -> cycle[i+1]`,
    /// wrapping around).
    pub cycle: Vec<NodeId>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a cycle through {:?}", self.cycle)
    }
}

impl std::error::Error for CycleError {}

/// Kahn's algorithm. Returns node ids in a topological order, or a witness
/// cycle if the graph is cyclic.
pub fn topo_sort<N>(g: &DiGraph<N>) -> Result<Vec<NodeId>, CycleError> {
    let mut indeg = Vec::new();
    let mut order = Vec::new();
    topo_sort_into(g, &mut indeg, &mut order)?;
    Ok(order)
}

/// Allocation-reusing variant of [`topo_sort`]: fills `order` with a
/// topological order (identical to the one `topo_sort` returns), using
/// `indeg` as working storage. In the steady state of a batch run neither
/// buffer reallocates. The cyclic-graph error path still allocates its
/// witness — acceptable, since callers treat it as fatal or as a rejected
/// candidate.
pub fn topo_sort_into<N>(
    g: &DiGraph<N>,
    indeg: &mut Vec<usize>,
    order: &mut Vec<NodeId>,
) -> Result<(), CycleError> {
    // Kahn's algorithm. `order` doubles as the FIFO work queue (popped-off
    // prefix = emitted order): sources enter it in id order, then each
    // node's successors in edge order as their in-degree drops to zero.
    let n = g.node_count();
    indeg.clear();
    indeg.resize(n, 0);
    for u in g.node_ids() {
        for v in g.successors(u) {
            indeg[v.index()] += 1;
        }
    }
    order.clear();
    order.reserve(n);
    order.extend(g.node_ids().filter(|u| indeg[u.index()] == 0));
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for v in g.successors(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() == n {
        Ok(())
    } else {
        Err(CycleError {
            cycle: find_cycle(g).expect("Kahn detected a cycle but DFS found none"),
        })
    }
}

/// Whether the graph is acyclic.
pub fn is_acyclic<N>(g: &DiGraph<N>) -> bool {
    topo_sort(g).is_ok()
}

/// Returns one explicit cycle if the graph is cyclic.
pub fn cycle_witness<N>(g: &DiGraph<N>) -> Option<Vec<NodeId>> {
    find_cycle(g)
}

fn find_cycle<N>(g: &DiGraph<N>) -> Option<Vec<NodeId>> {
    // Iterative colored DFS with an explicit stack to survive deep graphs.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = g.node_count();
    let mut color = vec![WHITE; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];

    for start in g.node_ids() {
        if color[start.index()] != WHITE {
            continue;
        }
        // Stack of (node, out-edge iterator position).
        let mut stack: Vec<(NodeId, Vec<NodeId>, usize)> = Vec::new();
        color[start.index()] = GRAY;
        let succ: Vec<NodeId> = g.successors(start).collect();
        stack.push((start, succ, 0));
        while let Some((u, succ, pos)) = stack.last_mut() {
            if *pos < succ.len() {
                let v = succ[*pos];
                *pos += 1;
                match color[v.index()] {
                    WHITE => {
                        color[v.index()] = GRAY;
                        parent[v.index()] = Some(*u);
                        let vs: Vec<NodeId> = g.successors(v).collect();
                        stack.push((v, vs, 0));
                    }
                    GRAY => {
                        // Found a back edge u -> v: walk parents from u to v.
                        let mut cycle = vec![v];
                        let mut cur = *u;
                        while cur != v {
                            cycle.push(cur);
                            cur = parent[cur.index()].expect("broken parent chain");
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[u.index()] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_a_dag() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        g.add_edge(a, c, 0);
        let order = topo_sort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 3];
            for (i, n) in order.iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        assert!(pos[a.index()] < pos[b.index()]);
        assert!(pos[b.index()] < pos[c.index()]);
        assert!(is_acyclic(&g));
    }

    #[test]
    fn detects_cycle_with_witness() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        g.add_edge(c, a, 0);
        let err = topo_sort(&g).unwrap_err();
        assert_eq!(err.cycle.len(), 3);
        // verify witness is a real cycle
        for i in 0..err.cycle.len() {
            let u = err.cycle[i];
            let v = err.cycle[(i + 1) % err.cycle.len()];
            assert!(g.successors(u).any(|w| w == v), "missing edge {u:?}->{v:?}");
        }
        assert!(!is_acyclic(&g));
        assert!(cycle_witness(&g).is_some());
    }

    #[test]
    fn two_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, -1);
        let w = cycle_witness(&g).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn removal_breaks_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        let back = g.add_edge(b, a, 0);
        assert!(!is_acyclic(&g));
        g.remove_edge(back);
        assert!(is_acyclic(&g));
    }

    #[test]
    fn empty_and_singleton() {
        let g: DiGraph<()> = DiGraph::new();
        assert!(topo_sort(&g).unwrap().is_empty());
        let mut g = DiGraph::new();
        g.add_node(());
        assert_eq!(topo_sort(&g).unwrap().len(), 1);
    }

    #[test]
    fn topo_sort_into_reuses_buffers_and_matches() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        let mut indeg = Vec::new();
        let mut order = Vec::new();
        topo_sort_into(&g, &mut indeg, &mut order).unwrap();
        assert_eq!(order, topo_sort(&g).unwrap());
        // reuse on a smaller graph: buffers shrink logically, stay valid
        let mut g2 = DiGraph::new();
        let x = g2.add_node(());
        topo_sort_into(&g2, &mut indeg, &mut order).unwrap();
        assert_eq!(order, vec![x]);
    }

    #[test]
    fn disconnected_components() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(c, d, 0);
        assert_eq!(topo_sort(&g).unwrap().len(), 4);
    }
}

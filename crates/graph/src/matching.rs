//! Hopcroft–Karp maximum bipartite matching with König vertex-cover
//! extraction.
//!
//! This is the engine behind the Dilworth antichain computation: the maximum
//! antichain of a poset is obtained from a minimum vertex cover of the
//! comparability bipartite graph, which König's theorem derives from a
//! maximum matching.

/// A bipartite graph with `n_left` left vertices and `n_right` right
/// vertices; adjacency is stored left-to-right.
#[derive(Clone, Debug, Default)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    adj: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Adds an edge between left vertex `l` and right vertex `r`.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.n_left && r < self.n_right, "edge out of range");
        self.adj[l].push(r);
    }

    /// Re-dimensions the graph and removes every edge, keeping the adjacency
    /// allocations of earlier uses alive for reuse.
    pub fn reset(&mut self, n_left: usize, n_right: usize) {
        self.n_left = n_left;
        self.n_right = n_right;
        for row in &mut self.adj {
            row.clear();
        }
        if self.adj.len() < n_left {
            self.adj.resize_with(n_left, Vec::new);
        }
    }
}

const INF: u32 = u32::MAX;

/// Reusable working storage for [`hopcroft_karp_into`]. The pairing and
/// cover vectors double as the result; BFS layers and the work queue are
/// internal. All buffers are retained across calls.
#[derive(Clone, Debug, Default)]
pub struct MatchingScratch {
    /// `pair_left[l] = Some(r)` if left `l` is matched to right `r`.
    pub pair_left: Vec<Option<usize>>,
    /// `pair_right[r] = Some(l)` if right `r` is matched to left `l`.
    pub pair_right: Vec<Option<usize>>,
    /// Matching cardinality.
    pub size: usize,
    /// König minimum vertex cover: flags for left vertices in the cover.
    pub cover_left: Vec<bool>,
    /// König minimum vertex cover: flags for right vertices in the cover.
    pub cover_right: Vec<bool>,
    dist: Vec<u32>,
    queue: Vec<usize>,
}

impl MatchingScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Hopcroft–Karp maximum matching in `O(E·√V)`; also extracts a König
/// minimum vertex cover (|cover| == matching size). Results land in `s`.
pub fn hopcroft_karp_into(g: &BipartiteGraph, s: &mut MatchingScratch) {
    let (nl, nr) = (g.n_left, g.n_right);
    let pair_l = &mut s.pair_left;
    let pair_r = &mut s.pair_right;
    pair_l.clear();
    pair_l.resize(nl, None);
    pair_r.clear();
    pair_r.resize(nr, None);
    let dist = &mut s.dist;
    dist.clear();
    dist.resize(nl, 0);
    let queue = &mut s.queue;

    loop {
        // BFS layering from free left vertices.
        queue.clear();
        let mut found_augmenting = false;
        for l in 0..nl {
            if pair_l[l].is_none() {
                dist[l] = 0;
                queue.push(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let l = queue[head];
            head += 1;
            for &r in &g.adj[l] {
                match pair_r[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS augmentation along layered paths.
        for l in 0..nl {
            if pair_l[l].is_none() {
                augment(g, l, pair_l, pair_r, dist);
            }
        }
    }

    s.size = pair_l.iter().filter(|p| p.is_some()).count();

    // König: Z = free left vertices ∪ vertices reachable via alternating
    // paths (unmatched edge L→R, matched edge R→L).
    // Cover = (L \ Z_L) ∪ (R ∩ Z_R). `zl`/`zr` live in the cover buffers
    // (left inverted at the end), the BFS queue doubles as the stack.
    let zl = &mut s.cover_left;
    let zr = &mut s.cover_right;
    zl.clear();
    zl.resize(nl, false);
    zr.clear();
    zr.resize(nr, false);
    let stack = queue;
    stack.clear();
    stack.extend((0..nl).filter(|&l| pair_l[l].is_none()));
    for &l in stack.iter() {
        zl[l] = true;
    }
    while let Some(l) = stack.pop() {
        for &r in &g.adj[l] {
            if pair_l[l] == Some(r) {
                continue; // must leave L on an unmatched edge
            }
            if !zr[r] {
                zr[r] = true;
                if let Some(l2) = pair_r[r] {
                    if !zl[l2] {
                        zl[l2] = true;
                        stack.push(l2);
                    }
                }
            }
        }
    }
    for flag in zl.iter_mut() {
        *flag = !*flag; // cover_left = L \ Z_L
    }

    debug_assert_eq!(
        zl.iter().filter(|&&c| c).count() + zr.iter().filter(|&&c| c).count(),
        s.size,
        "König cover size must equal matching size"
    );
}

fn augment(
    g: &BipartiteGraph,
    l: usize,
    pair_l: &mut Vec<Option<usize>>,
    pair_r: &mut Vec<Option<usize>>,
    dist: &mut Vec<u32>,
) -> bool {
    for i in 0..g.adj[l].len() {
        let r = g.adj[l][i];
        let ok = match pair_r[r] {
            None => true,
            Some(l2) => dist[l2] == dist[l] + 1 && augment(g, l2, pair_l, pair_r, dist),
        };
        if ok {
            pair_l[l] = Some(r);
            pair_r[r] = Some(l);
            return true;
        }
    }
    dist[l] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An edgeless graph of the given sides, as `max_antichain_into`
    /// prepares one.
    fn bipartite(n_left: usize, n_right: usize) -> BipartiteGraph {
        let mut g = BipartiteGraph::default();
        g.reset(n_left, n_right);
        g
    }

    fn matching(g: &BipartiteGraph) -> MatchingScratch {
        let mut m = MatchingScratch::new();
        hopcroft_karp_into(g, &mut m);
        m
    }

    fn check_valid(g: &BipartiteGraph, m: &MatchingScratch) {
        // consistency of the two pairing arrays
        for (l, &p) in m.pair_left.iter().enumerate() {
            if let Some(r) = p {
                assert_eq!(m.pair_right[r], Some(l));
                assert!(g.adj[l].contains(&r), "matched pair must be an edge");
            }
        }
        // cover covers every edge
        for l in 0..g.n_left {
            for &r in &g.adj[l] {
                assert!(
                    m.cover_left[l] || m.cover_right[r],
                    "edge ({l},{r}) uncovered"
                );
            }
        }
        // König: cover size == matching size
        let cover: usize = m.cover_left.iter().filter(|&&c| c).count()
            + m.cover_right.iter().filter(|&&c| c).count();
        assert_eq!(cover, m.size);
    }

    #[test]
    fn perfect_matching() {
        let mut g = bipartite(3, 3);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        g.add_edge(2, 2);
        let m = matching(&g);
        assert_eq!(m.size, 3);
        check_valid(&g, &m);
    }

    #[test]
    fn needs_augmenting_path() {
        // classic: greedy would match 0-0 and block; HK must augment
        let mut g = bipartite(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let m = matching(&g);
        assert_eq!(m.size, 2);
        check_valid(&g, &m);
    }

    #[test]
    fn star_graph() {
        let mut g = bipartite(1, 5);
        for r in 0..5 {
            g.add_edge(0, r);
        }
        let m = matching(&g);
        assert_eq!(m.size, 1);
        check_valid(&g, &m);
    }

    #[test]
    fn empty_graph() {
        let g = bipartite(4, 4);
        let m = matching(&g);
        assert_eq!(m.size, 0);
        check_valid(&g, &m);
    }

    #[test]
    fn asymmetric_sides() {
        let mut g = bipartite(5, 2);
        for l in 0..5 {
            g.add_edge(l, 0);
            g.add_edge(l, 1);
        }
        let m = matching(&g);
        assert_eq!(m.size, 2);
        check_valid(&g, &m);
    }

    /// Exhaustive reference maximum matching via bitmask DP (right side ≤ 12).
    fn brute_force_matching(g: &BipartiteGraph) -> usize {
        fn go(g: &BipartiteGraph, l: usize, used: u32) -> usize {
            if l == g.n_left {
                return 0;
            }
            // skip l
            let mut best = go(g, l + 1, used);
            for &r in &g.adj[l] {
                if used & (1 << r) == 0 {
                    best = best.max(1 + go(g, l + 1, used | (1 << r)));
                }
            }
            best
        }
        go(g, 0, 0)
    }

    proptest! {
        #[test]
        fn matches_brute_force(edges in proptest::collection::vec((0usize..7, 0usize..7), 0..25)) {
            let mut g = bipartite(7, 7);
            let mut seen = std::collections::BTreeSet::new();
            for (l, r) in edges {
                if seen.insert((l, r)) {
                    g.add_edge(l, r);
                }
            }
            let m = matching(&g);
            check_valid(&g, &m);
            prop_assert_eq!(m.size, brute_force_matching(&g));
        }
    }
}

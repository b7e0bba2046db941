//! Deterministic frontier, incumbent store, and pseudocost store for the
//! round-based branch-and-bound driver.
//!
//! The search in [`crate::milp`] is organized as bulk-synchronous rounds:
//! the driver pops a fixed-size batch of open nodes from the [`Frontier`],
//! the batch is processed against *frozen* round-start state (possibly in
//! parallel), and the results are committed sequentially in batch order.
//! Nothing in this module is shared mutably between threads, so every
//! structure here is plain data.
//!
//! Node identity is the **branch path**: the sequence of near/far child
//! choices from the root. The frontier's total order — score, then depth,
//! then lexicographic path — depends only on that identity, never on push
//! timing or pop races, so node counts and traces are identical at any
//! `threads` value. Best-bound ordering is a performance hint here, not a
//! semantic one.

use crate::VarId;
use std::collections::BinaryHeap;

/// The branching step that created a node, kept so the child's relaxation
/// can feed the shared pseudocost estimates: branching variable, the
/// fractional distance the bound moved (`x − ⌊x⌋` down, `⌈x⌉ − x` up), the
/// parent relaxation's raw (un-rounded) score, and the direction.
#[derive(Clone, Copy)]
pub(crate) struct BranchStep {
    pub var: VarId,
    pub frac: f64,
    pub parent_score: f64,
    pub up: bool,
}

/// An open branch-and-bound node: the bound overrides along its path from
/// the root plus ordering metadata. Nodes carry no simplex basis — node
/// relaxations solve cold on purpose (see `milp`); the live dive tableau
/// serves the diving heuristic and the strong-branching probes instead.
#[derive(Clone)]
pub(crate) struct Node {
    /// `(var, lo, hi)` overrides accumulated from the root.
    pub bounds: Vec<(VarId, f64, f64)>,
    pub depth: usize,
    /// Dual bound inherited from the parent relaxation, normalized so that
    /// larger is always better (the root uses `+∞`).
    pub score: f64,
    /// Branching step that created this node (`None` for the root), for
    /// pseudocost bookkeeping.
    pub branch: Option<BranchStep>,
    /// Branch path from the root: one element per branching step, `0` for
    /// the near-side child (the one the old push-order tie-break explored
    /// first), `1` for the far side. The path is the node's deterministic
    /// identity — it names the same subproblem in every run — and doubles
    /// as the frontier's final tie-break and the trace-digest input.
    pub path: Vec<u8>,
}

impl Node {
    /// The root subproblem (no overrides, empty path, bound `+∞`).
    pub fn root() -> Node {
        Node {
            bounds: Vec::new(),
            depth: 0,
            score: f64::INFINITY,
            branch: None,
            path: Vec::new(),
        }
    }
}

struct Entry(Node);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher score wins. Score ties (common —
        // both children inherit the parent's bound, and the big-M RS
        // relaxations are flat near the root) break towards the deeper
        // node (best-bound search with depth-first tie-breaking, which
        // dives to an incumbent as fast as plain DFS instead of enumerating
        // a frontier breadth-first), and among equal depths towards the
        // lexicographically *smaller* branch path — the near-side child
        // (`0`) pops before its far-side sibling (`1`), recovering the old
        // push-order behavior without depending on push order. Paths are
        // unique per node, so the order is total and pop order is a pure
        // function of the frontier's contents.
        self.0
            .score
            .total_cmp(&other.0.score)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
            .then_with(|| other.0.path.cmp(&self.0.path))
    }
}

/// Deterministic best-bound frontier, owned by the round driver. Pop order
/// depends only on the nodes it holds (score, then depth, then branch
/// path) — never on insertion order or thread interleaving.
pub(crate) struct Frontier {
    heap: BinaryHeap<Entry>,
}

impl Frontier {
    pub fn new() -> Self {
        Frontier {
            heap: BinaryHeap::new(),
        }
    }

    /// A frontier holding only the root subproblem.
    pub fn seeded() -> Self {
        let mut f = Frontier::new();
        f.push(Node::root());
        f
    }

    pub fn push(&mut self, node: Node) {
        self.heap.push(Entry(node));
    }

    pub fn pop(&mut self) -> Option<Node> {
        self.heap.pop().map(|e| e.0)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Best (largest) open score, `-∞` when empty — the open frontier's
    /// contribution to the dual bound of an interrupted search.
    pub fn best_score(&self) -> f64 {
        self.heap.peek().map_or(f64::NEG_INFINITY, |e| e.0.score)
    }
}

/// The incumbent store, owned by the round driver and updated only at
/// commit time. Incumbent selection is deterministic: a candidate replaces
/// the incumbent only when it is strictly better, and ties on the objective
/// are broken by lexicographic comparison of the value vectors, so the
/// reported optimum never depends on the number of worker threads.
pub(crate) struct Incumbent {
    /// `(objective, values)` of the best integer-feasible point.
    best: Option<(f64, Vec<f64>)>,
    /// Score (`dir · objective`) of the incumbent; `-∞` while empty.
    score: f64,
}

impl Incumbent {
    pub fn new() -> Self {
        Incumbent {
            best: None,
            score: f64::NEG_INFINITY,
        }
    }

    /// Current incumbent score (larger is better), `-∞` if none.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The incumbent's `(objective, values)`, if any.
    pub fn peek(&self) -> Option<&(f64, Vec<f64>)> {
        self.best.as_ref()
    }

    /// Offers a candidate. Replaces the incumbent when strictly better (by
    /// more than `eps`), or on an objective tie when the value vector is
    /// lexicographically smaller — a deterministic, order-independent
    /// selection rule.
    pub fn offer(&mut self, score: f64, objective: f64, values: Vec<f64>, eps: f64) {
        let replace = match &self.best {
            None => true,
            Some((_, inc_vals)) => {
                if score > self.score + eps {
                    true
                } else if score < self.score - eps {
                    false
                } else {
                    lex_less(&values, inc_vals)
                }
            }
        };
        if replace {
            self.score = score;
            self.best = Some((objective, values));
        }
    }
}

/// Per-variable pseudocost estimates: the average objective degradation per
/// unit of fractional distance observed when branching a variable up or
/// down. The store is plain data: workers read a frozen snapshot during a
/// round and log their observations, which the driver replays in batch
/// order at commit time — so the estimates (and therefore the branching
/// decisions they steer) are identical at every thread count.
#[derive(Clone)]
pub(crate) struct PcStore {
    up_sum: Vec<f64>,
    up_cnt: Vec<usize>,
    down_sum: Vec<f64>,
    down_cnt: Vec<usize>,
    glob_sum: f64,
    glob_cnt: usize,
}

impl PcStore {
    pub fn new(num_vars: usize) -> Self {
        PcStore {
            up_sum: vec![0.0; num_vars],
            up_cnt: vec![0; num_vars],
            down_sum: vec![0.0; num_vars],
            down_cnt: vec![0; num_vars],
            glob_sum: 0.0,
            glob_cnt: 0,
        }
    }

    /// Records one observed per-unit degradation for `v` in the given
    /// direction (from a child relaxation or a strong-branching probe).
    pub fn record(&mut self, v: VarId, up: bool, per_unit: f64) {
        if !per_unit.is_finite() || per_unit < 0.0 {
            return;
        }
        let i = v.index();
        if up {
            self.up_sum[i] += per_unit;
            self.up_cnt[i] += 1;
        } else {
            self.down_sum[i] += per_unit;
            self.down_cnt[i] += 1;
        }
        self.glob_sum += per_unit;
        self.glob_cnt += 1;
    }

    /// Number of observations for `v` in the given direction.
    pub fn count(&self, v: VarId, up: bool) -> usize {
        if up {
            self.up_cnt[v.index()]
        } else {
            self.down_cnt[v.index()]
        }
    }

    /// Average per-unit degradation for `v` in the given direction, `None`
    /// while uninitialized.
    pub fn avg(&self, v: VarId, up: bool) -> Option<f64> {
        let (sum, cnt) = if up {
            (self.up_sum[v.index()], self.up_cnt[v.index()])
        } else {
            (self.down_sum[v.index()], self.down_cnt[v.index()])
        };
        if cnt == 0 {
            return None;
        }
        Some(sum / cnt as f64)
    }

    /// Average per-unit degradation across every variable and direction —
    /// the fallback estimate for directions with no data yet. `1.0` while
    /// the store is completely empty (reduces the product score to plain
    /// fractionality).
    pub fn global_avg(&self) -> f64 {
        if self.glob_cnt == 0 {
            return 1.0;
        }
        let avg = self.glob_sum / self.glob_cnt as f64;
        if avg > 0.0 {
            avg
        } else {
            1.0
        }
    }
}

/// Deduplicating pool of globally valid cutting planes with activity-based
/// aging.
///
/// The root cut loop owns the pool: cuts are kept in insertion order, so
/// the search model it appends them to is the same row set on every run.
#[derive(Clone, Default)]
pub(crate) struct CutPool {
    cuts: Vec<crate::cuts::Cut>,
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only dedup index; iteration order is never observed, ordered state lives in `cuts`"
    )]
    keys: std::collections::HashSet<u64>,
    age: Vec<u32>,
}

impl CutPool {
    pub fn new() -> Self {
        CutPool::default()
    }

    /// Inserts a cut unless its content key is already pooled. Returns
    /// whether the cut was actually added.
    pub fn insert(&mut self, cut: crate::cuts::Cut) -> bool {
        if !self.keys.insert(cut.key()) {
            return false;
        }
        self.cuts.push(cut);
        self.age.push(0);
        true
    }

    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    pub fn cuts(&self) -> &[crate::cuts::Cut] {
        &self.cuts
    }

    /// Ages the pool against a relaxation solution: a cut slack at `point`
    /// (not within ~1e-6 of binding) gains a year, a tight cut resets to
    /// zero, and cuts older than `max_age` are retired. Returns the number
    /// retired; the caller rebuilds its models when that is non-zero.
    pub fn age_and_retire(&mut self, point: &[f64], max_age: u32) -> usize {
        for (cut, age) in self.cuts.iter().zip(self.age.iter_mut()) {
            if cut.violation(point) < -1e-6 {
                *age += 1;
            } else {
                *age = 0;
            }
        }
        let before = self.cuts.len();
        let mut keep = self.age.iter().map(|&a| a <= max_age);
        let keys = &mut self.keys;
        self.cuts.retain(|c| {
            let k = keep.next().unwrap();
            if !k {
                keys.remove(&c.key());
            }
            k
        });
        self.age.retain(|&a| a <= max_age);
        before - self.cuts.len()
    }
}

pub(crate) fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    a.len() < b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(score: f64) -> Node {
        Node {
            score,
            ..Node::root()
        }
    }

    #[test]
    fn frontier_pops_best_bound_first() {
        let mut f = Frontier::new();
        f.push(node(1.0));
        f.push(node(5.0));
        f.push(node(3.0));
        assert_eq!(f.pop().unwrap().score, 5.0);
        assert_eq!(f.pop().unwrap().score, 3.0);
        assert_eq!(f.pop().unwrap().score, 1.0);
        assert!(f.pop().is_none());
    }

    #[test]
    fn frontier_ties_dive_depth_first() {
        // Equal scores: the deeper node pops first (dive).
        let mut f = Frontier::new();
        f.push(Node {
            depth: 7,
            path: vec![0; 7],
            ..node(2.0)
        });
        f.push(Node {
            depth: 8,
            path: vec![0; 8],
            ..node(2.0)
        });
        f.push(Node {
            depth: 7,
            path: vec![1; 7],
            ..node(2.0)
        });
        assert_eq!(f.pop().unwrap().depth, 8);
        assert_eq!(f.pop().unwrap().depth, 7);
        assert_eq!(f.pop().unwrap().depth, 7);
    }

    #[test]
    fn siblings_pop_in_path_order_regardless_of_push_order() {
        // Two children share score and depth; the near side (path bit 0)
        // must pop first even when pushed second — pop order is a function
        // of node identity, never of insertion order.
        let child = |bit: u8| Node {
            bounds: vec![(VarId(bit as u32), 0.0, 0.0)],
            depth: 1,
            score: 5.0,
            branch: None,
            path: vec![bit],
        };
        for order in [[0u8, 1], [1, 0]] {
            let mut f = Frontier::new();
            f.push(child(order[0]));
            f.push(child(order[1]));
            assert_eq!(
                f.pop().unwrap().path,
                vec![0],
                "near-side child must pop first (push order {order:?})"
            );
            assert_eq!(f.pop().unwrap().path, vec![1]);
        }
    }

    #[test]
    fn pseudocosts_accumulate_per_direction() {
        let mut pc = PcStore::new(3);
        let v = VarId(1);
        assert_eq!(pc.count(v, true), 0);
        assert!(pc.avg(v, true).is_none());
        assert_eq!(pc.global_avg(), 1.0);
        pc.record(v, true, 2.0);
        pc.record(v, true, 4.0);
        pc.record(v, false, 1.0);
        assert_eq!(pc.count(v, true), 2);
        assert_eq!(pc.count(v, false), 1);
        assert!((pc.avg(v, true).unwrap() - 3.0).abs() < 1e-12);
        assert!((pc.avg(v, false).unwrap() - 1.0).abs() < 1e-12);
        assert!((pc.global_avg() - 7.0 / 3.0).abs() < 1e-12);
        // other vars untouched
        assert_eq!(pc.count(VarId(0), true), 0);
        // non-finite and negative observations are dropped
        pc.record(v, true, f64::INFINITY);
        pc.record(v, true, -1.0);
        assert_eq!(pc.count(v, true), 2);
    }

    #[test]
    fn incumbent_keeps_strictly_better_and_lex_ties() {
        let mut inc = Incumbent::new();
        inc.offer(5.0, 5.0, vec![2.0, 1.0], 1e-7);
        assert_eq!(inc.score(), 5.0);
        // worse: ignored
        inc.offer(4.0, 4.0, vec![0.0, 0.0], 1e-7);
        assert_eq!(inc.score(), 5.0);
        // tie with lexicographically smaller values: replaces
        inc.offer(5.0, 5.0, vec![1.0, 2.0], 1e-7);
        let (obj, vals) = inc.peek().unwrap();
        assert_eq!(*obj, 5.0);
        assert_eq!(*vals, vec![1.0, 2.0]);
    }
}

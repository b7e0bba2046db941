//! Killing functions, the killed (extended) graph `G_{→k}`, and the
//! disjoint-value DAG `DV_k(G)` whose maximum antichain is the register
//! saturation for a fixed killing choice (Touati \[14\]).
//!
//! Fixing a killing function `k` (one designated last reader per value)
//! turns the NP-complete saturation problem into polynomial machinery:
//!
//! 1. enforce each choice with serial arcs `v → k(u)` of latency
//!    `δr(v) − δr(k(u))` from every other potential killer `v`;
//! 2. in the resulting graph, value `u` always dies before value `w` is
//!    defined iff `lp(k(u), w) ≥ δr(k(u)) − δw(w)` — these pairs form the
//!    strict partial order `DV_k`;
//! 3. the values that *can* be simultaneously alive are exactly the
//!    antichains of `DV_k`, so `RS_k = width(DV_k)` (computed by Dilworth /
//!    Hopcroft–Karp in `rs-graph`).

use crate::model::{Ddg, Operation, RegType};
use crate::pkill::PKill;
use rs_graph::antichain::max_antichain;
use rs_graph::paths::LongestPaths;
use rs_graph::{topo, DiGraph, NodeId};
use std::collections::BTreeMap;

/// A killing function for one register type: `k(u) ∈ pkill(u)` per value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillingFunction {
    /// The register type this function applies to.
    pub reg_type: RegType,
    /// Chosen killer per value.
    pub killer: BTreeMap<NodeId, NodeId>,
}

impl KillingFunction {
    /// The chosen killer of value `u`.
    pub fn of(&self, u: NodeId) -> NodeId {
        self.killer[&u]
    }

    /// Checks `k(u) ∈ pkill(u)` for every value.
    pub fn respects(&self, pk: &PKill) -> bool {
        self.killer.len() == pk.len()
            && self
                .killer
                .iter()
                .all(|(u, k)| pk.get(*u).is_some_and(|ks| ks.contains(k)))
    }
}

/// Sentinel killer id for nodes that are not values ([`FlatKilling`]).
const NO_KILLER: u32 = u32::MAX;

/// A killing function stored as a flat array indexed by node id — the
/// hot-path representation of the batch engine. Semantically identical to
/// [`KillingFunction`] (which it converts to for results); node ids are
/// dense, so lookup is one bounds-checked load instead of a `BTreeMap`
/// descent, and reuse across candidates is a `copy_from_slice`.
#[derive(Clone, Debug, Default)]
pub struct FlatKilling {
    killer: Vec<u32>,
}

impl FlatKilling {
    /// Clears the function for a DAG of `num_ops` nodes (all nodes unset).
    pub fn reset(&mut self, num_ops: usize) {
        self.killer.clear();
        self.killer.resize(num_ops, NO_KILLER);
    }

    /// Sets `k(u) = k`.
    #[inline]
    pub fn set(&mut self, u: NodeId, k: NodeId) {
        self.killer[u.index()] = k.0;
    }

    /// The chosen killer of value `u`. Panics (debug) if unset.
    #[inline]
    pub fn of(&self, u: NodeId) -> NodeId {
        let k = self.killer[u.index()];
        // Promoted from a debug assertion: an unset entry silently aliasing
        // NodeId(u32::MAX) would corrupt every downstream killed graph.
        assert_ne!(k, NO_KILLER, "no killer chosen for {u:?}");
        NodeId(k)
    }

    /// Copies another function of the same DAG over this one.
    pub fn copy_from(&mut self, other: &FlatKilling) {
        self.killer.clear();
        self.killer.extend_from_slice(&other.killer);
    }

    /// Materializes the map-based [`KillingFunction`] over `pk`'s values.
    pub fn to_killing_function(&self, t: RegType, pk: &PKill) -> KillingFunction {
        KillingFunction {
            reg_type: t,
            killer: pk.values().iter().map(|&u| (u, self.of(u))).collect(),
        }
    }
}

/// The extended graph `G_{→k}` plus its longest-path table.
#[derive(Clone, Debug)]
pub struct KilledGraph {
    /// `G` with the killing-enforcement arcs added.
    pub graph: DiGraph<Operation>,
    /// All-pairs longest paths of the extended graph.
    pub lp: LongestPaths,
}

/// Builds `G_{→k}`: for each value `u` and each other potential killer
/// `v ∈ pkill(u) ∖ {k(u)}`, adds `v → k(u)` with latency
/// `δr(v) − δr(k(u))` (zero on superscalar), forcing `k(u)` to read last.
///
/// Returns `None` if the arcs create a cycle — the killing function is
/// invalid.
pub fn killed_graph(ddg: &Ddg, pk: &PKill, k: &KillingFunction) -> Option<KilledGraph> {
    let mut g = ddg.graph().clone();
    for (u, killers) in pk.iter() {
        let ku = k.of(u);
        // lint:allow(D-04) enumerators draw k(u) from pkill(u) by construction; cross-checked by the differential tests
        debug_assert!(killers.contains(&ku), "killer not in pkill({u:?})");
        for &v in killers {
            if v == ku {
                continue;
            }
            let lat = ddg.delta_r(v) - ddg.delta_r(ku);
            g.add_edge(v, ku, lat);
        }
    }
    if !topo::is_acyclic(&g) {
        return None;
    }
    let lp = LongestPaths::new(&g);
    Some(KilledGraph { graph: g, lp })
}

/// Scratch for repeated killed-graph construction: `G_{→k}` as a flat arc
/// list (offsets plus `(dst, latency)` pairs), its topological-sort
/// buffers, and the longest-path table, all reused across candidate
/// killing functions and across DAGs. One [`KilledScratch::build`] in the
/// steady state performs no heap allocation, and never copies the DDG:
/// acyclicity and longest paths need only the arcs.
#[derive(Clone, Debug, Default)]
pub struct KilledScratch {
    /// All-pairs longest paths of `G_{→k}` of the last successful build.
    pub lp: LongestPaths,
    // The arcs leaving node `u` are `arcs[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    arcs: Vec<(NodeId, i64)>,
    order: Vec<NodeId>,
    indeg: Vec<usize>,
}

impl KilledScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds `G_{→k}` for the flat killing `k` in place. Returns `false`
    /// (without computing longest paths) when the enforcement arcs create a
    /// cycle — the killing function is invalid. Validity and the resulting
    /// `lp` agree exactly with [`killed_graph`]: neither depends on the
    /// order of the arcs.
    pub fn build(&mut self, ddg: &Ddg, pk: &PKill, k: &FlatKilling) -> bool {
        let n = ddg.num_ops();
        // Counting sort by source: after the prefix sums `offsets[s]` is
        // the end of the run of `s`; placing each arc steps it back, so it
        // ends at the start of the run.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for_each_killed_arc(ddg, pk, k, |src, _, _| offsets[src.index()] += 1);
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let arcs = &mut self.arcs;
        arcs.clear();
        arcs.resize(offsets[n], (NodeId(0), 0));
        for_each_killed_arc(ddg, pk, k, |src, dst, lat| {
            offsets[src.index()] -= 1;
            arcs[offsets[src.index()]] = (dst, lat);
        });
        if !topo::topo_sort_arcs_into(&self.offsets, &self.arcs, &mut self.indeg, &mut self.order) {
            return false;
        }
        self.lp
            .compute_arcs_into(&self.order, &self.offsets, &self.arcs);
        true
    }
}

/// Calls `f(src, dst, latency)` on every arc of `G_{→k}`: the DDG's live
/// arcs, then the enforcement arcs of [`killed_graph`].
fn for_each_killed_arc(
    ddg: &Ddg,
    pk: &PKill,
    k: &FlatKilling,
    mut f: impl FnMut(NodeId, NodeId, i64),
) {
    let g = ddg.graph();
    for e in g.edge_ids() {
        f(g.src(e), g.dst(e), g.latency(e));
    }
    for (u, killers) in pk.iter() {
        let ku = k.of(u);
        // lint:allow(D-04) enumerators draw k(u) from pkill(u) by construction; cross-checked by the differential tests
        debug_assert!(killers.contains(&ku), "killer not in pkill({u:?})");
        for &v in killers {
            if v != ku {
                f(v, ku, ddg.delta_r(v) - ddg.delta_r(ku));
            }
        }
    }
}

/// The kill-before-definition criterion shared by every DV construction:
/// with `ku` the designated last reader of some value, that value is dead
/// no later than `w`'s definition iff `lp(ku, w) ≥ δr(ku) − δw(w)` (with
/// `ku = w` meaning `w` itself reads last, compared via the delays alone).
#[inline]
pub fn killer_kills_before(ddg: &Ddg, lp: &LongestPaths, ku: NodeId, w: NodeId) -> bool {
    if ku == w {
        return ddg.delta_r(ku) <= ddg.delta_w(w);
    }
    match lp.lp(ku, w) {
        Some(d) => d >= ddg.delta_r(ku) - ddg.delta_w(w),
        None => false,
    }
}

/// The disjoint-value order: in `G_{→k}`, value `u` always dies no later
/// than value `w` is defined iff
/// `lp(k(u), w) ≥ δr(k(u)) − δw(w)` (with `k(u) = w` meaning `w` itself is
/// the last reader, compared via the delays alone).
pub fn dv_before(
    ddg: &Ddg,
    killed: &KilledGraph,
    k: &KillingFunction,
    u: NodeId,
    w: NodeId,
) -> bool {
    u != w && killer_kills_before(ddg, &killed.lp, k.of(u), w)
}

/// The disjoint-value DAG of one killing function, with its maximum
/// antichain (= saturating values) precomputed.
#[derive(Clone, Debug)]
pub struct DisjointValueDag {
    /// The register type analysed.
    pub reg_type: RegType,
    /// The values (poset elements).
    pub values: Vec<NodeId>,
    /// Strict order pairs `u < w` (u dies before w is defined), dense.
    pub before: Vec<(NodeId, NodeId)>,
    /// A maximum antichain: a set of values that some schedule makes
    /// simultaneously alive.
    pub saturating: Vec<NodeId>,
    /// `RS_k` = antichain width.
    pub width: usize,
}

/// Builds `DV_k` and computes its width.
///
/// The `before` relation is transitive (death precedes definition precedes
/// death along any chain), so Dilworth via bipartite matching applies
/// directly.
pub fn disjoint_value_dag(
    ddg: &Ddg,
    t: RegType,
    killed: &KilledGraph,
    k: &KillingFunction,
) -> DisjointValueDag {
    let values = ddg.values(t);
    let mut before = Vec::new();
    for &u in &values {
        for &w in &values {
            if u != w && dv_before(ddg, killed, k, u, w) {
                before.push((u, w));
            }
        }
    }
    let rel = |a: NodeId, b: NodeId| before.binary_search(&(a, b)).is_ok();
    // `before` was produced in sorted (u, w) order already because `values`
    // is sorted; assert in debug builds.
    // lint:allow(D-04) sortedness follows from iterating `values` ascending; an O(n) release re-check per antichain would dominate small instances
    debug_assert!(before.windows(2).all(|w| w[0] <= w[1]));
    let res = max_antichain(&values, rel);
    DisjointValueDag {
        reg_type: t,
        values,
        before,
        width: res.width(),
        saturating: res.antichain,
    }
}

/// Register saturation under a fixed killing function, or `None` if `k` is
/// invalid (cyclic enforcement arcs).
pub fn rs_for_killing(
    ddg: &Ddg,
    t: RegType,
    pk: &PKill,
    k: &KillingFunction,
) -> Option<DisjointValueDag> {
    let killed = killed_graph(ddg, pk, k)?;
    Some(disjoint_value_dag(ddg, t, &killed, k))
}

/// A killing function that is *always* valid: pick for every value the
/// potential killer that comes last in one fixed topological order of `G`
/// (enforcement arcs then all point forward in that order, so no cycle can
/// appear). Used as the fallback of the greedy heuristic and as the root of
/// the exact enumeration.
pub fn topo_max_killing(ddg: &Ddg, t: RegType, pk: &PKill) -> KillingFunction {
    let order = topo::topo_sort(ddg.graph()).expect("DDG is acyclic");
    let mut pos = vec![0usize; ddg.num_ops()];
    for (i, n) in order.iter().enumerate() {
        pos[n.index()] = i;
    }
    KillingFunction {
        reg_type: t,
        killer: pk
            .iter()
            .map(|(u, ks)| (u, topo_max_choice(ks, &pos)))
            .collect(),
    }
}

/// Flat-array [`topo_max_killing`] against a precomputed topological
/// position table (the engine computes one order per DAG and shares it).
pub fn topo_max_killing_into(pk: &PKill, pos: &[usize], out: &mut FlatKilling) {
    out.reset(pos.len());
    for (u, ks) in pk.iter() {
        out.set(u, topo_max_choice(ks, pos));
    }
}

fn topo_max_choice(ks: &[NodeId], pos: &[usize]) -> NodeId {
    *ks.iter()
        .max_by_key(|k| pos[k.index()])
        .expect("pkill sets are nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};
    use crate::pkill::potential_killers;

    fn fanout_ddg() -> Ddg {
        // One value consumed by two independent stores.
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let s1 = b.op("s1", OpClass::Store, None);
        let s2 = b.op("s2", OpClass::Store, None);
        b.flow(v, s1, 1, RegType::INT);
        b.flow(v, s2, 1, RegType::INT);
        b.finish()
    }

    #[test]
    fn topo_max_killing_is_valid() {
        let d = fanout_ddg();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let k = topo_max_killing(&d, RegType::INT, &pk);
        assert!(k.respects(&pk));
        assert!(killed_graph(&d, &pk, &k).is_some());
    }

    #[test]
    fn killing_choice_adds_enforcement_arc() {
        let d = fanout_ddg();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let v = rs_graph::NodeId(0);
        let s1 = rs_graph::NodeId(1);
        let s2 = rs_graph::NodeId(2);
        assert_eq!(pk.of(v).len(), 2);
        let mut killer = BTreeMap::new();
        killer.insert(v, s1);
        let k = KillingFunction {
            reg_type: RegType::INT,
            killer,
        };
        let killed = killed_graph(&d, &pk, &k).unwrap();
        // an arc s2 -> s1 must now exist
        assert!(killed.graph.find_edge(s2, s1).is_some());
        // and lp reflects it
        assert!(killed.lp.reaches(s2, s1));
    }

    #[test]
    fn conflicting_killings_detected_as_cyclic() {
        // Two values u1, u2 both consumed by a and b. k(u1) = a forces
        // b -> a; k(u2) = b forces a -> b: cycle.
        let mut bld = DdgBuilder::new(Target::superscalar());
        let u1 = bld.op("u1", OpClass::IntAlu, Some(RegType::INT));
        let u2 = bld.op("u2", OpClass::IntAlu, Some(RegType::INT));
        let a = bld.op("a", OpClass::Store, None);
        let b = bld.op("b", OpClass::Store, None);
        bld.flow(u1, a, 1, RegType::INT);
        bld.flow(u1, b, 1, RegType::INT);
        bld.flow(u2, a, 1, RegType::INT);
        bld.flow(u2, b, 1, RegType::INT);
        let d = bld.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let mut killer = BTreeMap::new();
        killer.insert(u1, a);
        killer.insert(u2, b);
        let k = KillingFunction {
            reg_type: RegType::INT,
            killer,
        };
        assert!(
            killed_graph(&d, &pk, &k).is_none(),
            "cyclic killing must be rejected"
        );
        // but the consistent choice works
        let mut killer = BTreeMap::new();
        killer.insert(u1, a);
        killer.insert(u2, a);
        let k = KillingFunction {
            reg_type: RegType::INT,
            killer,
        };
        assert!(killed_graph(&d, &pk, &k).is_some());
    }

    #[test]
    fn dv_width_of_independent_values() {
        // Two independent values: width 2 under any killing function.
        let mut b = DdgBuilder::new(Target::superscalar());
        let x = b.op("x", OpClass::IntAlu, Some(RegType::INT));
        let y = b.op("y", OpClass::IntAlu, Some(RegType::INT));
        let _ = (x, y);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let k = topo_max_killing(&d, RegType::INT, &pk);
        let dv = rs_for_killing(&d, RegType::INT, &pk, &k).unwrap();
        assert_eq!(dv.width, 2);
        assert_eq!(dv.saturating.len(), 2);
    }

    #[test]
    fn dv_orders_chained_values() {
        // u -> c -> (c's value) : u dies at c, c's value defined at c.
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        b.flow(u, c, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let k = topo_max_killing(&d, RegType::INT, &pk);
        let dv = rs_for_killing(&d, RegType::INT, &pk, &k).unwrap();
        // u < c in DV (u's killer is c itself; δr(c)=0 ≤ δw(c)=0)
        assert!(dv.before.contains(&(u, c)));
        assert_eq!(dv.width, 1);
    }

    #[test]
    fn respects_rejects_foreign_killer() {
        let d = fanout_ddg();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        let mut killer = BTreeMap::new();
        killer.insert(rs_graph::NodeId(0), d.bottom()); // ⊥ is not a consumer of v
        let k = KillingFunction {
            reg_type: RegType::INT,
            killer,
        };
        assert!(!k.respects(&pk));
    }
}

//! Killing functions, the killed (extended) graph `G_{→k}`, and the
//! disjoint-value DAG `DV_k(G)` whose maximum antichain is the register
//! saturation for a fixed killing choice (Touati \[14\]).
//!
//! Fixing a killing function `k` (one designated last reader per value)
//! turns the NP-complete saturation problem into polynomial machinery:
//!
//! 1. enforce each choice with serial arcs `v → k(u)` of latency
//!    `δr(v) − δr(k(u))` from every other potential killer `v`
//!    ([`KilledScratch::build`]; a cycle means `k` is invalid);
//! 2. in the resulting graph, value `u` always dies before value `w` is
//!    defined iff `lp(k(u), w) ≥ δr(k(u)) − δw(w)` ([`killer_kills_before`])
//!    — these pairs form the strict partial order `DV_k`;
//! 3. the values that *can* be simultaneously alive are exactly the
//!    antichains of `DV_k`, so `RS_k = width(DV_k)`
//!    ([`KilledScratch::dv_antichain_into`], Dilworth / Hopcroft–Karp in
//!    `rs-graph`).
//!
//! Both the Greedy-k engine ([`crate::engine::RsEngine`]) and the exact
//! search ([`crate::exact::ExactRs`]) evaluate a killing function with
//! these two calls, on storage they reuse across candidates.

use crate::model::{Ddg, RegType};
use crate::pkill::PKill;
use rs_graph::antichain::{max_antichain_into, AntichainScratch};
use rs_graph::paths::LongestPaths;
use rs_graph::{topo, NodeId};
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

    /// Rebuilds `G_{→k}` for the flat killing `k` in place: the DDG plus,
    /// for each value `u` and each other potential killer
    /// `v ∈ pkill(u) ∖ {k(u)}`, an arc `v → k(u)` of latency
    /// `δr(v) − δr(k(u))` (zero on superscalar), forcing `k(u)` to read
    /// last. Returns `false` (without computing longest paths) when the
    /// enforcement arcs create a cycle — the killing function is invalid.
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

    /// `RS_k = width(DV_k)` for the killing function `k` of the last
    /// successful [`KilledScratch::build`] (the caller passes that same
    /// `k`), with a maximum antichain of `values` — a set of values some
    /// schedule makes simultaneously alive — written into `antichain`.
    ///
    /// Value `u` precedes `w` in `DV_k` iff
    /// [`killer_kills_before`]`(k(u), w)` on this graph's path table. The
    /// relation is transitive (death precedes definition precedes death
    /// along any chain), so Dilworth via bipartite matching applies
    /// directly.
    pub fn dv_antichain_into(
        &self,
        ddg: &Ddg,
        k: &FlatKilling,
        values: &[NodeId],
        ac: &mut AntichainScratch,
        antichain: &mut Vec<NodeId>,
    ) -> usize {
        // `max_antichain_into` asks row by row (all `b` for one `a`), so the
        // killer of `a` is looked up once per row.
        let mut row: Option<(NodeId, NodeId)> = None;
        let rel = |a: NodeId, b: NodeId| {
            let ka = match row {
                Some((r, ka)) if r == a => ka,
                _ => {
                    let ka = k.of(a);
                    row = Some((a, ka));
                    ka
                }
            };
            killer_kills_before(ddg, &self.lp, ka, b)
        };
        max_antichain_into(values, rel, ac, antichain)
    }
}

/// Calls `f(src, dst, latency)` on every arc of `G_{→k}`: the DDG's live
/// arcs, then the enforcement arcs of [`KilledScratch::build`].
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
        #[expect(
            clippy::disallowed_macros,
            reason = "enumerators draw k(u) from pkill(u) by construction; cross-checked by the differential tests"
        )]
        {
            debug_assert!(killers.contains(&ku), "killer not in pkill({u:?})");
        }
        for &v in killers {
            if v != ku {
                f(v, ku, ddg.delta_r(v) - ddg.delta_r(ku));
            }
        }
    }
}

/// The kill-before-definition criterion behind `DV_k` and the exact
/// search's optimistic bound:
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

/// A killing function that is *always* valid: pick for every value the
/// potential killer that comes last in the topological order whose
/// positions `pos` holds (enforcement arcs then all point forward in that
/// order, so no cycle can appear). Greedy-k's repair fallback and its
/// third portfolio candidate.
pub fn topo_max_killing_into(pk: &PKill, pos: &[usize], out: &mut FlatKilling) {
    out.reset(pos.len());
    for (u, ks) in pk.iter() {
        let k = ks.iter().max_by_key(|k| pos[k.index()]);
        out.set(u, *k.expect("pkill sets are nonempty"));
    }
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

    fn pkill(d: &Ddg) -> PKill {
        potential_killers(d, RegType::INT, &LongestPaths::new(d.graph()))
    }

    fn topo_max(d: &Ddg, pk: &PKill) -> FlatKilling {
        let order = topo::topo_sort(d.graph()).unwrap();
        let mut pos = vec![0; d.num_ops()];
        for (i, n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        let mut k = FlatKilling::default();
        topo_max_killing_into(pk, &pos, &mut k);
        k
    }

    fn flat(d: &Ddg, choices: &[(NodeId, NodeId)]) -> FlatKilling {
        let mut k = FlatKilling::default();
        k.reset(d.num_ops());
        for &(u, ku) in choices {
            k.set(u, ku);
        }
        k
    }

    /// `RS_k` and its antichain over the int values, `None` when `k` is
    /// cyclic.
    fn rs_k(d: &Ddg, pk: &PKill, k: &FlatKilling) -> Option<(usize, Vec<NodeId>)> {
        let mut killed = KilledScratch::new();
        if !killed.build(d, pk, k) {
            return None;
        }
        let mut antichain = Vec::new();
        let values = d.values(RegType::INT);
        let width =
            killed.dv_antichain_into(d, k, &values, &mut AntichainScratch::new(), &mut antichain);
        Some((width, antichain))
    }

    #[test]
    fn topo_max_killing_is_valid() {
        let d = fanout_ddg();
        let pk = pkill(&d);
        let k = topo_max(&d, &pk);
        assert!(k.to_killing_function(RegType::INT, &pk).respects(&pk));
        assert!(KilledScratch::new().build(&d, &pk, &k));
    }

    #[test]
    fn killing_choice_adds_enforcement_arc() {
        let d = fanout_ddg();
        let pk = pkill(&d);
        let (v, s1, s2) = (NodeId(0), NodeId(1), NodeId(2));
        assert_eq!(pk.of(v).len(), 2);
        assert!(!LongestPaths::new(d.graph()).reaches(s2, s1));
        let mut killed = KilledScratch::new();
        assert!(killed.build(&d, &pk, &flat(&d, &[(v, s1)])));
        // the arc s2 -> s1 (latency δr(s2) − δr(s1) = 0) now orders them
        assert_eq!(killed.lp.lp(s2, s1), Some(0));
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
        let pk = pkill(&d);
        let mut killed = KilledScratch::new();
        assert!(
            !killed.build(&d, &pk, &flat(&d, &[(u1, a), (u2, b)])),
            "cyclic killing must be rejected"
        );
        assert!(rs_k(&d, &pk, &flat(&d, &[(u1, a), (u2, b)])).is_none());
        // but the consistent choice works, on the same scratch
        assert!(killed.build(&d, &pk, &flat(&d, &[(u1, a), (u2, a)])));
    }

    #[test]
    fn dv_width_of_independent_values() {
        // Two independent values: width 2 under any killing function.
        let mut b = DdgBuilder::new(Target::superscalar());
        let x = b.op("x", OpClass::IntAlu, Some(RegType::INT));
        let y = b.op("y", OpClass::IntAlu, Some(RegType::INT));
        let d = b.finish();
        let pk = pkill(&d);
        let (width, antichain) = rs_k(&d, &pk, &topo_max(&d, &pk)).unwrap();
        assert_eq!(width, 2);
        assert_eq!(antichain, vec![x, y]);
    }

    #[test]
    fn dv_orders_chained_values() {
        // u -> c -> (c's value) : u dies at c, c's value defined at c.
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        b.flow(u, c, 1, RegType::INT);
        let d = b.finish();
        let pk = pkill(&d);
        let k = topo_max(&d, &pk);
        // u < c in DV (u's killer is c itself; δr(c)=0 ≤ δw(c)=0) ...
        assert_eq!(k.of(u), c);
        let mut killed = KilledScratch::new();
        assert!(killed.build(&d, &pk, &k));
        assert!(killer_kills_before(&d, &killed.lp, k.of(u), c));
        // ... so only one of them is alive at a time
        assert_eq!(rs_k(&d, &pk, &k).unwrap().0, 1);
    }

    #[test]
    fn respects_rejects_foreign_killer() {
        let d = fanout_ddg();
        let pk = pkill(&d);
        let mut killer = BTreeMap::new();
        killer.insert(NodeId(0), d.bottom()); // ⊥ is not a consumer of v
        let k = KillingFunction {
            reg_type: RegType::INT,
            killer,
        };
        assert!(!k.respects(&pk));
    }
}

//! Spill insertion at the DDG level — the paper's stated future work:
//!
//! > "An important problem (let for a future work) is the minimal spill
//! > code insertion in data dependence graphs. The existing studies insert
//! > spill operations either in sequential codes (regardless on FUs usage),
//! > or by iterating ILP scheduling followed by spilling. We think that
//! > this problem must be taken into account at the data dependence graph
//! > level in order to break this iterative problem."
//!
//! When the saturation cannot be reduced below the register budget (the
//! [`crate::reduce::Reducer`] fails, i.e. spilling is unavoidable), this
//! pass transforms the *DDG itself* — before any scheduling — by splitting
//! a value's lifetime through memory:
//!
//! ```text
//!   u ──flow──► c1, c2, …            u ──flow──► store_u
//!                             ⇒      store_u ──serial──► reload_u
//!                                    reload_u ──flow──► c1, c2, …
//! ```
//!
//! The original value now dies at the store (a one-cycle lifetime); the
//! reloaded value carries the consumers. Saturation analysis and reduction
//! then run again on the transformed DAG — no schedule-then-spill
//! iteration ever happens.

use crate::exact::ExactRs;
use crate::heuristic::GreedyK;
use crate::model::{Ddg, DdgBuilder, EdgeKind, OpClass, Operation, RegType};
use crate::reduce::Reducer;
use rs_graph::NodeId;

/// Result of a successful spill-to-fit pass.
#[derive(Clone, Debug)]
pub struct SpillResult {
    /// The rebuilt DDG (spill code inserted, saturation reduced to budget).
    pub ddg: Ddg,
    /// Names of the spilled values, in insertion order. Each spill adds
    /// one store and one reload.
    pub spilled_values: Vec<String>,
    /// Serialization arcs added by the final reduction.
    pub reduction_arcs: usize,
    /// Exact saturation of the final DDG (when the exact search stayed in
    /// budget).
    pub rs_after: usize,
}

/// Values spilled before [`spill_to_fit`] gives up.
const MAX_SPILLS: usize = 16;

/// Brings `RS_t(ddg) ≤ r`, inserting spill code when serialization alone
/// cannot. Every saturation is verified exactly: the budgets here are the
/// hard cases where the heuristic may under-estimate. Returns `None` when
/// even 16 spills do not suffice (e.g. `r` is below the DAG's inherent
/// operand width).
///
/// ```
/// use rs_core::model::{DdgBuilder, OpClass, RegType, Target};
/// use rs_core::spill::spill_to_fit;
///
/// // a reducible DAG needs no memory traffic at all
/// let mut b = DdgBuilder::new(Target::superscalar());
/// for i in 0..3 {
///     let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT));
///     let s = b.op(format!("s{i}"), OpClass::Store, None);
///     b.flow(v, s, 4, RegType::FLOAT);
/// }
/// let ddg = b.finish();
///
/// let res = spill_to_fit(&ddg, RegType::FLOAT, 2).unwrap();
/// assert!(res.spilled_values.is_empty());
/// assert!(res.rs_after <= 2);
/// ```
pub fn spill_to_fit(ddg: &Ddg, t: RegType, r: usize) -> Option<SpillResult> {
    let mut current = ddg.clone();
    let mut spilled_values = Vec::new();
    let reducer = Reducer { verify_exact: true };

    for _round in 0..=MAX_SPILLS {
        let mut attempt = current.clone();
        let outcome = reducer.reduce(&mut attempt, t, r);
        if outcome.fits() {
            let rs_after = ExactRs::new().saturation(&attempt, t).saturation;
            if rs_after <= r {
                return Some(SpillResult {
                    ddg: attempt,
                    spilled_values,
                    reduction_arcs: outcome.added_arcs().len(),
                    rs_after,
                });
            }
        }
        if spilled_values.len() == MAX_SPILLS {
            break;
        }
        // Reduction failed: spill the unspilled saturating value with
        // the most consumers (ties: longest potential lifetime).
        let candidate = pick_spill_candidate(&current, t, &spilled_values)?;
        let name = current.graph().node(candidate).name.clone();
        current = spill_value(&current, t, candidate);
        spilled_values.push(name);
    }
    None
}

fn pick_spill_candidate(ddg: &Ddg, t: RegType, already: &[String]) -> Option<NodeId> {
    let analysis = GreedyK::new().saturation(ddg, t);
    let lp = rs_graph::paths::LongestPaths::new(ddg.graph());
    analysis
        .saturating_values
        .iter()
        .copied()
        // don't re-spill reload values or already-spilled ones
        .filter(|&v| {
            let op = ddg.graph().node(v);
            !op.name.starts_with("reload ") && !already.contains(&op.name)
        })
        .max_by_key(|&v| {
            let consumers = ddg.consumers(v, t);
            let span: i64 = consumers
                .iter()
                .filter_map(|&c| lp.lp(v, c))
                .max()
                .unwrap_or(0);
            (consumers.len(), span, std::cmp::Reverse(v))
        })
}

/// Rebuilds the DDG with value `victim` (of type `t`) spilled: a store
/// consumes it immediately, a reload re-produces it for every original
/// consumer.
pub fn spill_value(ddg: &Ddg, t: RegType, victim: NodeId) -> Ddg {
    let g = ddg.graph();
    let bottom = ddg.bottom();
    let mut b = DdgBuilder::new(ddg.target().clone());

    // 1. Re-add every non-bottom operation, remembering the id mapping.
    let mut map: Vec<Option<NodeId>> = vec![None; g.node_count()];
    for n in g.node_ids() {
        if n == bottom {
            continue;
        }
        map[n.index()] = Some(b.add_operation(g.node(n).clone()));
    }

    // 2. The spill pair.
    let store_lat = ddg.target().latency(OpClass::Store);
    let load_lat = ddg.target().latency(OpClass::Load);
    let victim_name = g.node(victim).name.clone();
    let store = b.add_operation(Operation {
        name: format!("spill {victim_name}"),
        class: OpClass::Store,
        writes: Vec::new(),
        latency: store_lat,
        delta_w: ddg.target().delta_w(OpClass::Store),
        delta_r: ddg.target().delta_r(OpClass::Store),
        is_bottom: false,
    });
    let reload = b.add_operation(Operation {
        name: format!("reload {victim_name}"),
        class: OpClass::Load,
        writes: vec![t],
        latency: load_lat,
        delta_w: ddg.target().delta_w(OpClass::Load),
        delta_r: ddg.target().delta_r(OpClass::Load),
        is_bottom: false,
    });

    // 3. Re-add edges, redirecting the victim's type-t flow to the reload.
    let new_victim = map[victim.index()].expect("victim is not ⊥");
    for e in g.edge_ids() {
        let (src, dst) = (g.src(e), g.dst(e));
        if src == bottom || dst == bottom {
            continue; // ⊥ closure is regenerated by finish()
        }
        let lat = g.latency(e);
        let (src2, dst2) = (map[src.index()].unwrap(), map[dst.index()].unwrap());
        match ddg.edge_kind(e) {
            EdgeKind::Flow(ft) if ft == t && src == victim => {
                // consumer now reads the reloaded value, at load latency
                b.flow(reload, dst2, load_lat, t);
            }
            EdgeKind::Flow(ft) => {
                b.flow(src2, dst2, lat, ft);
            }
            EdgeKind::Serial => {
                b.serial(src2, dst2, lat);
            }
        }
    }
    // the store consumes the victim right away; the reload follows the
    // store through memory
    b.flow(new_victim, store, g.node(victim).latency.max(1), t);
    b.serial(store, reload, store_lat.max(1));

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime;
    use crate::model::Target;

    /// A value `L` defined first and read last, across `k` short
    /// independent def-use chains. Serialization can interleave the short
    /// chains (RS → 2: `L` + one chain) but can never go below 2 — `L`
    /// spans everything. Spilling `L` through memory CAN reach 1.
    fn long_lived_ddg(k: usize) -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        let l = b.op("L", OpClass::Load, Some(RegType::FLOAT));
        let f = b.op("final", OpClass::Store, None);
        b.flow(l, f, 4, RegType::FLOAT);
        let mut prev = l;
        for i in 0..k {
            let v = b.op(format!("v{i}"), OpClass::FloatAlu, Some(RegType::FLOAT));
            let s = b.op(format!("s{i}"), OpClass::Store, None);
            b.flow(v, s, 3, RegType::FLOAT);
            // the chains sit between L's definition and its use
            b.serial(prev, v, 1);
            b.serial(s, f, 1);
            prev = l;
        }
        b.finish()
    }

    /// k values all read by one combiner: every operand is alive at the
    /// read, so no transformation can go below k.
    fn combiner_ddg(k: usize) -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        let mut vals = Vec::new();
        for i in 0..k {
            vals.push(b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT)));
        }
        let sink = b.op("combine", OpClass::FloatAlu, Some(RegType::FLOAT));
        for &v in &vals {
            b.flow(v, sink, 4, RegType::FLOAT);
        }
        b.finish()
    }

    #[test]
    fn spill_value_rebuilds_consistently() {
        let d = combiner_ddg(3);
        let victim = d.values(RegType::FLOAT)[0];
        let spilled = spill_value(&d, RegType::FLOAT, victim);
        assert!(spilled.is_acyclic());
        // two extra ops
        assert_eq!(spilled.num_ops(), d.num_ops() + 2);
        // the victim's only float consumer is now the store
        let new_victim = rs_graph::NodeId(victim.0);
        let cons = spilled.consumers(new_victim, RegType::FLOAT);
        assert_eq!(cons.len(), 1);
        assert!(spilled.graph().node(cons[0]).name.starts_with("spill "));
        // a valid schedule still exists
        let s = lifetime::asap_schedule(&spilled);
        assert!(lifetime::is_valid_schedule(&spilled, &s));
    }

    #[test]
    fn spilling_reduces_unreducible_pressure() {
        let d = long_lived_ddg(3);
        // L overlaps every chain: serialization alone cannot reach R = 1.
        let mut plain = d.clone();
        let plain_out = Reducer { verify_exact: true }.reduce(&mut plain, RegType::FLOAT, 1);
        assert!(!plain_out.fits(), "serialization alone must fail at R=1");

        let res = spill_to_fit(&d, RegType::FLOAT, 1).expect("spilling L must succeed at R=1");
        assert!(res.spilled_values.iter().any(|n| n == "L"));
        // one store and one reload per spilled value
        let added = res.ddg.num_ops() - d.num_ops();
        assert_eq!(added, 2 * res.spilled_values.len());
        assert!(res.rs_after <= 1, "rs_after = {}", res.rs_after);
        assert!(res.ddg.is_acyclic());
    }

    #[test]
    fn no_spill_needed_when_reducible() {
        // independent chains reduce without memory traffic
        let mut b = DdgBuilder::new(Target::superscalar());
        for i in 0..4 {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT));
            let s = b.op(format!("s{i}"), OpClass::Store, None);
            b.flow(v, s, 4, RegType::FLOAT);
        }
        let d = b.finish();
        let res = spill_to_fit(&d, RegType::FLOAT, 2).unwrap();
        assert!(
            res.spilled_values.is_empty(),
            "no spill code for a reducible DAG"
        );
        assert!(res.rs_after <= 2);
    }

    #[test]
    fn impossible_budget_returns_none() {
        // a binary combiner needs both operands alive at its read: R = 1 is
        // impossible for ANY transformation (spill reloads are values too)
        let d = combiner_ddg(2);
        assert!(spill_to_fit(&d, RegType::FLOAT, 1).is_none());
    }

    #[test]
    fn spilled_dag_register_need_is_bounded_by_saturation() {
        let d = long_lived_ddg(4);
        let budget = 2;
        let res = spill_to_fit(&d, RegType::FLOAT, budget).expect("R=2 must be reachable");
        // any schedule of the final DAG needs at most rs_after registers
        let sigma = lifetime::asap_schedule(&res.ddg);
        let rn = lifetime::register_need(&res.ddg, RegType::FLOAT, &sigma);
        assert!(
            rn <= res.rs_after,
            "ASAP need {rn} exceeds reduced saturation {}",
            res.rs_after
        );
        assert!(res.rs_after <= budget);
    }
}

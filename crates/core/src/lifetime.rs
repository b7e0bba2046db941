//! Lifetime intervals, killing dates, and the register need `RN_σ^t(G)` of a
//! fixed schedule.
//!
//! Given a schedule `σ`, the lifetime of a value `u^t` is the left-open
//! interval
//!
//! ```text
//! LT_σ(u^t) = ( σ(u) + δw(u),  max_{v ∈ Cons(u^t)} (σ(v) + δr(v)) ]
//! ```
//!
//! (a value written at cycle `c` is available one step later). The register
//! need is the maximal number of values simultaneously alive — the maximal
//! clique of the (interval) interference graph.

use crate::model::{Ddg, RegType};
use rs_graph::interval::{max_overlap, max_overlap_witness, Interval};
use rs_graph::NodeId;

/// Whether `sigma` (indexed by node) is a valid schedule of the DDG:
/// `σ(v) − σ(u) ≥ δ(e)` for every edge.
pub fn is_valid_schedule(ddg: &Ddg, sigma: &[i64]) -> bool {
    assert_eq!(sigma.len(), ddg.num_ops(), "schedule arity mismatch");
    ddg.graph().edge_ids().all(|e| {
        let u = ddg.graph().src(e);
        let v = ddg.graph().dst(e);
        sigma[v.index()] - sigma[u.index()] >= ddg.graph().latency(e)
    })
}

/// Killing date of value `u^t` under `sigma`:
/// `max_{v ∈ Cons(u^t)} (σ(v) + δr(v))`.
///
/// Every value has at least one consumer after bottom-closure, so this never
/// needs a default.
pub fn killing_date(ddg: &Ddg, t: RegType, sigma: &[i64], u: NodeId) -> i64 {
    ddg.consumers(u, t)
        .iter()
        .map(|&v| sigma[v.index()] + ddg.delta_r(v))
        .max()
        .unwrap_or_else(|| panic!("value {:?} has no consumer — DDG not bottom-closed?", u))
}

/// Definition date of value `u^t` under `sigma`: `σ(u) + δw(u)`.
pub fn definition_date(ddg: &Ddg, sigma: &[i64], u: NodeId) -> i64 {
    sigma[u.index()] + ddg.delta_w(u)
}

/// Lifetime intervals of all type-`t` values under `sigma`, paired with
/// their defining node.
pub fn lifetime_intervals(ddg: &Ddg, t: RegType, sigma: &[i64]) -> Vec<(NodeId, Interval)> {
    ddg.values(t)
        .into_iter()
        .map(|u| {
            let start = definition_date(ddg, sigma, u);
            let end = killing_date(ddg, t, sigma, u);
            (u, Interval::new(start, end))
        })
        .collect()
}

/// `RN_σ^t(G)`: the register need of type `t` under schedule `sigma`.
pub fn register_need(ddg: &Ddg, t: RegType, sigma: &[i64]) -> usize {
    #[expect(
        clippy::disallowed_macros,
        reason = "validity is checked once at the producer (ILP extraction, enumerator); re-checking O(E) per evaluation would dominate the search loop"
    )]
    {
        debug_assert!(is_valid_schedule(ddg, sigma), "invalid schedule");
    }
    let intervals: Vec<Interval> = lifetime_intervals(ddg, t, sigma)
        .into_iter()
        .map(|(_, iv)| iv)
        .collect();
    max_overlap(&intervals)
}

/// The register need together with a witness *saturating set*: values all
/// alive at one cycle.
pub fn saturating_values(ddg: &Ddg, t: RegType, sigma: &[i64]) -> (usize, Vec<NodeId>) {
    let pairs = lifetime_intervals(ddg, t, sigma);
    let intervals: Vec<Interval> = pairs.iter().map(|&(_, iv)| iv).collect();
    let (k, _, members) = max_overlap_witness(&intervals);
    (k, members.into_iter().map(|i| pairs[i].0).collect())
}

/// The as-soon-as-possible schedule of the DDG (a canonical valid schedule).
pub fn asap_schedule(ddg: &Ddg) -> Vec<i64> {
    rs_graph::paths::asap(ddg.graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    /// Two independent loads into one add, then store (superscalar).
    fn ddg() -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(l1, add, 4, RegType::FLOAT);
        b.flow(l2, add, 4, RegType::FLOAT);
        b.flow(add, st, 3, RegType::FLOAT);
        b.finish()
    }

    #[test]
    fn asap_is_valid() {
        let d = ddg();
        let s = asap_schedule(&d);
        assert!(is_valid_schedule(&d, &s));
        // the latest dates of the intLP's σ domains form a schedule too
        let alap = rs_graph::paths::alap(d.graph(), d.horizon());
        assert!(is_valid_schedule(&d, &alap));
    }

    #[test]
    fn parallel_loads_need_two_registers() {
        let d = ddg();
        let s = asap_schedule(&d); // both loads at 0
        assert_eq!(register_need(&d, RegType::FLOAT, &s), 2);
        let (k, vals) = saturating_values(&d, RegType::FLOAT, &s);
        assert_eq!(k, 2);
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn sequential_schedule_needs_one_fewer() {
        let d = ddg();
        // stagger the loads so l1 dies as late as possible... actually with
        // one consumer (add) both die at the add; staggering cannot help
        // here, so force the add between them is impossible — instead verify
        // a schedule where l2 issues after the add is invalid, and the need
        // stays 2 for any valid schedule (both die at the same consumer).
        let mut s = asap_schedule(&d);
        // push l2 close to the add: l2 at t, add at t+4
        s[1] = 5;
        s[2] = 9;
        s[3] = 12;
        s[4] = 20;
        assert!(is_valid_schedule(&d, &s));
        assert_eq!(register_need(&d, RegType::FLOAT, &s), 2);
    }

    #[test]
    fn killing_and_definition_dates() {
        let d = ddg();
        let s = asap_schedule(&d);
        let l1 = rs_graph::NodeId(0);
        let add = rs_graph::NodeId(2);
        assert_eq!(definition_date(&d, &s, l1), 0);
        // l1 is killed by the add at σ(add) + δr = 4
        assert_eq!(killing_date(&d, RegType::FLOAT, &s, l1), 4);
        // add's value is killed by the store at 4 + 3 = 7
        assert_eq!(killing_date(&d, RegType::FLOAT, &s, add), 7);
    }

    #[test]
    fn invalid_schedule_detected() {
        let d = ddg();
        let mut s = asap_schedule(&d);
        s[2] = 1; // add before its operands arrive
        assert!(!is_valid_schedule(&d, &s));
    }

    #[test]
    fn vliw_write_delay_shifts_definition() {
        let mut b = DdgBuilder::new(Target::vliw());
        let l = b.op("l", OpClass::Load, Some(RegType::FLOAT)); // δw = 3
        let u = b.op("u", OpClass::FloatAlu, Some(RegType::FLOAT));
        b.flow(l, u, 4, RegType::FLOAT);
        let d = b.finish();
        let s = asap_schedule(&d);
        assert_eq!(definition_date(&d, &s, l), 3);
        // the load's register is only occupied from cycle 4 (interval left-open at 3)
        let ivs = lifetime_intervals(&d, RegType::FLOAT, &s);
        let (_, iv) = ivs.iter().find(|(n, _)| *n == l).unwrap();
        assert_eq!(iv.start, 3);
        assert_eq!(iv.end, 4); // killed by u's read at σ(u)=4 + δr 0
    }

    #[test]
    fn exit_values_live_until_bottom() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let a = b.op("a", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("b", OpClass::IntAlu, Some(RegType::INT));
        b.serial(a, c, 1);
        let d = b.finish();
        let s = asap_schedule(&d);
        // both values flow to ⊥; at σ(⊥) both still alive
        assert_eq!(register_need(&d, RegType::INT, &s), 2);
    }
}

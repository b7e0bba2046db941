//! Node-time bound propagation: activity-based bound tightening on a
//! branch-and-bound node's domain.
//!
//! The register-saturation intLPs are big-M heavy: one branching decision
//! (a gate binary pinned to 0/1) frequently forces a cascade of other
//! binaries. The pass is *safe*: it never cuts off an integer-feasible
//! point — every tightening is justified by interval arithmetic over the
//! current bounds, with integral rounding applied only to integral
//! variables.

use crate::model::{Cmp, Model};
use crate::EPS;

/// Outcome of a node-local [`propagate`] pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Propagation {
    /// Bounds were tightened this many times (possibly zero).
    Tightened(usize),
    /// The current bounds admit no feasible point: the caller can fathom
    /// the subproblem without an LP solve.
    Infeasible,
}

/// Cheap per-node domain reduction: activity-based bound tightening **in
/// place** on the node's already-tightened bounds, with integral rounding
/// at the branch-and-bound driver's own `int_tol`.
///
/// For `Σ aᵢxᵢ ≤ b`, `x_j ≤ (b − min-activity-rest)/a_j` when `a_j > 0`,
/// symmetric otherwise, `Eq` expanded to both passes. The pass mutates the
/// model it is given but never touches the row set — the B&B workers reuse
/// one model per slot across nodes and only ever reset *bounds* between
/// nodes. Propagating a branching cascade before the cold LP solve detects
/// infeasible subproblems for free ([`Propagation::Infeasible`] → the node
/// is fathomed with no simplex work at all).
pub fn propagate(model: &mut Model, int_tol: f64, max_rounds: usize) -> Propagation {
    let mut tightened = 0usize;
    for _round in 0..max_rounds {
        let mut changed = false;
        let n_rows = model.constraints.len();
        for ci in 0..n_rows {
            let (cmp0, rhs0) = {
                let c = &model.constraints[ci];
                (c.cmp, c.rhs)
            };
            // Infeasibility screen from the row's activity interval. The
            // interval is then maintained *incrementally* across the term
            // loop below — each tightening moves exactly one bound, so the
            // affected endpoint shifts by `a · Δbound` — which keeps the
            // whole pass linear in the row length instead of quadratic
            // (the dense objective-cutoff row the node-time caller appends
            // would otherwise dominate the node budget).
            let (mut act_lo, mut act_hi) = model.expr_bounds(&model.constraints[ci].expr);
            let feasible = match cmp0 {
                Cmp::Le => act_lo <= rhs0 + EPS,
                Cmp::Ge => act_hi >= rhs0 - EPS,
                Cmp::Eq => act_lo <= rhs0 + EPS && act_hi >= rhs0 - EPS,
            };
            if !feasible {
                return Propagation::Infeasible;
            }
            // Treat Eq as both Le and Ge.
            let passes: &[(Cmp, f64)] = match cmp0 {
                Cmp::Le => &[(Cmp::Le, rhs0)],
                Cmp::Ge => &[(Cmp::Ge, rhs0)],
                Cmp::Eq => &[(Cmp::Le, rhs0), (Cmp::Ge, rhs0)],
            };
            for &(cmp, rhs) in passes {
                let nterms = model.constraints[ci].expr.terms.len();
                for ti in 0..nterms {
                    let (v, a) = model.constraints[ci].expr.terms[ti];
                    if a.abs() <= EPS {
                        continue;
                    }
                    let (vlo, vhi) = model.bounds(v);
                    let integral = model.is_integral(v);
                    match cmp {
                        Cmp::Le => {
                            let contrib_lo = if a > 0.0 { a * vlo } else { a * vhi };
                            let rest_lo = act_lo - contrib_lo;
                            if !rest_lo.is_finite() {
                                continue;
                            }
                            if a > 0.0 {
                                let mut ub = (rhs - rest_lo) / a;
                                if integral {
                                    ub = (ub + int_tol).floor();
                                }
                                if ub < vlo - EPS {
                                    return Propagation::Infeasible;
                                }
                                if ub < vhi - EPS {
                                    let new_hi = ub.max(vlo);
                                    model.set_bounds(v, vlo, new_hi);
                                    act_hi += a * (new_hi - vhi);
                                    tightened += 1;
                                    changed = true;
                                }
                            } else {
                                let mut lb = (rhs - rest_lo) / a;
                                if integral {
                                    lb = (lb - int_tol).ceil();
                                }
                                if lb > vhi + EPS {
                                    return Propagation::Infeasible;
                                }
                                if lb > vlo + EPS {
                                    let new_lo = lb.min(vhi);
                                    model.set_bounds(v, new_lo, vhi);
                                    act_hi += a * (new_lo - vlo);
                                    tightened += 1;
                                    changed = true;
                                }
                            }
                        }
                        Cmp::Ge => {
                            let contrib_hi = if a > 0.0 { a * vhi } else { a * vlo };
                            let rest_hi = act_hi - contrib_hi;
                            if !rest_hi.is_finite() {
                                continue;
                            }
                            if a > 0.0 {
                                let mut lb = (rhs - rest_hi) / a;
                                if integral {
                                    lb = (lb - int_tol).ceil();
                                }
                                if lb > vhi + EPS {
                                    return Propagation::Infeasible;
                                }
                                if lb > vlo + EPS {
                                    let new_lo = lb.min(vhi);
                                    model.set_bounds(v, new_lo, vhi);
                                    act_lo += a * (new_lo - vlo);
                                    tightened += 1;
                                    changed = true;
                                }
                            } else {
                                let mut ub = (rhs - rest_hi) / a;
                                if integral {
                                    ub = (ub + int_tol).floor();
                                }
                                if ub < vlo - EPS {
                                    return Propagation::Infeasible;
                                }
                                if ub < vhi - EPS {
                                    let new_hi = ub.max(vlo);
                                    model.set_bounds(v, vlo, new_hi);
                                    act_lo += a * (new_hi - vhi);
                                    tightened += 1;
                                    changed = true;
                                }
                            }
                        }
                        Cmp::Eq => unreachable!("expanded above"),
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    Propagation::Tightened(tightened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Sense, VarKind};
    use proptest::prelude::*;

    #[test]
    fn node_propagation_tightens_in_place() {
        // Big-M gate: x ≤ 6y with y pinned to 0 forces x to 0; the row set
        // must survive untouched (the B&B slots reuse it across nodes).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 6.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        m.add_constraint(LinExpr::from(x) + (-6.0, y), Cmp::Le, 0.0);
        m.set_objective(LinExpr::from(x));
        m.set_bounds(y, 0.0, 0.0); // the branching decision
        match propagate(&mut m, 1e-6, 2) {
            Propagation::Tightened(n) => assert!(n >= 1, "must tighten x"),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.bounds(x), (0.0, 0.0));
        assert_eq!(m.num_constraints(), 1, "row set must not change");
    }

    #[test]
    fn node_propagation_detects_infeasible() {
        // x + y ≥ 2 with both pinned to 0 by branching: fathom without LP.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 2.0);
        m.set_objective(LinExpr::from(x));
        m.set_bounds(x, 0.0, 0.0);
        assert_eq!(propagate(&mut m, 1e-6, 2), Propagation::Infeasible);
    }

    #[test]
    fn node_propagation_cascades_through_rounds() {
        // y ≥ x − 1 chain: fixing x high pulls y, then z, across rounds.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 9.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 9.0);
        let z = m.add_var("z", VarKind::Integer, 0.0, 9.0);
        m.add_constraint(LinExpr::from(y) - x, Cmp::Ge, 0.0); // y >= x
        m.add_constraint(LinExpr::from(z) - y, Cmp::Ge, 0.0); // z >= y
        m.set_objective(LinExpr::from(z));
        m.set_bounds(x, 7.0, 9.0);
        match propagate(&mut m, 1e-6, 4) {
            Propagation::Tightened(n) => assert!(n >= 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.bounds(y).0, 7.0);
        assert_eq!(m.bounds(z).0, 7.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Node propagation must never cut off an integer-feasible point:
        /// any point feasible before the pass stays inside the tightened
        /// box afterwards.
        #[test]
        fn propagation_preserves_integer_points(
            cons in proptest::collection::vec(
                (proptest::array::uniform3(-3i64..=3), -5i64..=20), 1..4),
        ) {
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = (0..3)
                .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
                .collect();
            for (coefs, rhs) in &cons {
                let mut e = LinExpr::new();
                for (i, &c) in coefs.iter().enumerate() {
                    e = e + (c as f64, vars[i]);
                }
                m.add_constraint(e, Cmp::Le, *rhs as f64);
            }
            m.set_objective(LinExpr::from(vars[0]));
            // Enumerate feasible integer points before propagation.
            let mut feasible = Vec::new();
            for x in 0..=4i64 {
                for y in 0..=4i64 {
                    for z in 0..=4i64 {
                        let p = [x as f64, y as f64, z as f64];
                        if m.check_feasible(&p, 1e-9).is_ok() {
                            feasible.push(p);
                        }
                    }
                }
            }
            let outcome = propagate(&mut m, 1e-6, 3);
            if outcome == Propagation::Infeasible {
                prop_assert!(feasible.is_empty(),
                    "propagation fathomed a box holding {:?}", feasible.first());
            } else {
                for p in &feasible {
                    prop_assert!(m.check_feasible(p, 1e-9).is_ok(),
                        "propagation cut off feasible point {p:?}");
                }
            }
        }
    }
}

//! Test-only reference solver: the **explicit-bound-row** formulation.
//!
//! This is the formulation the bounded-variable simplex replaced: every
//! finite upper bound is materialized as a dense `x ≤ u − lo` row with its
//! own slack column, and all column ranges are infinite, so the bounded
//! machinery degenerates to the classic two-phase primal simplex. It shares
//! the pivot kernel and phase logic with [`crate::simplex`] — the only
//! difference is the standard form — which makes it the differential
//! baseline for the bound-handling rewrite: identical models must produce
//! the same outcome class and the same objective on both paths.
//!
//! Nothing here is exercised by the production solvers. The entry points
//! exist for differential tests and the `milp_scaling` bench's
//! before/after comparison. Every LP here is a cold two-phase solve that
//! keeps no live tableau, so the MILP driver's nodes on this path branch
//! most-fractional instead of probing.

use crate::milp::{MilpConfig, MilpError, MilpSolution};
use crate::model::Model;
use crate::simplex::{cold_solve, std_form, LpOutcome, LpStats};

/// Solves the LP relaxation with explicit bound rows (cold two-phase).
pub fn solve_relaxation(model: &Model) -> LpOutcome {
    solve_relaxation_stats(model).0
}

/// [`solve_relaxation`] with the per-solve work counters.
pub fn solve_relaxation_stats(model: &Model) -> (LpOutcome, LpStats) {
    let sf = std_form(model, true);
    cold_solve(model, &sf)
}

/// Tableau dimensions `(rows, structural + slack columns)` of the
/// explicit-bound-row standard form: one extra row *and* one extra slack
/// column per finite upper bound.
pub fn tableau_shape(model: &Model) -> (usize, usize) {
    crate::simplex::std_form_shape(model, true)
}

/// Solves the MILP with every node relaxation routed through the
/// explicit-bound-row reference simplex (see
/// [`MilpConfig::reference_lp`]) — same branch-and-bound driver, cold node
/// solves on doubled tableaux.
pub fn solve_milp(model: &Model, cfg: &MilpConfig) -> Result<MilpSolution, MilpError> {
    let cfg = MilpConfig {
        reference_lp: true,
        ..cfg.clone()
    };
    crate::milp::solve(model, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, Sense, VarKind};

    #[test]
    fn reference_emits_bound_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 4.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 6.0);
        m.set_objective(LinExpr::from(x) + y);
        // one structural row + one bound row for x (y is unbounded above)
        assert_eq!(tableau_shape(&m), (2, 2 + 2));
        assert_eq!(crate::simplex::tableau_shape(&m), (1, 2 + 1));
    }

    mod differential {
        use super::super::*;
        use crate::milp::MilpConfig;
        use crate::simplex;
        use crate::{Cmp, LinExpr, Sense, VarKind};
        use proptest::prelude::*;

        /// Random LP: 3 variables with assorted finite/infinite upper
        /// bounds, up to 4 rows with small integer data.
        fn build_lp(
            bounds: &[(i64, i64); 3],
            cons: &[([i64; 3], i64, u8)],
            obj: &[i64; 3],
            maximize: bool,
        ) -> Model {
            let sense = if maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let mut m = Model::new(sense);
            let vars: Vec<_> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, width))| {
                    // width 7 stands in for "no upper bound"
                    let hi = if width == 7 {
                        f64::INFINITY
                    } else {
                        (lo + width) as f64
                    };
                    m.add_var(format!("x{i}"), VarKind::Continuous, lo as f64, hi)
                })
                .collect();
            for (coefs, rhs, cmp) in cons {
                let mut e = LinExpr::new();
                for (i, &c) in coefs.iter().enumerate() {
                    e = e + (c as f64, vars[i]);
                }
                let cmp = match cmp % 3 {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                m.add_constraint(e, cmp, *rhs as f64);
            }
            let mut o = LinExpr::new();
            for (i, &c) in obj.iter().enumerate() {
                o = o + (c as f64, vars[i]);
            }
            m.set_objective(o);
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The bounded-variable simplex and the explicit-bound-row
            /// reference must agree on the outcome class and (when optimal)
            /// the objective of random LPs.
            #[test]
            fn lp_relaxation_matches_reference(
                bounds in proptest::array::uniform3((-4i64..=4, 0i64..=7)),
                cons in proptest::collection::vec(
                    (proptest::array::uniform3(-3i64..=3), -8i64..=16, 0u8..=8), 1..5),
                obj in proptest::array::uniform3(-4i64..=4),
                maximize in any::<bool>(),
            ) {
                let m = build_lp(&bounds, &cons, &obj, maximize);
                let b = simplex::solve_relaxation(&m);
                let r = solve_relaxation(&m);
                match (&b, &r) {
                    (LpOutcome::Optimal(x), LpOutcome::Optimal(y)) => prop_assert!(
                        (x.objective - y.objective).abs() < 1e-6,
                        "objectives diverge: bounded {} vs reference {}",
                        x.objective, y.objective
                    ),
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
                    (a, b) => prop_assert!(
                        false,
                        "outcome classes diverge: bounded {a:?} vs reference {b:?}"
                    ),
                }
                if let LpOutcome::Optimal(x) = &b {
                    prop_assert!(m.check_feasible(&x.values, 1e-5).is_ok());
                }
            }

            /// Full MILP differential on small random integer programs: the
            /// bounded-variable engine and the reference-LP engine must
            /// agree on feasibility and the optimal objective.
            #[test]
            fn milp_matches_reference(
                cons in proptest::collection::vec(
                    (proptest::array::uniform3(-3i64..=3), -5i64..=20), 1..4),
                obj in proptest::array::uniform3(-4i64..=4),
                maximize in any::<bool>(),
            ) {
                let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
                let mut m = Model::new(sense);
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
                let mut o = LinExpr::new();
                for (i, &c) in obj.iter().enumerate() {
                    o = o + (c as f64, vars[i]);
                }
                m.set_objective(o);

                // Raw-formulation differential: presolve off, so the
                // tableau-shape invariants are about the standard forms
                // themselves.
                let cfg = MilpConfig {
                    presolve: false,
                    ..MilpConfig::default()
                };
                let bounded = crate::milp::solve(&m, &cfg);
                match (&bounded, solve_milp(&m, &cfg)) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(a.stats.proven_optimal && b.stats.proven_optimal);
                        prop_assert!(
                            (a.objective - b.objective).abs() < 1e-6,
                            "objectives diverge: bounded {} vs reference {}",
                            a.objective, b.objective
                        );
                        // zero bound rows on the bounded path, one per
                        // finite upper bound on the reference path; both
                        // paths may also carry their own appended cut rows
                        prop_assert_eq!(a.stats.rows, m.num_constraints() + a.stats.cuts_added);
                        prop_assert_eq!(b.stats.rows, m.num_constraints() + b.stats.cuts_added + 3);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.clone(), b),
                    (a, b) => prop_assert!(
                        false,
                        "outcome classes diverge: bounded {:?} vs reference {:?}",
                        a.as_ref().map(|s| s.objective), b.map(|s| s.objective)
                    ),
                }
                // The default path (presolve wired into `milp::solve`) must
                // agree with the presolve-free solve on the objective.
                match (crate::milp::solve(&m, &MilpConfig::default()), bounded) {
                    (Ok(p), Ok(raw)) => prop_assert!(
                        (p.objective - raw.objective).abs() < 1e-6,
                        "presolve changed the objective: {} vs {}",
                        p.objective, raw.objective
                    ),
                    (Err(p), Err(raw)) => prop_assert_eq!(p, raw),
                    (p, raw) => prop_assert!(
                        false,
                        "presolve changed the outcome class: {:?} vs {:?}",
                        p.map(|s| s.objective), raw.map(|s| s.objective)
                    ),
                }
            }
        }
    }

    #[test]
    fn reference_agrees_on_simple_lp() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.set_objective(LinExpr::from(x) * 3.0 + (2.0, y));
        let (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) =
            (solve_relaxation(&m), crate::simplex::solve_relaxation(&m))
        else {
            panic!("both paths must be optimal");
        };
        assert!((a.objective - b.objective).abs() < 1e-6);
    }
}

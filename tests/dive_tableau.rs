//! Differential validation of the incremental dive tableau.
//!
//! `rs_lp::DiveTableau` keeps a factorized simplex tableau live across a
//! chain of bound tightenings, applying each batch as in-place rank-1
//! right-hand-side folds plus a dual repair priced by dual steepest edge —
//! no tableau rebuild and no basis reinstall. These proptests drive random
//! chains of tightenings (single and batched, upper and lower, including
//! variable fixings) through a live tableau and check every step against
//! a **fresh cold solve** of the same bounds: outcome classes must match,
//! optimal objectives must agree, and extracted solutions must be
//! feasible.

use proptest::prelude::*;
use rs_lp::{Cmp, DiveStep, DiveTableau, LinExpr, LpOutcome, Model, Sense, VarId, VarKind};

/// Random bounded LP over `nvars` variables with small integer data.
fn build_lp(
    nvars: usize,
    widths: &[i64],
    cons: &[(Vec<i64>, i64, u8)],
    obj: &[i64],
    maximize: bool,
) -> Model {
    let sense = if maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = (0..nvars)
        .map(|i| m.add_var(format!("x{i}"), VarKind::Continuous, 0.0, widths[i] as f64))
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
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A chain of random single-variable tightenings on a live dive
    /// tableau must track fresh cold solves exactly, step by step.
    #[test]
    fn tighten_chain_matches_cold_solves(
        widths in proptest::collection::vec(1i64..=6, 4..5),
        cons in proptest::collection::vec(
            (proptest::collection::vec(-3i64..=3, 4..5), -6i64..=18, 0u8..=8), 1..5),
        obj in proptest::collection::vec(-4i64..=4, 4..5),
        maximize in any::<bool>(),
        // (variable, keep-fraction of current range, tighten-lower?) steps
        steps in proptest::collection::vec(
            (0usize..4, 0u8..=4, any::<bool>()), 1..8),
    ) {
        let mut model = build_lp(4, &widths, &cons, &obj, maximize);
        let (out, dt, _) = DiveTableau::new(&model, None);
        let mut dt = match (out, dt) {
            (LpOutcome::Optimal(sol), Some(dt)) => {
                prop_assert!(model.check_feasible(&sol.values, 1e-6).is_ok());
                dt
            }
            // Infeasible/unbounded root: nothing to dive from; the
            // constructor agreeing with the cold solver is already covered
            // by the shared cold path.
            _ => return Ok(()),
        };

        for &(vi, keep, tighten_lower) in &steps {
            let v = VarId(vi as u32);
            let (lo, hi) = dt.bounds(v);
            prop_assert_eq!((lo, hi), model.bounds(v), "tableau and model bounds diverged");
            // New sub-interval: keep `keep`/4 of the current range from
            // one end (keep == 0 fixes the variable at that end).
            let range = hi - lo;
            let kept = range * f64::from(keep) / 4.0;
            let (nlo, nhi) = if tighten_lower {
                (hi - kept, hi)
            } else {
                (lo, lo + kept)
            };
            if !dt_step(&mut dt, &mut model, &[(v, nlo, nhi)])? {
                break;
            }
        }
    }

    /// Batched tightenings (several variables fixed at once — the dive
    /// heuristic's vector step) must also track cold solves.
    #[test]
    fn batch_fixes_match_cold_solves(
        widths in proptest::collection::vec(1i64..=5, 5..6),
        cons in proptest::collection::vec(
            (proptest::collection::vec(-2i64..=3, 5..6), 0i64..=20, 0u8..=8), 1..4),
        obj in proptest::collection::vec(-3i64..=4, 5..6),
        maximize in any::<bool>(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0u8..=5), 1..4), 1..4),
    ) {
        let mut model = build_lp(5, &widths, &cons, &obj, maximize);
        let (out, dt, _) = DiveTableau::new(&model, None);
        let mut dt = match (out, dt) {
            (LpOutcome::Optimal(_), Some(dt)) => dt,
            _ => return Ok(()),
        };
        for batch in &batches {
            let mut changes: Vec<(VarId, f64, f64)> = Vec::new();
            for &(vi, num) in batch {
                let v = VarId(vi as u32);
                if changes.iter().any(|&(w, _, _)| w == v) {
                    continue;
                }
                let (lo, hi) = dt.bounds(v);
                // Fix at a point of the current interval.
                let t = lo + (hi - lo) * f64::from(num) / 5.0;
                changes.push((v, t, t));
            }
            if !dt_step(&mut dt, &mut model, &changes)? {
                break;
            }
        }
    }
}

/// Applies one tightening step to both the live tableau and the model,
/// then cross-checks the live result against a fresh cold solve. Returns
/// whether the chain can continue (`false` once the subproblem is proven
/// infeasible, or on a rare soft stall).
fn dt_step(
    dt: &mut DiveTableau,
    model: &mut Model,
    changes: &[(VarId, f64, f64)],
) -> Result<bool, TestCaseError> {
    for &(v, nlo, nhi) in changes {
        let (lo, hi) = model.bounds(v);
        model.set_bounds(v, nlo.clamp(lo, hi), nhi.clamp(lo, hi));
    }
    let step = dt.tighten(changes, model);
    let cold = rs_lp::solve_relaxation(model);
    match (&step, &cold) {
        (DiveStep::Optimal(warm), LpOutcome::Optimal(cold)) => {
            prop_assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "objectives diverge after {changes:?}: dive {} vs cold {}",
                warm.objective,
                cold.objective
            );
            prop_assert!(
                model.check_feasible(&warm.values, 1e-6).is_ok(),
                "dive solution infeasible after {changes:?}: {:?}",
                model.check_feasible(&warm.values, 1e-6)
            );
            Ok(true)
        }
        // Both agree the tightened box is empty; the chain cannot continue
        // from an infeasible tableau.
        (DiveStep::Infeasible, LpOutcome::Infeasible) => Ok(false),
        // Soft failure (iteration budget); rare and legal — skip the rest
        // of the chain.
        (DiveStep::Stalled, _) => Ok(false),
        (a, b) => {
            prop_assert!(
                false,
                "outcome classes diverge after {changes:?}: dive {a:?} vs cold {b:?}"
            );
            Ok(false)
        }
    }
}

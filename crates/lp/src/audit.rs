//! Pre-solve static model auditor.
//!
//! The solver trusts its inputs structurally: a NaN coefficient, an
//! inverted bound, or a tampered checkpoint does not fail fast — it
//! steers pivots, prunes wrong subtrees, or splices an incoherent
//! frontier, and the damage surfaces far from the cause (if at all).
//! This module is the static layer in front of execution: with
//! [`MilpConfig::audit`](crate::MilpConfig::audit) on (the default in
//! debug builds and CI), every emitted model, every restored or
//! separated cut-pool row, and every accepted checkpoint is checked
//! *before* the search runs, and a violation returns a typed
//! [`AuditError`] through [`MilpError::Audit`](crate::MilpError::Audit)
//! instead of a silent wrong answer.
//!
//! The cut check is the 512-case GMI property test promoted to a
//! deterministic pass over the real pool: cheap per-row invariants
//! always (finite, sorted, in-range, the row keeps at least one point of
//! the bounding box), plus — when the model's full integer bounding box
//! is small enough to enumerate — the exact proptest oracle: no pooled
//! cut may exclude any integer-feasible point.

use crate::cuts::Cut;
use crate::model::{Model, VarKind};

/// Feasibility tolerance of the audit oracle — matches the GMI property
/// test's tolerance so the promoted check accepts exactly what the
/// proptest accepted.
const TOL: f64 = 1e-6;

/// Exhaustive cut validation enumerates the full integer bounding box
/// only up to this many points; larger models get the cheap per-row
/// checks only (still catching NaN/unsorted/box-excluding rows).
const BOX_CAP: u128 = 4096;

/// A static-audit violation: the model, cut pool, or checkpoint is
/// incoherent and the solve refuses to start. Payloads are pre-rendered
/// strings (not raw floats) so the error stays `Eq` and wire-friendly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// A variable's domain is invalid (non-finite, NaN, inverted, or a
    /// binary outside `[0, 1]`).
    VarBounds { var: u32, what: String },
    /// A constraint row is malformed (non-finite data, out-of-range or
    /// unsorted terms, unfolded constant).
    Row { row: usize, what: String },
    /// The objective is malformed.
    Objective { what: String },
    /// A pooled cut row is malformed or excludes an integer-feasible
    /// point (an invalid cut silently changes the optimum).
    Cut { index: usize, what: String },
    /// An accepted (version- and fingerprint-matching) checkpoint has an
    /// incoherent payload.
    Checkpoint { what: String },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::VarBounds { var, what } => write!(f, "audit: x{var}: {what}"),
            AuditError::Row { row, what } => write!(f, "audit: constraint {row}: {what}"),
            AuditError::Objective { what } => write!(f, "audit: objective: {what}"),
            AuditError::Cut { index, what } => write!(f, "audit: cut {index}: {what}"),
            AuditError::Checkpoint { what } => write!(f, "audit: checkpoint: {what}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Validates a model's static structure: finite/non-NaN bounds and
/// coefficients, `lo ≤ hi`, binary consistency, normalized rows
/// (strictly sorted terms, constant folded into the rhs), in-range
/// variable references.
pub fn check_model(model: &Model) -> Result<(), AuditError> {
    let n = model.vars.len();
    for (i, var) in model.vars.iter().enumerate() {
        let var_id = i as u32;
        if !var.lo.is_finite() {
            return Err(AuditError::VarBounds {
                var: var_id,
                what: format!("lower bound {} is not finite", var.lo),
            });
        }
        if var.hi.is_nan() {
            return Err(AuditError::VarBounds {
                var: var_id,
                what: "upper bound is NaN".to_string(),
            });
        }
        if var.lo > var.hi {
            return Err(AuditError::VarBounds {
                var: var_id,
                what: format!("empty domain [{}, {}]", var.lo, var.hi),
            });
        }
        if matches!(var.kind, VarKind::Binary) && (var.lo < 0.0 || var.hi > 1.0) {
            return Err(AuditError::VarBounds {
                var: var_id,
                what: format!("binary domain [{}, {}] outside [0, 1]", var.lo, var.hi),
            });
        }
    }
    for (ri, c) in model.constraints.iter().enumerate() {
        // lint:allow(D-03) structural invariant: add_constraint folds the constant to exactly 0.0
        if c.expr.constant != 0.0 {
            return Err(AuditError::Row {
                row: ri,
                what: format!("constant {} not folded into rhs", c.expr.constant),
            });
        }
        if !c.rhs.is_finite() {
            return Err(AuditError::Row {
                row: ri,
                what: format!("rhs {} is not finite", c.rhs),
            });
        }
        check_terms(&c.expr.terms, n).map_err(|what| AuditError::Row { row: ri, what })?;
    }
    if !model.objective.constant.is_finite() {
        return Err(AuditError::Objective {
            what: format!("constant {} is not finite", model.objective.constant),
        });
    }
    check_terms(&model.objective.terms, n).map_err(|what| AuditError::Objective { what })?;
    Ok(())
}

/// Shared term-list invariants: finite coefficients, in-range variables,
/// strictly sorted by variable (the normalized form every emitter and
/// the fingerprint rely on).
fn check_terms(terms: &[(crate::VarId, f64)], n: usize) -> Result<(), String> {
    let mut prev: Option<u32> = None;
    for &(v, a) in terms {
        if v.index() >= n {
            return Err(format!(
                "references x{} but the model has {n} variables",
                v.0
            ));
        }
        if !a.is_finite() {
            return Err(format!("coefficient {a} on x{} is not finite", v.0));
        }
        if let Some(p) = prev {
            if v.0 <= p {
                return Err(format!(
                    "terms not strictly sorted by variable (x{p} then x{})",
                    v.0
                ));
            }
        }
        prev = Some(v.0);
    }
    Ok(())
}

/// Validates a cut-pool snapshot against the (presolved) base model.
///
/// Always: each row is finite, strictly sorted, in range, and keeps at
/// least one point of the variable bounding box (a row whose minimal lhs
/// over the box already exceeds the rhs excludes *everything*). When the
/// model is all-integral and its bounding box holds at most 4096
/// (`BOX_CAP`) points, additionally runs the exact oracle: every
/// integer-feasible point of the base model must satisfy every cut.
pub fn check_cuts(model: &Model, cuts: &[Cut]) -> Result<(), AuditError> {
    let n = model.num_vars();
    for (i, cut) in cuts.iter().enumerate() {
        if cut.terms.is_empty() {
            return Err(AuditError::Cut {
                index: i,
                what: "empty term list".to_string(),
            });
        }
        if !cut.rhs.is_finite() {
            return Err(AuditError::Cut {
                index: i,
                what: format!("rhs {} is not finite", cut.rhs),
            });
        }
        check_terms(&cut.terms, n).map_err(|what| AuditError::Cut { index: i, what })?;
        // Minimal lhs over the bounding box: Σ min(a·lo, a·hi). If even
        // that exceeds the rhs, the row cuts off the whole box.
        let mut min_lhs = 0.0f64;
        for &(v, a) in &cut.terms {
            let (lo, hi) = model.bounds(v);
            min_lhs += if a >= 0.0 { a * lo } else { a * hi };
        }
        if min_lhs > cut.rhs + TOL {
            return Err(AuditError::Cut {
                index: i,
                what: format!(
                    "excludes the entire bounding box (min lhs {min_lhs} > rhs {})",
                    cut.rhs
                ),
            });
        }
    }
    if cuts.is_empty() {
        return Ok(());
    }
    let Some(widths) = enumerable_box(model) else {
        return Ok(());
    };
    // Mixed-radix walk over the integer bounding box — deterministic and
    // bounded by BOX_CAP points.
    let mut point: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
    let mut idx = vec![0u64; n];
    loop {
        if model.check_feasible(&point, TOL).is_ok() {
            for (i, cut) in cuts.iter().enumerate() {
                let lhs: f64 = cut.terms.iter().map(|&(v, a)| a * point[v.index()]).sum();
                if lhs > cut.rhs + TOL {
                    return Err(AuditError::Cut {
                        index: i,
                        what: format!(
                            "excludes integer-feasible point {point:?} (lhs {lhs} > rhs {})",
                            cut.rhs
                        ),
                    });
                }
            }
        }
        // Advance the counter.
        let mut carry = true;
        for d in 0..n {
            if !carry {
                break;
            }
            idx[d] += 1;
            if idx[d] < widths[d] {
                point[d] = model.vars[d].lo + idx[d] as f64;
                carry = false;
            } else {
                idx[d] = 0;
                point[d] = model.vars[d].lo;
            }
        }
        if carry {
            return Ok(());
        }
    }
}

/// Integer box widths when the model is exhaustively checkable: every
/// variable integral with finite integral bounds, and at most
/// [`BOX_CAP`] total points.
fn enumerable_box(model: &Model) -> Option<Vec<u64>> {
    let mut widths = Vec::with_capacity(model.vars.len());
    let mut total: u128 = 1;
    for v in &model.vars {
        if matches!(v.kind, VarKind::Continuous) {
            return None;
        }
        if !v.hi.is_finite() {
            return None;
        }
        let w = v.hi.floor() - v.lo.ceil() + 1.0;
        if w < 1.0 || w > BOX_CAP as f64 {
            return None;
        }
        total = total.saturating_mul(w as u128);
        if total > BOX_CAP {
            return None;
        }
        widths.push(w as u64);
    }
    Some(widths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, Sense, VarId};

    fn knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 3.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 3.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.set_objective(LinExpr::from(x) + (2.0, y));
        m
    }

    #[test]
    fn clean_model_passes() {
        assert_eq!(check_model(&knapsack()), Ok(()));
    }

    #[test]
    fn nan_coefficient_is_rejected() {
        let mut m = knapsack();
        m.add_constraint(LinExpr::from(VarId(0)) + (f64::NAN, VarId(1)), Cmp::Le, 2.0);
        let err = check_model(&m).unwrap_err();
        assert!(matches!(err, AuditError::Row { row: 1, .. }), "{err}");
    }

    #[test]
    fn infinite_rhs_is_rejected() {
        let mut m = knapsack();
        m.add_constraint(LinExpr::from(VarId(0)), Cmp::Le, f64::INFINITY);
        assert!(matches!(
            check_model(&m).unwrap_err(),
            AuditError::Row { row: 1, .. }
        ));
    }

    #[test]
    fn nan_objective_is_rejected() {
        let mut m = knapsack();
        m.set_objective(LinExpr::from(VarId(0)) + (f64::NAN, VarId(1)));
        assert!(matches!(
            check_model(&m).unwrap_err(),
            AuditError::Objective { .. }
        ));
    }

    #[test]
    fn valid_cut_passes_exhaustive_oracle() {
        // x + y <= 4 is the model row itself: trivially valid as a cut.
        let m = knapsack();
        let cut = Cut {
            terms: vec![(VarId(0), 1.0), (VarId(1), 1.0)],
            rhs: 4.0,
        };
        assert_eq!(check_cuts(&m, &[cut]), Ok(()));
    }

    #[test]
    fn cut_excluding_feasible_point_is_rejected() {
        // x + y <= 1 wrongly cuts off the feasible optimum (1, 3).
        let m = knapsack();
        let cut = Cut {
            terms: vec![(VarId(0), 1.0), (VarId(1), 1.0)],
            rhs: 1.0,
        };
        let err = check_cuts(&m, &[cut]).unwrap_err();
        assert!(matches!(err, AuditError::Cut { index: 0, .. }), "{err}");
        assert!(err.to_string().contains("integer-feasible point"), "{err}");
    }

    #[test]
    fn box_excluding_cut_is_rejected_even_without_oracle() {
        // A model too big to enumerate still catches a row whose minimal
        // lhs over the box beats the rhs.
        let mut m = Model::new(Sense::Maximize);
        for i in 0..40 {
            m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 3.0);
        }
        let cut = Cut {
            terms: vec![(VarId(0), 1.0)],
            rhs: -1.0,
        };
        let err = check_cuts(&m, &[cut]).unwrap_err();
        assert!(err.to_string().contains("entire bounding box"), "{err}");
    }

    #[test]
    fn unsorted_cut_terms_are_rejected() {
        let m = knapsack();
        let cut = Cut {
            terms: vec![(VarId(1), 1.0), (VarId(0), 1.0)],
            rhs: 10.0,
        };
        assert!(matches!(
            check_cuts(&m, &[cut]).unwrap_err(),
            AuditError::Cut { index: 0, .. }
        ));
    }
}

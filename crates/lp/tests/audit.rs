//! Integration tests for the pre-solve static auditor
//! ([`rs_lp::audit`]), which runs on every solve: typed rejection of
//! incoherent inputs through the public solve API with the default
//! configuration (so a release run shows the audit is on in release).

use rs_lp::{solve, AuditError, Cmp, LinExpr, MilpConfig, MilpError, Model, Sense, VarKind};

/// A 10-var integer program fractional enough to branch for a while.
fn wide_model() -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..10)
        .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 6.0))
        .collect();
    for k in 0..6 {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e = e + (((i * 7 + k * 11) % 5 + 1) as f64, v);
        }
        m.add_constraint(e, Cmp::Le, (35 + 3 * k) as f64);
    }
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj = obj + (((i * 13) % 7 + 1) as f64, v);
    }
    m.set_objective(obj);
    m
}

#[test]
fn nan_coefficient_model_is_rejected_with_typed_error() {
    let mut m = wide_model();
    m.add_constraint(LinExpr::new() + (f64::NAN, rs_lp::VarId(0)), Cmp::Le, 1.0);
    match solve(&m, &MilpConfig::default()) {
        Err(MilpError::Audit(AuditError::Row { row, .. })) => assert_eq!(row, 6),
        other => panic!("expected a typed Row audit error, got {other:?}"),
    }
}

#[test]
fn non_finite_rhs_is_rejected_before_any_search() {
    let mut m = wide_model();
    m.add_constraint(LinExpr::new() + rs_lp::VarId(1), Cmp::Ge, f64::NEG_INFINITY);
    assert!(matches!(
        solve(&m, &MilpConfig::default()),
        Err(MilpError::Audit(AuditError::Row { .. }))
    ));
}

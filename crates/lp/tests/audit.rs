//! Integration tests for the pre-solve static auditor
//! ([`rs_lp::audit`]), which runs on every solve: typed rejection of
//! incoherent inputs through the public solve API with the default
//! configuration (so a release run shows the audit is on in release), and
//! acceptance of every checkpoint the solver itself produces.

use rs_lp::{
    solve, solve_resumable, AuditError, Cmp, LinExpr, MilpConfig, MilpError, Model,
    SearchCheckpoint, Sense, VarKind,
};

/// A 10-var integer program fractional enough to branch for a while —
/// interruptible at small node limits, so it yields checkpoints.
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

#[test]
fn fingerprint_mismatch_stays_a_silent_cold_start_even_with_audit_on() {
    // The audit checks the model and cut rows, never a checkpoint's
    // provenance: a foreign checkpoint (fingerprint mismatch) keeps the
    // documented robustness-over-strictness contract and cold-starts
    // silently.
    let mut other = wide_model();
    other.add_constraint(LinExpr::new() + rs_lp::VarId(0), Cmp::Le, 3.0);
    let ck = solve_resumable(
        &other,
        &MilpConfig {
            node_limit: 1,
            ..MilpConfig::default()
        },
        None,
    )
    .checkpoint
    .expect("interrupt");
    let m = wide_model();
    let s = solve_resumable(&m, &MilpConfig::default(), Some(&ck))
        .result
        .expect("cold start solves");
    assert!(!s.stats.resumed);
    assert!(s.stats.proven_optimal);
}

#[test]
fn audited_resume_chain_still_matches_uninterrupted_run() {
    // The audit of a resumed solve (model and restored cut pool) must
    // accept every checkpoint the solver itself produces: chain
    // interrupted solves to completion and compare against the one-shot
    // run.
    let m = wide_model();
    let uninterrupted = solve(&m, &MilpConfig::default()).expect("solvable");
    let mut resume: Option<SearchCheckpoint> = None;
    let mut final_sol = None;
    for _ in 0..50 {
        let run = solve_resumable(
            &m,
            &MilpConfig {
                node_limit: resume.as_ref().map_or(2, |ck| ck.nodes() + 2),
                ..MilpConfig::default()
            },
            resume.as_ref(),
        );
        match run.checkpoint {
            Some(ck) => resume = Some(ck),
            None => {
                final_sol = Some(run.result.expect("chain completes"));
                break;
            }
        }
    }
    let chained = final_sol.expect("resume chain must finish within 50 legs");
    assert_eq!(chained.stats.trace_digest, uninterrupted.stats.trace_digest);
    assert_eq!(chained.stats.nodes, uninterrupted.stats.nodes);
    assert_eq!(chained.objective, uninterrupted.objective);
}

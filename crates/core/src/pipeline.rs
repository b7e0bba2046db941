//! The Figure-1 pre-scheduling pipeline: saturation computation followed by
//! reduction, per register type.
//!
//! ```text
//!        DAG ──► RS computation ──► (RS ≤ R ?) ──► untouched DAG
//!                                      │ no
//!                                      ▼
//!                              RS reduction (add arcs)
//!                                      │
//!                                      ▼
//!                              (modified) DAG ──► scheduler ──► allocator
//! ```
//!
//! The scheduler and allocator live downstream in `rs-sched`; this module
//! produces the register-constraint-free DAG they consume.

use crate::engine::RsEngine;
use crate::exact::ExactRs;
use crate::model::{Ddg, RegType};
use crate::reduce::{ReduceOutcome, Reducer};
use serde::Serialize;

/// Per-type register budget and analysis strategy.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Register budget per type (types absent from the list are unlimited).
    pub budgets: Vec<(RegType, usize)>,
    /// Verify the reduced saturation with the exact solver (slower; used by
    /// tests and experiments).
    pub verify_exact: bool,
}

/// Per-type outcome of the pipeline.
#[derive(Clone, Debug, Serialize)]
pub struct TypeReport {
    /// The register type (index form for serialization).
    pub reg_type: u8,
    /// Register budget applied.
    pub budget: usize,
    /// Saturation estimate before reduction.
    pub rs_before: usize,
    /// Saturation estimate after (== before when untouched).
    pub rs_after: usize,
    /// Number of serialization arcs added.
    pub arcs_added: usize,
    /// Critical path before.
    pub cp_before: i64,
    /// Critical path after.
    pub cp_after: i64,
    /// Whether the budget is met.
    pub fits: bool,
    /// Exact saturation after reduction, when verification was requested.
    pub verified_rs: Option<usize>,
}

/// Outcome of a full pipeline run.
#[derive(Clone, Debug, Serialize)]
pub struct PipelineReport {
    /// One report per configured register type.
    pub types: Vec<TypeReport>,
}

impl PipelineReport {
    /// Whether every configured type fits its budget.
    pub fn all_fit(&self) -> bool {
        self.types.iter().all(|t| t.fits)
    }

    /// Total serialization arcs added across types.
    pub fn total_arcs_added(&self) -> usize {
        self.types.iter().map(|t| t.arcs_added).sum()
    }
}

impl Pipeline {
    /// A pipeline with one budget for every type present in the DDG.
    pub fn uniform(budget: usize) -> Self {
        Pipeline {
            budgets: vec![
                (RegType::INT, budget),
                (RegType::FLOAT, budget),
                (RegType::BRANCH, budget),
            ],
            verify_exact: false,
        }
    }

    /// Runs saturation analysis + reduction on every configured type,
    /// mutating `ddg` in place.
    ///
    /// Thin wrapper: execution is delegated to a fresh [`RsEngine`] —
    /// [`RsEngine::run_pipeline`] is the single execution path. Corpus-scale
    /// drivers keep one engine per worker and route through it directly to
    /// reuse its scratch across DAGs.
    pub fn run(&self, ddg: &mut Ddg) -> PipelineReport {
        RsEngine::new().run_pipeline(self, ddg)
    }

    /// Runs the pipeline through `engine`, reusing its working storage.
    /// This is the engine hook behind [`RsEngine::run_pipeline`].
    pub(crate) fn run_with(&self, engine: &mut RsEngine, ddg: &mut Ddg) -> PipelineReport {
        let mut types = Vec::new();
        for &(t, budget) in &self.budgets {
            if ddg.values(t).is_empty() {
                continue;
            }
            let cp_before = ddg.critical_path();
            let before = engine.analyze(ddg, t);
            let reducer = Reducer {
                verify_exact: self.verify_exact,
                ..Reducer::new()
            };
            let outcome = engine.reduce_with(&reducer, ddg, t, budget);
            let (rs_after, arcs_added, fits) = match &outcome {
                ReduceOutcome::AlreadyFits { rs } => (*rs, 0, true),
                ReduceOutcome::Reduced {
                    rs_after,
                    added_arcs,
                    ..
                } => (*rs_after, added_arcs.len(), true),
                ReduceOutcome::Failed {
                    best_rs,
                    added_arcs,
                    ..
                } => (*best_rs, added_arcs.len(), false),
            };
            let verified_rs = self
                .verify_exact
                .then(|| ExactRs::new().saturation(ddg, t).saturation);
            types.push(TypeReport {
                reg_type: t.0,
                budget,
                rs_before: before.saturation,
                rs_after,
                arcs_added,
                cp_before,
                cp_after: ddg.critical_path(),
                fits,
                verified_rs,
            });
        }
        PipelineReport { types }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    fn mixed_ddg() -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        // four independent float chains + two independent int chains
        for i in 0..4 {
            let v = b.op(format!("f{i}"), OpClass::Load, Some(RegType::FLOAT));
            let s = b.op(format!("fs{i}"), OpClass::Store, None);
            b.flow(v, s, 4, RegType::FLOAT);
        }
        for i in 0..2 {
            let v = b.op(format!("i{i}"), OpClass::IntAlu, Some(RegType::INT));
            let s = b.op(format!("is{i}"), OpClass::Store, None);
            b.flow(v, s, 1, RegType::INT);
        }
        b.finish()
    }

    #[test]
    fn pipeline_reduces_only_overflowing_types() {
        let mut d = mixed_ddg();
        let report = Pipeline {
            budgets: vec![(RegType::FLOAT, 2), (RegType::INT, 8)],
            verify_exact: true,
        }
        .run(&mut d);
        assert!(report.all_fit());
        let float = report.types.iter().find(|t| t.reg_type == 1).unwrap();
        assert_eq!(float.rs_before, 4);
        assert!(float.rs_after <= 2);
        assert!(float.arcs_added > 0);
        assert_eq!(
            float.verified_rs.unwrap().min(2),
            float.verified_rs.unwrap()
        );
        let int = report.types.iter().find(|t| t.reg_type == 0).unwrap();
        assert_eq!(int.arcs_added, 0, "int fits, must be untouched");
        assert!(report.total_arcs_added() >= float.arcs_added);
    }

    #[test]
    fn uniform_budget_covers_all_types() {
        let mut d = mixed_ddg();
        let report = Pipeline::uniform(8).run(&mut d);
        assert!(report.all_fit());
        assert_eq!(report.total_arcs_added(), 0);
        assert_eq!(report.types.len(), 2); // INT and FLOAT present
    }

    #[test]
    fn failing_budget_reported() {
        // two loads into an add cannot fit in one register
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        b.flow(l1, add, 4, RegType::FLOAT);
        b.flow(l2, add, 4, RegType::FLOAT);
        let mut d = b.finish();
        let report = Pipeline {
            budgets: vec![(RegType::FLOAT, 1)],
            verify_exact: false,
        }
        .run(&mut d);
        assert!(!report.all_fit());
    }
}

//! **T1 — RS computation optimality** (Section 5, first result).
//!
//! Paper: *"Regarding RS computation, the maximal empirical error is one
//! register (in very few cases)."*
//!
//! For every case in the corpus (named kernels + random sweeps), compute
//! the Greedy-k estimate `RS*` and the exact saturation `RS` (combinatorial
//! branch-and-bound; intLP cross-check on small DAGs) and histogram the
//! error `RS − RS*`.

use crate::common::{kernel_cases, par_map, random_cases, Case};
use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::ilp::RsIlp;
use rs_core::model::Target;
use serde::Serialize;
use std::fmt::Write;

/// Per-case measurement.
#[derive(Clone, Debug, Serialize)]
pub struct CaseResult {
    /// Case name.
    pub name: String,
    /// Operation count (incl. ⊥).
    pub ops: usize,
    /// Value count of the analysed type.
    pub values: usize,
    /// Greedy-k estimate `RS*`.
    pub heuristic: usize,
    /// Exact saturation `RS`.
    pub exact: usize,
    /// Whether the exact search was exhaustive.
    pub exact_proven: bool,
    /// intLP cross-check (small DAGs only).
    pub ilp: Option<usize>,
}

/// Aggregate report.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// All measurements.
    pub cases: Vec<CaseResult>,
    /// Histogram of `RS − RS*` (index = error).
    pub error_histogram: Vec<usize>,
    /// Fraction of exactly-estimated cases.
    pub exact_fraction: f64,
    /// Maximum observed error.
    pub max_error: usize,
}

/// Runs the experiment. `ilp_max_values` bounds the intLP cross-check size.
pub fn run(quick: bool) -> (String, Report) {
    let target = Target::superscalar();
    let mut cases = kernel_cases(target.clone());
    let sizes: &[usize] = if quick {
        &[10, 14]
    } else {
        &[8, 10, 12, 14, 16, 20, 24]
    };
    let count = if quick { 6 } else { 30 };
    cases.extend(random_cases(sizes, count, target));
    let ilp_max_values = 5;

    let results: Vec<CaseResult> = par_map(cases, |case: Case| {
        let h = GreedyK::new().saturation(&case.ddg, case.reg_type);
        let e = ExactRs::new().saturation(&case.ddg, case.reg_type);
        let ilp = (case.ddg.values(case.reg_type).len() <= ilp_max_values)
            .then(|| {
                RsIlp::new()
                    .saturation(&case.ddg, case.reg_type)
                    .ok()
                    .filter(|r| r.proven_optimal)
                    .map(|r| r.saturation)
            })
            .flatten();
        CaseResult {
            name: case.name,
            ops: case.ddg.num_ops(),
            values: case.ddg.values(case.reg_type).len(),
            heuristic: h.saturation,
            exact: e.saturation,
            exact_proven: e.proven_optimal,
            ilp,
        }
    });

    let mut hist = vec![0usize; 8];
    let mut max_error = 0usize;
    for r in &results {
        assert!(
            r.heuristic <= r.exact,
            "{}: RS* ({}) must never exceed RS ({})",
            r.name,
            r.heuristic,
            r.exact
        );
        if let Some(ilp) = r.ilp {
            assert_eq!(ilp, r.exact, "{}: intLP and enumeration disagree", r.name);
        }
        let err = r.exact - r.heuristic;
        max_error = max_error.max(err);
        if err < hist.len() {
            hist[err] += 1;
        }
    }
    let exact_fraction = hist[0] as f64 / results.len() as f64;

    let mut text = String::new();
    let _ = writeln!(text, "T1 — RS computation: heuristic RS* vs exact RS");
    let _ = writeln!(text, "================================================");
    let _ = writeln!(
        text,
        "{:<18} {:>4} {:>6} {:>5} {:>5} {:>5} {:>6}",
        "case", "ops", "values", "RS*", "RS", "err", "intLP"
    );
    for r in &results {
        let _ = writeln!(
            text,
            "{:<18} {:>4} {:>6} {:>5} {:>5} {:>5} {:>6}",
            r.name,
            r.ops,
            r.values,
            r.heuristic,
            r.exact,
            r.exact - r.heuristic,
            r.ilp.map_or("-".into(), |v| v.to_string()),
        );
    }
    let _ = writeln!(text);
    let _ = writeln!(text, "error histogram (RS − RS*):");
    for (err, &count) in hist.iter().enumerate() {
        if count > 0 {
            let _ = writeln!(text, "  error {err}: {count} cases");
        }
    }
    let _ = writeln!(
        text,
        "\nexact estimates: {:.1}% of {} cases; max error: {} register(s)",
        exact_fraction * 100.0,
        results.len(),
        max_error
    );
    let _ = writeln!(
        text,
        "paper claim: 'the maximal empirical error is one register (in very few cases)'"
    );

    let report = Report {
        cases: results,
        error_histogram: hist,
        exact_fraction,
        max_error,
    };
    (text, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_paper_claim() {
        let (text, report) = run(true);
        assert!(text.contains("error histogram"));
        assert!(!report.cases.is_empty());
        // the headline claim: error ≤ 1 almost everywhere
        assert!(report.max_error <= 1, "max error {} > 1", report.max_error);
        assert!(
            report.exact_fraction >= 0.8,
            "exact fraction {:.2} too low",
            report.exact_fraction
        );
    }
}

//! **T5b — ablations** of the reproduction's own design choices:
//!
//! 1. Greedy-k **hill-climbing refinement** (on/off): how much of the
//!    near-optimality comes from refinement vs the greedy construction;
//! 2. the Section-3 **pair pre-filter** (on/off): model-size and solve-time
//!    impact of the "never simultaneously alive" optimization the paper
//!    lists at the end of Section 3;
//! 3. the ReduceIlp **horizon escalation** (on/off): big-M tightening vs
//!    the paper's worst-case `T = Σ δ(e)`.

use crate::common::{par_map, random_cases, Case};
use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::ilp::{ReduceIlp, RsIlp};
use rs_core::model::Target;
use rs_lp::MilpConfig;
use serde::Serialize;
use std::fmt::Write;
use std::time::Instant;

/// Aggregate ablation report.
#[derive(Clone, Debug, Serialize, Default)]
pub struct Report {
    /// (exact matches, total, micros) without refinement.
    pub greedy_plain: (usize, usize, u128),
    /// (exact matches, total, micros) with refinement.
    pub greedy_refined: (usize, usize, u128),
    /// (variables, constraints, solve ms) with the pair pre-filter.
    pub ilp_prefiltered: (usize, usize, u128),
    /// (variables, constraints, solve ms) without it.
    pub ilp_unfiltered: (usize, usize, u128),
    /// Reduce-intLP milliseconds with horizon escalation.
    pub reduce_escalated_ms: u128,
    /// Reduce-intLP milliseconds with the paper's full horizon.
    pub reduce_full_horizon_ms: u128,
}

/// Runs the ablations.
pub fn run(quick: bool) -> (String, Report) {
    let mut report = Report::default();
    let target = Target::superscalar();

    // --- 1. refinement ablation ---------------------------------------
    let cases = random_cases(
        if quick { &[12, 16] } else { &[12, 16, 20] },
        if quick { 8 } else { 20 },
        target.clone(),
    );
    let results: Vec<(bool, bool, u128, u128)> = par_map(cases, |case: Case| {
        let exact = ExactRs::new().saturation(&case.ddg, case.reg_type);
        let t0 = Instant::now();
        let plain = GreedyK { refine_passes: 0 }.saturation(&case.ddg, case.reg_type);
        let plain_us = t0.elapsed().as_micros();
        let t1 = Instant::now();
        let refined = GreedyK::new().saturation(&case.ddg, case.reg_type);
        let refined_us = t1.elapsed().as_micros();
        (
            plain.saturation == exact.saturation,
            refined.saturation == exact.saturation,
            plain_us,
            refined_us,
        )
    });
    let total = results.len();
    report.greedy_plain = (
        results.iter().filter(|r| r.0).count(),
        total,
        results.iter().map(|r| r.2).sum(),
    );
    report.greedy_refined = (
        results.iter().filter(|r| r.1).count(),
        total,
        results.iter().map(|r| r.3).sum(),
    );

    // --- 2. pair pre-filter ablation -----------------------------------
    let small = random_cases(&[7], if quick { 3 } else { 6 }, target.clone())
        .into_iter()
        .filter(|c| (2..=5).contains(&c.ddg.values(c.reg_type).len()))
        .collect::<Vec<_>>();
    let mut pre = (0usize, 0usize, 0u128);
    let mut unf = (0usize, 0usize, 0u128);
    for case in &small {
        for (prefilter, acc) in [(true, &mut pre), (false, &mut unf)] {
            let solver = RsIlp {
                prefilter_pairs: prefilter,
                milp: MilpConfig {
                    time_limit: Some(std::time::Duration::from_secs(30)),
                    ..MilpConfig::default()
                },
                ..RsIlp::new()
            };
            let (model, _) = solver.build_model(&case.ddg, case.reg_type);
            acc.0 += model.stats().variables();
            acc.1 += model.stats().constraints;
            let t0 = Instant::now();
            let _ = solver.saturation(&case.ddg, case.reg_type);
            acc.2 += t0.elapsed().as_millis();
        }
    }
    report.ilp_prefiltered = pre;
    report.ilp_unfiltered = unf;

    // --- 3. horizon escalation ablation ---------------------------------
    for case in small.iter().take(if quick { 2 } else { 4 }) {
        let rs0 = GreedyK::new()
            .saturation(&case.ddg, case.reg_type)
            .saturation;
        if rs0 < 2 {
            continue;
        }
        for (escalate, slot) in [
            (true, &mut report.reduce_escalated_ms),
            (false, &mut report.reduce_full_horizon_ms),
        ] {
            let mut ddg = case.ddg.clone();
            let solver = ReduceIlp {
                escalate_horizon: escalate,
                milp: MilpConfig {
                    time_limit: Some(std::time::Duration::from_secs(30)),
                    ..MilpConfig::default()
                },
            };
            let t0 = Instant::now();
            let _ = solver.reduce(&mut ddg, case.reg_type, rs0 - 1);
            *slot += t0.elapsed().as_millis();
        }
    }

    let mut text = String::new();
    let _ = writeln!(text, "T5b — ablations of the reproduction's design choices");
    let _ = writeln!(text, "====================================================");
    let _ = writeln!(
        text,
        "\n1. Greedy-k hill-climbing refinement (exact matches vs ExactRs):"
    );
    let _ = writeln!(
        text,
        "   plain greedy : {}/{} exact, total {} µs",
        report.greedy_plain.0, report.greedy_plain.1, report.greedy_plain.2
    );
    let _ = writeln!(
        text,
        "   + refinement : {}/{} exact, total {} µs",
        report.greedy_refined.0, report.greedy_refined.1, report.greedy_refined.2
    );
    let _ = writeln!(
        text,
        "\n2. Section-3 pair pre-filter (summed over {} small DAGs):",
        small.len()
    );
    let _ = writeln!(
        text,
        "   with filter   : {} vars, {} constraints, {} ms solve",
        report.ilp_prefiltered.0, report.ilp_prefiltered.1, report.ilp_prefiltered.2
    );
    let _ = writeln!(
        text,
        "   without filter: {} vars, {} constraints, {} ms solve",
        report.ilp_unfiltered.0, report.ilp_unfiltered.1, report.ilp_unfiltered.2
    );
    let _ = writeln!(text, "\n3. ReduceIlp horizon strategy:");
    let _ = writeln!(
        text,
        "   escalated horizon: {} ms;  paper's T = Σδ(e): {} ms",
        report.reduce_escalated_ms, report.reduce_full_horizon_ms
    );

    (text, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_never_hurts() {
        let (_, report) = run(true);
        assert!(
            report.greedy_refined.0 >= report.greedy_plain.0,
            "refined {:?} vs plain {:?}",
            report.greedy_refined,
            report.greedy_plain
        );
        // pre-filter can only shrink the model
        assert!(report.ilp_prefiltered.0 <= report.ilp_unfiltered.0);
        assert!(report.ilp_prefiltered.1 <= report.ilp_unfiltered.1);
    }
}

//! **T2 — RS reduction optimality** (Section 5, category table).
//!
//! The paper classifies every (DAG, register budget) trial by comparing the
//! heuristic reduction against the optimal intLP reduction:
//!
//! | category | meaning | paper |
//! |---|---|---|
//! | (i)(a)  | optimal RS reduction, optimal ILP loss | 72.22 % |
//! | (i)(b)  | optimal RS reduction, sub-optimal ILP loss | 18.5 % |
//! | (ii)(a) | sub-optimal RS reduction, optimal ILP loss | 4.63 % |
//! | (ii)(b) | sub-optimal RS reduction, sub-optimal ILP loss | < 1 % |
//! | (ii)(c) | sub-optimal RS reduction, *super*-optimal ILP loss (extra registers buy ILP) | 3.7 % |
//!
//! Interpretation used here (see EXPERIMENTS.md): the *reduction achieved*
//! is optimal when the heuristic's reduced DAG meets the budget wherever
//! the exact method does; ILP loss is the critical-path increase. Exact
//! reduction comes from the Section-4 intLP, so trials are restricted to
//! intLP-tractable sizes. The intLP runs under a node budget, not a wall
//! clock, so the table does not depend on the host; a trial whose intLP
//! runs out of budget or returns an unproven answer is counted as
//! [`Category::Unproven`] and left out of the percentages.

use crate::common::{par_map, random_cases, Case};
use rs_core::exact::ExactRs;
use rs_core::ilp::{ReduceIlp, ReduceIlpError};
use rs_core::model::Target;
use rs_core::reduce::Reducer;
use rs_lp::MilpConfig;
use serde::Serialize;
use std::fmt::Write;

/// Classification of one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Category {
    /// Optimal reduction, optimal ILP loss.
    IA,
    /// Optimal reduction, sub-optimal ILP loss.
    IB,
    /// Sub-optimal reduction, optimal ILP loss.
    IIA,
    /// Sub-optimal reduction, sub-optimal ILP loss.
    IIB,
    /// Sub-optimal reduction, super-optimal ILP loss.
    IIC,
    /// Both methods agree the budget is infeasible (spill unavoidable) —
    /// not counted in the paper's percentages.
    BothInfeasible,
    /// The intLP proved nothing within its node budget: it ran out without
    /// an answer, or its answer is not proven optimal — not counted in the
    /// percentages.
    Unproven,
}

/// Branch-and-bound nodes the Section-4 intLP may spend per horizon
/// attempt of one trial.
const NODE_BUDGET: usize = 20_000;

/// How the Section-4 intLP ended on one trial.
#[derive(Clone, Copy, Debug)]
enum Exact {
    /// A proven optimal reduction: the exact saturation and ILP loss of
    /// the reduced DAG.
    Reduced { rs: usize, loss: i64 },
    /// Spill code is proven unavoidable.
    Spill,
    /// Out of budget, or an answer without an optimality proof.
    Unproven,
}

/// One (DAG, budget) trial.
#[derive(Clone, Debug, Serialize)]
pub struct Trial {
    /// Case name.
    pub name: String,
    /// Register budget targeted.
    pub budget: usize,
    /// Saturation before reduction.
    pub rs_before: usize,
    /// Exact saturation of the heuristic's reduced DAG (`usize::MAX` if the
    /// heuristic failed).
    pub heur_rs_after: Option<usize>,
    /// Heuristic ILP loss (critical-path increase).
    pub heur_ilp_loss: Option<i64>,
    /// Exact saturation of the intLP's reduced DAG.
    pub opt_rs_after: Option<usize>,
    /// Optimal ILP loss.
    pub opt_ilp_loss: Option<i64>,
    /// Category.
    pub category: Category,
}

/// Aggregate report.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// All trials.
    pub trials: Vec<Trial>,
    /// Percentage per category, in (i)(a), (i)(b), (ii)(a), (ii)(b), (ii)(c)
    /// order, over classified trials.
    pub percentages: [f64; 5],
    /// Trials left out of the percentages because the intLP proved
    /// nothing within `NODE_BUDGET` nodes.
    pub unproven: usize,
}

/// Runs the experiment on intLP-tractable DAGs.
pub fn run(quick: bool) -> (String, Report) {
    let target = Target::superscalar();
    // Small random DAGs: the intLP must stay tractable (n ≤ ~8 values).
    let count = if quick { 4 } else { 14 };
    let cases = random_cases(&[6, 8, 10], count, target)
        .into_iter()
        .filter(|c| {
            let v = c.ddg.values(c.reg_type).len();
            (2..=6).contains(&v)
        })
        .collect::<Vec<_>>();

    let trials: Vec<Vec<Trial>> = par_map(cases, |case: Case| {
        let t = case.reg_type;
        let rs0 = ExactRs::new().saturation(&case.ddg, t);
        let mut out = Vec::new();
        // sweep budgets below the saturation
        let max_drop = if quick { 2 } else { 3 };
        for drop in 1..=max_drop.min(rs0.saturation.saturating_sub(1)) {
            let budget = rs0.saturation - drop;
            out.push(run_trial(&case, budget, rs0.saturation));
        }
        out
    });
    let trials: Vec<Trial> = trials.into_iter().flatten().collect();

    let mut counts = [0usize; 5];
    let mut classified = 0usize;
    let mut unproven = 0usize;
    for tr in &trials {
        let idx = match tr.category {
            Category::IA => 0,
            Category::IB => 1,
            Category::IIA => 2,
            Category::IIB => 3,
            Category::IIC => 4,
            Category::BothInfeasible => continue,
            Category::Unproven => {
                unproven += 1;
                continue;
            }
        };
        counts[idx] += 1;
        classified += 1;
    }
    let percentages = counts.map(|c| 100.0 * c as f64 / classified.max(1) as f64);

    let mut text = String::new();
    let _ = writeln!(text, "T2 — RS reduction: heuristic vs optimal intLP");
    let _ = writeln!(text, "==============================================");
    let _ = writeln!(
        text,
        "{:<14} {:>3} {:>4} | {:>6} {:>6} | {:>6} {:>6} | {:?}",
        "case", "R", "RS0", "RS*aft", "ILP*", "RSaft", "ILP", "cat"
    );
    for tr in &trials {
        let _ = writeln!(
            text,
            "{:<14} {:>3} {:>4} | {:>6} {:>6} | {:>6} {:>6} | {:?}",
            tr.name,
            tr.budget,
            tr.rs_before,
            opt_str(tr.heur_rs_after),
            opt_str_i(tr.heur_ilp_loss),
            opt_str(tr.opt_rs_after),
            opt_str_i(tr.opt_ilp_loss),
            tr.category,
        );
    }
    let labels = ["(i)(a)", "(i)(b)", "(ii)(a)", "(ii)(b)", "(ii)(c)"];
    let paper = [72.22, 18.5, 4.63, 1.0, 3.7];
    let _ = writeln!(
        text,
        "\ncategory breakdown over {classified} classified trials \
         ({unproven} unproven within {NODE_BUDGET} nodes, left out):"
    );
    let _ = writeln!(text, "{:<8} {:>9} {:>12}", "cat", "measured", "paper");
    for i in 0..5 {
        let _ = writeln!(
            text,
            "{:<8} {:>8.2}% {:>11.2}%{}",
            labels[i],
            percentages[i],
            paper[i],
            if i == 3 { " (paper: <1%)" } else { "" }
        );
    }

    let report = Report {
        trials,
        percentages,
        unproven,
    };
    (text, report)
}

fn run_trial(case: &Case, budget: usize, rs_before: usize) -> Trial {
    let t = case.reg_type;

    // Heuristic reduction.
    let mut heur_ddg = case.ddg.clone();
    let cp_before = heur_ddg.critical_path();
    let heur_out = Reducer::new().reduce(&mut heur_ddg, t, budget);
    let (heur_rs_after, heur_ilp_loss) = if heur_out.fits() {
        let rs = ExactRs::new().saturation(&heur_ddg, t).saturation;
        (Some(rs), Some(heur_ddg.critical_path() - cp_before))
    } else {
        (None, None)
    };

    // Optimal reduction (Section-4 intLP).
    let mut opt_ddg = case.ddg.clone();
    let milp = MilpConfig {
        node_limit: NODE_BUDGET,
        time_limit: None,
        ..MilpConfig::default()
    };
    let opt = ReduceIlp {
        milp,
        ..ReduceIlp::new()
    }
    .reduce(&mut opt_ddg, t, budget);
    let exact = match &opt {
        Ok(res) if res.proven_optimal => Exact::Reduced {
            rs: ExactRs::new().saturation(&opt_ddg, t).saturation,
            loss: opt_ddg.critical_path() - cp_before,
        },
        Ok(_) | Err(ReduceIlpError::Budget) => Exact::Unproven,
        Err(ReduceIlpError::SpillUnavoidable) => Exact::Spill,
        Err(ReduceIlpError::Rejected(e)) => panic!("audit rejected a generated model: {e}"),
    };
    let (opt_rs_after, opt_ilp_loss) = match exact {
        Exact::Reduced { rs, loss } => (Some(rs), Some(loss)),
        Exact::Spill | Exact::Unproven => (None, None),
    };

    let category = classify(budget, heur_rs_after, heur_ilp_loss, exact);
    Trial {
        name: case.name.clone(),
        budget,
        rs_before,
        heur_rs_after,
        heur_ilp_loss,
        opt_rs_after,
        opt_ilp_loss,
        category,
    }
}

fn classify(
    budget: usize,
    heur_rs: Option<usize>,
    heur_ilp: Option<i64>,
    exact: Exact,
) -> Category {
    match (heur_rs, exact) {
        (_, Exact::Unproven) => Category::Unproven,
        // The heuristic's DAG met the budget where the intLP proved spill
        // code unavoidable within its horizon (the heuristic's arcs may
        // stretch the schedule past it): the heuristic did at least as
        // well as the exact method.
        (Some(h), Exact::Spill) if h <= budget => Category::IA,
        (_, Exact::Spill) => Category::BothInfeasible,
        (Some(h), Exact::Reduced { loss: oi, .. }) => {
            let heur_ok = h <= budget;
            let hi = heur_ilp.expect("a measured heuristic DAG has an ILP loss");
            if heur_ok {
                if hi <= oi {
                    Category::IA
                } else {
                    Category::IB
                }
            } else if hi == oi {
                Category::IIA
            } else if hi > oi {
                Category::IIB
            } else {
                Category::IIC
            }
        }
        // Heuristic failed where the optimal succeeded: sub-optimal
        // reduction; with no heuristic graph to measure, ILP compares as
        // super-optimal (the untouched DAG keeps all its ILP).
        (None, Exact::Reduced { .. }) => Category::IIC,
    }
}

fn opt_str(v: Option<usize>) -> String {
    v.map_or("-".into(), |x| x.to_string())
}

fn opt_str_i(v: Option<i64>) -> String {
    v.map_or("-".into(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_dominated_by_both_optimal() {
        let (text, report) = run(true);
        assert!(text.contains("category breakdown"));
        assert!(!report.trials.is_empty());
        // shape of the paper's table: (i)(a) dominates, (ii)(b) rare
        assert!(
            report.percentages[0] >= 50.0,
            "(i)(a) should dominate: {:?}",
            report.percentages
        );
        assert!(
            report.percentages[3] <= 10.0,
            "(ii)(b) should be rare: {:?}",
            report.percentages
        );
    }
}

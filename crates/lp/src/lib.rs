//! # rs-lp — linear-programming substrate
//!
//! The paper solves its intLP formulations with CPLEX; this crate is the
//! from-scratch replacement: a dense two-phase **bounded-variable** primal
//! simplex for LP relaxations (upper bounds live in per-column statuses,
//! not in explicit `x ≤ u` rows — the RS models are almost entirely binary,
//! so this halves the tableau in both dimensions) and a parallel
//! branch-and-bound driver whose diving heuristic and strong-branching
//! probes re-solve in place on a live tableau, plus the logical-operator
//! linearizations (`max`, `⟹`, `⟺`, `∨`) that Sections 3–4 of the paper
//! take from Touati's thesis \[15\]. The pre-rewrite explicit-bound-row
//! formulation survives as a differential baseline in
//! [`reference`](mod@reference).
//!
//! Design notes:
//!
//! - **Exactness over scale.** All model data in the register-saturation
//!   formulations is integral with modest magnitudes; `f64` arithmetic with
//!   a `1e-7` tolerance plus integral rounding of bounds is exact in
//!   practice for these instances, and every MILP answer used in the
//!   experiments is cross-checked against a combinatorial solver.
//! - **Dense tableau.** Instances are small (hundreds of rows/columns), so
//!   a cache-friendly dense tableau beats sparse machinery.
//! - **Deterministic.** No randomness anywhere: identical models yield
//!   identical pivots, bounds, and branching decisions.
//!
//! ```
//! use rs_lp::{Model, Sense, VarKind, LinExpr};
//!
//! // max x + 2y  s.t.  x + y <= 4,  x, y ∈ [0, 3] integer
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", VarKind::Integer, 0.0, 3.0);
//! let y = m.add_var("y", VarKind::Integer, 0.0, 3.0);
//! m.add_constraint(LinExpr::from(x) + y, rs_lp::Cmp::Le, 4.0);
//! m.set_objective(LinExpr::from(x) + (2.0, y));
//! let sol = rs_lp::solve(&m, &rs_lp::MilpConfig::default()).unwrap();
//! assert_eq!(sol.objective.round() as i64, 7); // x=1, y=3
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod cancel;
pub mod cuts;
pub mod expr;
pub mod linearize;
pub mod milp;
pub mod model;
pub(crate) mod pool;
pub mod presolve;
pub mod reference;
pub mod simplex;

pub use audit::AuditError;
pub use cancel::{min_deadline, Cancel};
pub use cuts::Cut;
pub use expr::LinExpr;
pub use milp::{
    solve, solve_from, solve_resumable, MilpConfig, MilpError, MilpRun, MilpStats, SearchCheckpoint,
};
pub use model::{Cmp, Model, ModelStats, Sense, VarId, VarKind};
pub use presolve::{presolve, propagate, PresolveOutcome, PresolveStats, Propagation};
pub use simplex::{
    solve_relaxation, tableau_shape, DiveStep, DiveTableau, LpOutcome, LpStats, Solution,
};

/// Numeric tolerance used throughout the solver.
pub const EPS: f64 = 1e-7;

/// Tolerance equality at the solver tolerance [`EPS`]. Raw float `==` on
/// solver values is a determinism hazard (lint rule D-03): two
/// arithmetically equivalent pivot orders can disagree in the last ulp,
/// so every value comparison goes through an explicit tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Tolerance zero test at the solver tolerance [`EPS`]; the zero-argument
/// twin of [`approx_eq`].
#[inline]
pub fn approx_zero(a: f64) -> bool {
    a.abs() <= EPS
}

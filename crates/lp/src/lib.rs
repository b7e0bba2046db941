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
// Exact float comparison on solver values, outside tests; comparisons
// against zero and infinity are exempt.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod audit;
pub mod cancel;
pub mod cuts;
pub mod expr;
pub mod linearize;
pub mod milp;
pub mod model;
pub mod par;
pub(crate) mod pool;
pub mod propagate;
pub mod reference;
pub mod simplex;

pub use audit::AuditError;
pub use cancel::Cancel;
pub use cuts::Cut;
pub use expr::LinExpr;
pub use milp::{solve, MilpConfig, MilpError, MilpStats};
pub use model::{Cmp, Model, ModelStats, Sense, VarId, VarKind};
pub use par::par_map;
pub use propagate::{propagate, Propagation};
pub use simplex::{
    solve_relaxation, tableau_shape, DiveStep, DiveTableau, LpOutcome, LpStats, Solution,
};

/// Numeric tolerance used throughout the solver.
pub const EPS: f64 = 1e-7;

/// Tolerance zero test at the solver tolerance [`EPS`]. Raw float `==` on
/// solver values is a determinism hazard (`clippy::float_cmp` is denied
/// in this crate and rs-core outside tests): two arithmetically
/// equivalent pivot orders can disagree in the last ulp, so a value
/// comparison goes through an explicit tolerance.
#[inline]
pub fn approx_zero(a: f64) -> bool {
    a.abs() <= EPS
}

/// Incremental 64-bit FNV-1a: the branch-and-bound trace digest and the
/// cut pool's content keys.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds `v` as its eight little-endian bytes.
    pub(crate) fn u64v(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn state(self) -> u64 {
        self.0
    }
}
